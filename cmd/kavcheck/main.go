// Command kavcheck verifies k-atomicity of a history read from a file or
// standard input.
//
// Usage:
//
//	kavcheck [flags] [file]
//
// The input is the compact text format ("w 1 0 10", "r 1 20 30", one op per
// line; see package kat) or JSON with -json; "-" (or no argument) reads
// standard input. Text inputs stream through a buffered reader, so memory
// tracks the parsed operations, not the file size — and with -stream the
// trace is never materialized at all. Examples:
//
//	kavcheck -k 2 trace.txt          # is the trace 2-atomic?
//	kavcheck -smallest trace.txt     # smallest k
//	kavcheck -k 2 -algo lbt -witness trace.txt
//	kavcheck -weighted 5 trace.txt   # weighted k-AV (Section V)
//	kavcheck -k 2 -shrink trace.txt  # minimal violating core on failure
//	kavcheck -k 2 -keyed -workers 8 trace.txt  # multi-register, 8-way parallel
//	kavcheck -keyed -smallest trace.txt        # smallest k per register
//	tail -f ops.log | kavcheck -k 2 -stream -  # streaming pipeline
//	kavgen -keys 64 -ops 1000 -format wire | kavcheck -k 2 -stream -  # binary
//	kavcheck -stream -properties trace.txt   # smallest k + smallest Δ + regularity
//
// -stream sniffs its input: a stream opening with the binary wire-frame
// magic (kavgen -format wire; see internal/wire) decodes without any text
// parse, anything else reads as the keyed text format — no flag needed.
// -stream keeps operation buffering bounded by the open segment windows;
// a per-value index (needed for exact verdicts) still grows with the
// number of distinct written values.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"kat"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kavcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kavcheck", flag.ContinueOnError)
	var (
		k        = fs.Int("k", 2, "staleness bound to verify")
		algo     = fs.String("algo", "auto", "algorithm: auto|zones|lbt|fzf|oracle")
		smallest = fs.Bool("smallest", false, "compute the smallest k instead of a yes/no check")
		weighted = fs.Int64("weighted", 0, "verify weighted k-AV with this bound (overrides -k)")
		doDelta  = fs.Bool("delta", false, "also report the smallest time-staleness bound Δ")
		props    = fs.Bool("properties", false, "also report Lamport safety and regularity (with -stream: per-key smallest Δ and regularity verdicts from the same streaming pass)")
		keyed    = fs.Bool("keyed", false, "input is a multi-register trace (w <key> <value> <start> <finish>)")
		stream   = fs.Bool("stream", false, "streaming keyed verification: bounded memory, verdicts before EOF (implies -keyed)")
		workers  = fs.Int("workers", 0, "verification pool size (0 = GOMAXPROCS); each key's safe-cut segments fan out for -keyed/-stream (with -keyed, a key with an anomaly is one unit), chunks fan out within single registers. -keyed parses on GOMAXPROCS goroutines whatever this is; GOMAXPROCS=1 makes a run fully sequential")
		horizon  = fs.Int("horizon", 0, "staleness horizon for -stream -smallest (0 = default)")
		timeline = fs.Bool("timeline", false, "draw the history as an ASCII timeline")
		showWit  = fs.Bool("witness", false, "print the witness total order on success")
		doShrink = fs.Bool("shrink", false, "on failure, print a minimized violating history")
		asJSON   = fs.Bool("json", false, "input is JSON ({\"ops\": [...]})")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *stream || *keyed {
		// These shape a single-register check only; a keyed run would drop
		// them without a word.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "algo", "witness", "shrink", "weighted", "delta", "timeline", "json":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("%s cannot be used with -keyed or -stream", strings.Join(ignored, ", "))
		}
	}
	if !*stream {
		// -horizon bounds the streaming pass only, and a keyed run reports
		// properties only from it.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "horizon" || f.Name == "properties" && *keyed {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("%s cannot be used without -stream", strings.Join(ignored, ", "))
		}
	}
	if *stream {
		if *props {
			return runStreamVerdicts(fs.Args(), *workers, *horizon, out)
		}
		return runStream(fs.Args(), *k, *smallest, *workers, *horizon, out)
	}
	if *keyed {
		return runKeyed(fs.Args(), *k, *smallest, *workers, out)
	}

	h, err := readHistory(fs.Args(), *asJSON)
	if err != nil {
		return err
	}
	// Several paths below need the prepared form; build it once, lazily
	// (-delta and -weighted take the raw history and report its anomalies
	// themselves, so don't prepare eagerly).
	var prepared *kat.Prepared
	prepare := func() (*kat.Prepared, error) {
		if prepared == nil {
			p, err := kat.Prepare(kat.Normalize(h))
			if err != nil {
				return nil, err
			}
			prepared = p
		}
		return prepared, nil
	}
	if *timeline {
		p, err := prepare()
		if err != nil {
			return err
		}
		if err := kat.RenderTimeline(out, p, kat.RenderOptions{}); err != nil {
			return err
		}
	}
	if *doDelta {
		d, err := kat.SmallestDelta(h)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "smallest Δ (time-staleness): %d\n", d)
	}
	if *props {
		p, err := prepare()
		if err != nil {
			return err
		}
		v := kat.CheckProperties(p)
		fmt.Fprintf(out, "properties: %s\n", v.Summary())
	}
	st := kat.Measure(h)
	fmt.Fprintf(out, "history: %d ops (%d writes, %d reads), max write concurrency %d, forced staleness >= %d\n",
		st.Ops, st.Writes, st.Reads, st.MaxConcurrentWrites, st.ForcedStaleness)

	if *smallest {
		p, err := prepare()
		if err != nil {
			return err
		}
		kMin, err := kat.SmallestKPreparedParallel(p, kat.Options{}, *workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "smallest k: %d\n", kMin)
		return nil
	}

	if *weighted > 0 {
		rep, err := kat.CheckWeighted(h, *weighted, kat.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "weighted %d-atomic: %v\n", *weighted, rep.Atomic)
		if rep.Atomic && *showWit {
			printWitness(out, rep)
		}
		return nil
	}

	// -algo is one of the algorithms' own names.
	opts := kat.Options{}
	for opts.Algorithm = kat.AlgoAuto; opts.Algorithm.String() != *algo; opts.Algorithm++ {
		if opts.Algorithm == kat.AlgoOracle {
			return fmt.Errorf("unknown algorithm %q", *algo)
		}
	}
	p, err := prepare()
	if err != nil {
		return err
	}
	// One engine for every -workers: a big register's chunks (k = 2) or
	// safe-cut segments (k >= 3) spread over the pool, and with one worker
	// the same units run inline.
	rep, err := kat.CheckPreparedParallel(p, *k, opts, *workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d-atomic: %v (algorithm: %v)\n", *k, rep.Atomic, rep.Algorithm)
	if rep.Atomic && *showWit {
		printWitness(out, rep)
	}
	if !rep.Atomic && *doShrink {
		kk := *k
		min := kat.Minimize(h, func(c *kat.History) bool {
			r, err := kat.Check(c, kk, kat.Options{})
			return err == nil && !r.Atomic
		})
		fmt.Fprintf(out, "minimal violating core (%d ops):\n%s", min.Len(), min)
	}
	if !rep.Atomic {
		return fmt.Errorf("history is not %d-atomic", *k)
	}
	return nil
}

// openInput resolves the positional argument: a path, or "-" / nothing for
// standard input.
func openInput(args []string) (io.ReadCloser, error) {
	if len(args) == 0 || args[0] == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(args[0])
}

// runKeyed verifies a materialized multi-register trace per key at bound k,
// or computes each key's smallest k: each key is cut at its safe cuts and the
// runs of every key are checked on a worker pool. The input streams through a
// buffered parser (no whole-file read).
func runKeyed(args []string, k int, smallest bool, workers int, out io.Writer) error {
	in, err := openInput(args)
	if err != nil {
		return err
	}
	defer in.Close()
	tr, err := kat.ParseTraceReader(in)
	if err != nil {
		return err
	}
	if smallest {
		return printSmallestByKey(out, kat.SmallestKByKeyParallel(tr, kat.Options{}, workers))
	}
	rep := kat.CheckTraceParallel(tr, k, kat.Options{}, workers)
	printKeyed(out, rep, k)
	if !rep.Atomic() {
		return fmt.Errorf("trace is not %d-atomic (failing keys: %v)", k, rep.FailingKeys())
	}
	fmt.Fprintf(out, "trace: all %d keys are %d-atomic\n", len(rep.Keys), k)
	return nil
}

// runStream verifies a keyed trace straight from the input reader: memory
// stays bounded by the open segment windows and per-segment verdicts land
// while the input is still being consumed.
func runStream(args []string, k int, smallest bool, workers, horizon int, out io.Writer) error {
	in, err := openInput(args)
	if err != nil {
		return err
	}
	defer in.Close()
	sopts := kat.StreamOptions{Workers: workers, Horizon: horizon}

	if smallest {
		ks, stats, err := kat.StreamSmallestKByKey(in, kat.Options{}, sopts)
		if err != nil {
			return err
		}
		failed := printSmallestByKey(out, ks)
		printStreamStats(out, stats)
		if stats.SaturatedKeys > 0 {
			fmt.Fprintf(out, "note: %d key(s) exceeded the staleness horizon; their k is a lower bound (raise -horizon)\n",
				stats.SaturatedKeys)
		}
		return failed
	}

	rep, stats, err := kat.StreamCheckTrace(in, k, kat.Options{}, sopts)
	if err != nil {
		return err
	}
	printKeyed(out, rep, k)
	printStreamStats(out, stats)
	if !rep.Atomic() {
		return fmt.Errorf("trace is not %d-atomic (failing keys: %v)", k, rep.FailingKeys())
	}
	fmt.Fprintf(out, "trace: all %d keys are %d-atomic\n", len(rep.Keys), k)
	return nil
}

// runStreamVerdicts verifies every property (smallest k, smallest Δ,
// regularity/safety) per key in one streaming pass and prints the combined
// per-key verdicts.
func runStreamVerdicts(args []string, workers, horizon int, out io.Writer) error {
	in, err := openInput(args)
	if err != nil {
		return err
	}
	defer in.Close()
	sopts := kat.StreamOptions{Workers: workers, Horizon: horizon, Properties: kat.PropertySetAll}
	kvs, stats, err := kat.StreamVerdictsByKey(in, kat.Options{}, sopts)
	if err != nil {
		return err
	}
	var failing []string
	for _, kv := range kvs {
		if kv.Err != nil {
			failing = append(failing, kv.Key)
			fmt.Fprintf(out, "key %-12s %4d ops  error: %v\n", kv.Key, kv.Ops, kv.Err)
			continue
		}
		line := fmt.Sprintf("key %-12s %4d ops  smallest k: %d  smallest Δ: %d  irregular: %d  unsafe: %d",
			kv.Key, kv.Ops, max(1, kv.SmallestK), kv.SmallestDelta, kv.IrregularReads, kv.UnsafeReads)
		if kv.Saturated || kv.DeltaSaturated {
			line += "  (k and Δ are horizon floors)"
		}
		fmt.Fprintln(out, line)
	}
	printStreamStats(out, stats)
	if stats.SaturatedKeys > 0 {
		fmt.Fprintf(out, "note: %d key(s) exceeded the staleness horizon; their k and Δ are lower bounds (raise -horizon)\n",
			stats.SaturatedKeys)
	}
	if len(failing) > 0 {
		return fmt.Errorf("verification failed for keys: %v", failing)
	}
	return nil
}

// printSmallestByKey prints each key's smallest k in key order; the error
// names the keys that failed verification (k = 0).
func printSmallestByKey(out io.Writer, ks map[string]int) error {
	keys := make([]string, 0, len(ks))
	for key := range ks {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var failing []string
	for _, key := range keys {
		fmt.Fprintf(out, "key %-12s smallest k: %d\n", key, ks[key])
		if ks[key] == 0 {
			failing = append(failing, key)
		}
	}
	if len(failing) > 0 {
		return fmt.Errorf("smallest-k verification failed for keys: %v", failing)
	}
	return nil
}

func printKeyed(out io.Writer, rep kat.TraceReport, k int) {
	for _, kr := range rep.Keys {
		status := fmt.Sprintf("%d-atomic: %v", k, kr.Atomic)
		if kr.Err != nil {
			status = "error: " + kr.Err.Error()
		}
		fmt.Fprintf(out, "key %-12s %4d ops  %s\n", kr.Key, kr.Ops, status)
	}
}

func printStreamStats(out io.Writer, st kat.StreamStats) {
	fmt.Fprintf(out, "stream: %d ops over %d keys in %d segments (%d merged back), peak window %d ops, peak live %d ops\n",
		st.Ops, st.Keys, st.Segments, st.Merges, st.MaxOpenOps, st.PeakBufferedOps)
	if st.FirstVerdictOps > 0 && st.Ops > 0 {
		fmt.Fprintf(out, "stream: first verdict after %d ops (%.1f%% of input)\n",
			st.FirstVerdictOps, 100*float64(st.FirstVerdictOps)/float64(st.Ops))
	}
	if st.StaleReads > 0 {
		fmt.Fprintf(out, "stream: %d read(s) crossed dispatched segments\n", st.StaleReads)
	}
}

func readHistory(args []string, asJSON bool) (*kat.History, error) {
	in, err := openInput(args)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	if asJSON {
		data, err := io.ReadAll(in)
		if err != nil {
			return nil, err
		}
		var h kat.History
		if err := h.UnmarshalJSON(data); err != nil {
			return nil, err
		}
		return &h, nil
	}
	return kat.ParseReader(in)
}

func printWitness(out io.Writer, rep kat.Report) {
	fmt.Fprintln(out, "witness order:")
	for _, idx := range rep.Witness {
		fmt.Fprintf(out, "  %s\n", rep.Prepared.Op(idx))
	}
}

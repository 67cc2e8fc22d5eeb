//go:build linux

// Command bench is the repository's end-to-end benchmark: it drives a real
// kavserve (and the offline checker) as a child process over four workloads,
// prints four end-to-end metrics per workload, and in a separate traced run
// prints a per-layer stage budget. README.md in this directory is the manual.
//
//	go run ./bench -workload serve-wire-uniform -seed 1
//	go run ./bench -workload serve-wire-uniform -seed 1 -trace
//	go run ./bench -all [-record]
//	go run ./bench -agree
//
// Run it from the repository root: temporary data and spans.json go under
// bench/out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named number with its unit.
type metric struct {
	name, unit string
	value      float64
}

// e2eMetric describes one end-to-end metric; BENCHMARK.json repeats this
// table and a test keeps the two equal.
type e2eMetric struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // share of the median by which it may worsen
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"cpu_us_per_op", "us", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.2},
}

const (
	outDir = "bench/out"
	// Set-up is repeated, and the median pass reported, at least
	// minSetupPasses times and until setupSeconds of it have been timed: a
	// quarter-second set-up alone reads 25 % apart from run to run.
	minSetupPasses = 3
	maxSetupPasses = 10
	setupSeconds   = 2.0
	// A repetition is sized at about repSeconds on the recorded machine, so
	// -seconds buys seconds/repSeconds measured repetitions after the warm-up,
	// never fewer than minReps nor more than maxReps. The count comes from the
	// flag alone, never from how fast the run turns out: a slower commit is
	// summarised over as many repetitions as its parent.
	repSeconds = 3.0
	minReps    = 3
	maxReps    = 5
)

// measuredReps is the number of measured repetitions -seconds buys.
func measuredReps(seconds float64) int {
	return min(max(int(seconds/repSeconds), minReps), maxReps)
}

// options are the parent's flags, plus what only the tests set.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	corrupt bool
	div     int    // divides the workload sizes; 1 except in the tests' 1/100 smoke
	out     string // where temp dirs and spans.json go
}

// result is one run of one workload.
type result struct {
	workload   string
	attempted  int
	failed     int
	metrics    []metric
	mismatches []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.mismatches) == 0 }

func (r *result) value(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func main() {
	// Children are spawned from the main goroutine with a parent-death
	// signal, which the kernel ties to the spawning thread: keep that thread
	// the main one, which lives as long as the process.
	runtime.LockOSThread()
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(parentMain(os.Args[1:]))
}

func childMain(args []string) int {
	var err error
	switch {
	case len(args) > 0 && args[0] == "-serve":
		err = serveChild(args[1:])
	case len(args) > 0 && args[0] == "-check":
		err = checkChild(args[1:])
	default:
		err = fmt.Errorf("child mode wants -serve or -check, got %v", args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (see README.md)")
		seed    = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 15, "measured window: one repetition per 3 s of it (never fewer than 3, never more than 5)")
		trace   = fs.Bool("trace", false, "traced run: print the per-layer metrics and write spans.json instead of the end-to-end metrics")
		all     = fs.Bool("all", false, "run every workload, untraced then traced")
		agree   = fs.Bool("agree", false, "run two full untraced sets of the same tree and fail if any end-to-end metric differs by more than its bound")
		record  = fs.Bool("record", false, "with -all: append the results as one record to bench/trajectory.json")
		corrupt = fs.Bool("corrupt", false, "damage one input after set-up; the run must then report failed operations and exit non-zero")
	)
	if err := fs.Parse(normalizeTraceFlag(args)); err != nil {
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace, corrupt: *corrupt, div: 1, out: outDir}
	var err error
	switch {
	case *agree:
		err = runAgree(o)
	case *all:
		err = runAll(o, *record)
	default:
		var w workload
		if w, err = findWorkload(*name); err != nil {
			break
		}
		var r *result
		if r, err = runWorkload(w, o); err != nil {
			break
		}
		printResult(r)
		if !r.correct() {
			err = fmt.Errorf("%s: %d of %d operations failed", w.name, r.failed, r.attempted)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// normalizeTraceFlag lets -trace be given bare (a person) or with a separate
// 0/1 value (the pipeline's `--trace 0`), which the flag package would
// otherwise read as a positional argument.
func normalizeTraceFlag(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// runWorkload is one run: set-up, one discarded warm-up repetition that is
// checked against the offline oracle, then the measured repetitions
// (untraced) or the layer passes (traced).
func runWorkload(w workload, o options) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var in *inputs
	var setupS []float64
	for total := 0.0; len(setupS) < minSetupPasses || (total < setupSeconds && len(setupS) < maxSetupPasses); {
		in = nil
		runtime.GC()
		t0 := time.Now()
		if in, err = w.setup(o.seed, o.div, tmp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		total += setupS[len(setupS)-1]
		if o.trace {
			break // setup_s is an end-to-end metric; the traced run does not report it
		}
	}
	if o.corrupt {
		if err := corruptInput(w, in); err != nil {
			return nil, err
		}
	}

	res := &result{workload: w.name}
	warm, err := runRep(w, in, tmp, repOpts{})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	t0 := time.Now()
	badOps, mismatches := verify(w, in, warm)
	verifyS := time.Since(t0).Seconds()
	res.mismatches = mismatches
	res.attempted, res.failed = in.ops, max(badOps, warm.failed)

	if o.trace {
		lm, err := tracedRun(w, in, tmp, o)
		if err != nil {
			return nil, err
		}
		res.attempted += 2 * in.ops
		res.failed += lm.failed
		lm.set("bench.verify_s", verifyS)
		res.metrics = lm.list()
		return res, nil
	}

	var opsPerS, cpuUs, rss []float64
	for i := 1; i <= measuredReps(o.seconds); i++ {
		r, err := runRep(w, in, tmp, repOpts{})
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		opsPerS = append(opsPerS, float64(in.ops)/r.wallS)
		cpuUs = append(cpuUs, r.cpuS*1e6/float64(in.ops))
		rss = append(rss, r.rssMB)
		fmt.Fprintf(os.Stderr, "%s repetition %d: %.0f ops/s, ack p50 %.4f ms, %.4f us CPU/op, %.1f MB, drain %.0f ms\n",
			w.name, i, opsPerS[i-1], percentile(r.ackMs, 50), cpuUs[i-1], r.rssMB, r.drainMs)
		res.attempted += in.ops
		res.failed += r.failed
	}
	res.metrics = []metric{
		{"setup_s", "s", median(setupS)},
		{"ops_per_s", "1/s", median(opsPerS)},
		{"cpu_us_per_op", "us", median(cpuUs)},
		{"peak_rss_mb", "MB", median(rss)},
	}
	return res, nil
}

// corruptInput damages one unit of submission so that the program under
// test must refuse it: a flipped payload byte fails a wire frame's CRC, and
// a non-numeric timestamp fails the text parser.
func corruptInput(w workload, in *inputs) error {
	if w.offline {
		return os.WriteFile(in.files[0], []byte("w key-0000 1 zero 10\n"), 0o644)
	}
	b := &in.bodies[0][len(in.bodies[0])/2]
	if w.wire {
		b.data[len(b.data)/2] ^= 0x40
	} else {
		b.data = []byte("w key-0000 1 zero 10\n")
	}
	return nil
}

// printResult prints every metric by name with its unit and, as the last
// line, the JSON object the pipeline reads.
func printResult(r *result) {
	fmt.Printf("workload %s: %d operations attempted, %d failed\n", r.workload, r.attempted, r.failed)
	for i, m := range r.mismatches {
		if i == 10 {
			fmt.Printf("  ... and %d more mismatches\n", len(r.mismatches)-i)
			break
		}
		fmt.Printf("  MISMATCH %s\n", m)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jm{}
	for _, m := range r.metrics {
		fmt.Printf("  %-34s %16.4f %s\n", m.name, m.value, m.unit)
		metrics[m.name] = jm{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	fmt.Printf("%s\n", line)
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank percentile of v (not modified); 0 when v
// is empty.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(float64(len(s))*p/100+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// spansPath is where the traced run of a workload writes its spans.
func spansPath(out, workload string) string {
	return filepath.Join(out, workload+".spans.json")
}

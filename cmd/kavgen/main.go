// Command kavgen generates synthetic histories for testing k-atomicity
// checkers.
//
// Usage:
//
//	kavgen -kind katomic -ops 1000 -depth 1 -concurrency 4 > trace.txt
//	kavgen -kind random -ops 200 -seed 7 > fuzz.txt
//	kavgen -kind katomic -ops 500 -inject 0.3 -inject-depth 3 > stale.txt
//	kavgen -keys 64 -ops 1000 -depth 1 | kavcheck -k 2 -stream -
//	kavgen -keys 64 -ops 1000 -zipf 1.3 | kavcheck -k 2 -stream -workers 4 -
//	kavgen -keys 64 -ops 500 -replay http://localhost:8080 -clients 32 -drain
//
// With -keys N the output is a keyed multi-register trace, one generated
// register per key, serialized in operation arrival order — ready to pipe
// into the streaming verifier. -zipf s (s > 1) skews the per-key operation
// counts Zipfian while preserving the total, producing the hot-key traffic
// shape that exercises chunk-level (intra-key) parallel verification.
// -format wire serializes the same trace as binary wire frames instead of
// text (-frame-ops sizes the frames, -compress DEFLATEs the payloads; both
// are a usage error without -format wire or with -replay); kavcheck -stream
// and kavserve sniff the format, so binary traces drop into the same
// pipelines.
//
// With -churn N the keyspace itself churns: N key lifetimes are born at a
// fixed cadence, each lives -ops operations, then quiesces forever — the
// workload that exercises kavserve's quiescent-key retirement.
// -churn-pool P recycles P names so retired keys are reborn (re-admission
// path); -no-quiesce flips to the adversarial memory-pressure variant
// whose chain-overlapping intervals never quiesce:
//
//	kavgen -churn 10000 -ops 32 -churn-pool 64 > churn.txt
//	kavgen -churn 4 -ops 100000 -no-quiesce -replay http://localhost:8080
//
// With -replay URL the trace — generated with the flags above, or read from
// a positional file ("-" for stdin) — is replayed against a kavserve /ingest
// endpoint instead of printed: operations are partitioned over -clients
// concurrent connections by key hash (so each key's operations arrive in
// order from one connection, as the server requires), sent in -batch-ops
// acknowledged batches, optionally paced to an aggregate -rate operations
// per second. Transient failures (connection drops, 503 shedding) retry with
// exponential backoff and jitter, reconciling against /verdict so no op is
// ingested twice; -resume continues an interrupted replay the same way.
// -format wire posts each batch as one binary wire frame instead of text,
// halving (or better) the bytes on the wire and skipping the server-side
// parse.
// -drain then asks the server for final verdicts and prints them.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"kat"
)

// openInput resolves a trace-file argument: a path, or "-" for stdin.
func openInput(arg string) (io.ReadCloser, error) {
	if arg == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(arg)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kavgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kavgen", flag.ContinueOnError)
	var (
		kind        = fs.String("kind", "katomic", "generator: katomic|random|trap")
		ops         = fs.Int("ops", 100, "number of operations")
		chain       = fs.Int("chain", 100, "trap: staircase length")
		goods       = fs.Int("goods", 10, "trap: number of instantly-succeeding writes")
		seed        = fs.Int64("seed", 1, "PRNG seed")
		conc        = fs.Int("concurrency", 2, "approximate operation overlap")
		readFrac    = fs.Float64("read-fraction", 0.5, "fraction of reads")
		depth       = fs.Int("depth", 0, "staleness depth (katomic: history is depth+1-atomic)")
		forceDepth  = fs.Bool("force-depth", false, "force at least one read at exactly -depth")
		inject      = fs.Float64("inject", 0, "fraction of reads to redirect to older writes")
		injectDepth = fs.Int("inject-depth", 1, "how many writes back injected reads go")
		keys        = fs.Int("keys", 0, "emit a keyed trace with this many registers (-ops each), in arrival order")
		zipf        = fs.Float64("zipf", 0, "with -keys: skew the per-key operation counts Zipfian with this exponent (> 1; total ops stays keys*ops, rank-0 key hottest)")
		asJSON      = fs.Bool("json", false, "emit JSON instead of text")
		format      = fs.String("format", "text", "trace serialization, text|wire: with -keys or -churn, binary frames (kavcheck -stream and kavserve sniff the format); with -replay, each batch posted as one binary frame (Content-Type application/x-kav-wire)")
		frameOps    = fs.Int("frame-ops", 0, "with -format wire: operations per frame (0 = default)")
		compress    = fs.Bool("compress", false, "with -format wire: DEFLATE-compress frame payloads")
		replay      = fs.String("replay", "", "replay the trace against this kavserve base URL instead of printing it; a comma-separated URL list pre-routes per key hash across cluster member nodes (bypassing the router)")
		clients     = fs.Int("clients", 8, "with -replay: number of concurrent ingest connections")
		rate        = fs.Float64("rate", 0, "with -replay: aggregate operations per second (0 = unlimited)")
		drain       = fs.Bool("drain", false, "with -replay: drain the server afterwards and print its final verdicts")
		batchOps    = fs.Int("batch-ops", 512, "with -replay: operations per acknowledged ingest request; a key's next batch never leaves before the previous one is acked")
		retries     = fs.Int("retries", 8, "with -replay: attempts per batch before giving up (transient failures back off exponentially with jitter, honoring Retry-After)")
		resume      = fs.Bool("resume", false, "with -replay: reconcile against the server's /verdict first and skip per-key prefixes it already ingested (continue an interrupted replay)")
		churn       = fs.Int("churn", 0, "churn mode: emit a keyed trace of this many key lifetimes born at a fixed cadence, each living -ops operations and then quiescing forever (the keyspace-lifecycle workload)")
		churnPool   = fs.Int("churn-pool", 0, "with -churn: recycle this many key names round-robin, so retired names are later reborn and re-admitted (0 = fresh name per lifetime)")
		churnGap    = fs.Int64("churn-gap", 0, "with -churn: trace-time between lifetime births (0 = auto)")
		noQuiesce   = fs.Bool("no-quiesce", false, "with -churn: adversarial variant — chain-overlapping write intervals so keys never quiesce; a verifier without a memory budget grows without bound on this trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *zipf != 0 {
		if *keys <= 0 {
			return fmt.Errorf("-zipf requires -keys")
		}
		if *zipf <= 1 {
			return fmt.Errorf("-zipf exponent must be > 1, got %v", *zipf)
		}
	}
	if *format != "text" && *format != "wire" {
		return fmt.Errorf("unknown format %q (want text or wire)", *format)
	}
	if *format == "wire" && *replay == "" && *keys <= 0 && *churn <= 0 {
		return fmt.Errorf("-format wire requires -keys, -churn or -replay (binary frames carry keyed traces)")
	}
	if *format != "wire" || *replay != "" {
		var err error
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "frame-ops" || f.Name == "compress" {
				err = fmt.Errorf("-%s applies only to -format wire output, not to text or -replay", f.Name)
			}
		})
		if err != nil {
			return err
		}
	}
	if *churn > 0 && (*keys > 0 || *zipf != 0) {
		return fmt.Errorf("-churn and -keys/-zipf are mutually exclusive (churn shapes the keyspace itself)")
	}
	if *noQuiesce && *churn <= 0 {
		return fmt.Errorf("-no-quiesce requires -churn")
	}

	cfg := kat.GenConfig{
		Seed: *seed, Ops: *ops, Concurrency: *conc,
		ReadFraction: *readFrac, StalenessDepth: *depth, ForceDepth: *forceDepth,
	}
	generate := func(cfg kat.GenConfig) (*kat.History, error) {
		var h *kat.History
		switch *kind {
		case "katomic":
			h = kat.GenerateKAtomic(cfg)
		case "random":
			h = kat.GenerateRandom(cfg)
		case "trap":
			h = kat.GenerateLBTTrap(*chain, *goods)
		default:
			return nil, fmt.Errorf("unknown kind %q", *kind)
		}
		if *inject > 0 {
			h = kat.InjectStaleness(h, cfg.Seed+1, *inject, *injectDepth)
		}
		return h, nil
	}

	// genKeyed builds the multi-register trace: uniform per-key op counts by
	// default; -zipf skews them so the trace exercises the hot-key path of
	// the (key, chunk) scheduler.
	genKeyed := func() (*kat.Trace, error) {
		counts := make([]int, *keys)
		for i := range counts {
			counts[i] = *ops
		}
		if *zipf > 1 {
			counts = kat.ZipfKeyCounts(*seed, *keys, *keys**ops, *zipf)
		}
		tr := kat.NewTrace()
		for i := 0; i < *keys; i++ {
			if counts[i] == 0 {
				continue
			}
			kcfg := cfg
			kcfg.Seed = *seed + int64(i)
			kcfg.Ops = counts[i]
			h, err := generate(kcfg)
			if err != nil {
				return nil, err
			}
			for _, op := range h.Ops {
				tr.Add(fmt.Sprintf("key-%04d", i), op)
			}
		}
		return tr, nil
	}

	// genTrace resolves the keyed-trace source: -churn workload or the
	// uniform/Zipfian -keys registers.
	genTrace := func() (*kat.Trace, error) {
		if *churn > 0 {
			return kat.GenerateChurn(kat.ChurnConfig{
				Seed: *seed, Lifetimes: *churn, OpsPerLifetime: *ops,
				Concurrency: *conc, ReadFraction: *readFrac,
				NamePool: *churnPool, Gap: *churnGap, NoQuiesce: *noQuiesce,
			}), nil
		}
		return genKeyed()
	}

	if *replay != "" {
		if *asJSON {
			return fmt.Errorf("-replay and -json are mutually exclusive")
		}
		var text bytes.Buffer
		if fs.NArg() > 0 {
			in, err := openInput(fs.Args()[0])
			if err != nil {
				return err
			}
			defer in.Close()
			if _, err := io.Copy(&text, in); err != nil {
				return err
			}
		} else {
			if *keys <= 0 && *churn <= 0 {
				return fmt.Errorf("-replay needs -keys N or -churn N (generated trace) or a trace file argument")
			}
			tr, err := genTrace()
			if err != nil {
				return err
			}
			if err := kat.WriteTraceArrivalOrder(&text, tr); err != nil {
				return err
			}
		}
		return runReplay(*replay, text.Bytes(), replayOpts{
			clients:  *clients,
			rate:     *rate,
			drain:    *drain,
			batchOps: *batchOps,
			retries:  *retries,
			resume:   *resume,
			wire:     *format == "wire",
		}, out)
	}

	if *keys > 0 || *churn > 0 {
		if *asJSON {
			return fmt.Errorf("-keys/-churn and -json are mutually exclusive")
		}
		tr, err := genTrace()
		if err != nil {
			return err
		}
		if *format == "wire" {
			return kat.WriteTraceWireArrivalOrder(out, tr, *frameOps, *compress)
		}
		return kat.WriteTraceArrivalOrder(out, tr)
	}

	h, err := generate(cfg)
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := h.MarshalJSON()
		if err != nil {
			return err
		}
		_, err = out.Write(append(data, '\n'))
		return err
	}
	_, err = io.WriteString(out, h.String())
	return err
}

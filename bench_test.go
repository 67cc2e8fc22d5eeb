// Benchmarks backing the experiment tables kavbench prints. Each family
// corresponds to an experiment ID that kavbench -list names:
//
//	E2  BenchmarkLBTPractical      — LBT vs n at small c (Theorem 3.2)
//	E3  BenchmarkLBTConcurrency    — LBT vs c at fixed n (Theorem 3.2)
//	E4  BenchmarkFZF, BenchmarkCrossover — FZF quasilinear for any c (Theorem 4.6)
//	E1  BenchmarkOracleBaseline    — the exact decider as the naive baseline
//	E6  BenchmarkWAVReduction      — exact weighted solve of Figure 5 instances
//	E7  BenchmarkQuorumVerify      — end-to-end verification of simulated stores
//	E8  BenchmarkSmallestK         — smallest-k search
//	E10 BenchmarkAblationDeepening — LBT deepening on/off, benign + trap
//	E12 BenchmarkSmallestDelta     — smallest time-staleness (one prepare + summary search)
//	     BenchmarkZones1AV         — the k=1 zone test for reference
//	     BenchmarkTraceCheck       — multi-register locality dispatch
//	     BenchmarkBandwidth        — §VI GBW: RCM heuristic vs exact
//	     BenchmarkRegularity       — §I safety/regularity classification
//
// Hot-path families added with the zero-allocation engine (run with
// -benchmem; compare against BENCH_baseline.json via benchstat):
//
//	BenchmarkFZF                — one-shot FZF (allocates a fresh arena)
//	BenchmarkFZFScratch         — FZF over a reused arena (0 allocs/op)
//	BenchmarkVerifierReuse      — engine-level k=2 check incl. witness check
//	BenchmarkPrepare            — raw operations to Prepared on a warm Verifier
//	BenchmarkTraceParse         — streaming multi-register parser
//	BenchmarkTraceCheckParallel — 1000-key trace, workers=1 vs GOMAXPROCS
package kat_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kat/internal/bandwidth"
	"kat/internal/checkpoint"
	"kat/internal/faultfs"
	"kat/internal/fzf"
	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/lbt"
	"kat/internal/oracle"
	"kat/internal/quorum"
	"kat/internal/regularity"
	"kat/internal/trace"
	"kat/internal/wal"
	"kat/internal/wav"
	"kat/internal/wire"
	"kat/internal/zone"

	root "kat"
)

func mustPrepare(b *testing.B, h *history.History) *history.Prepared {
	b.Helper()
	p, err := history.Prepare(h)
	if err != nil {
		b.Fatalf("Prepare: %v", err)
	}
	return p
}

// E2: LBT across n at small fixed write concurrency (practical regime).
func BenchmarkLBTPractical(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000, 64000} {
		h := generator.KAtomic(generator.Config{
			Seed: 42, Ops: n, Concurrency: 4, StalenessDepth: 1, ReadFraction: 0.6,
		})
		p := mustPrepare(b, h)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := lbt.Check(p, lbt.Options{}); !res.Atomic {
					b.Fatal("rejected")
				}
			}
		})
	}
}

// E3: LBT across write concurrency c at fixed n (worst-case driver).
func BenchmarkLBTConcurrency(b *testing.B) {
	const n = 16000
	for _, c := range []int{2, 8, 32, 128, 512} {
		h := generator.Adversarial(generator.Config{Seed: 7, Ops: n, Concurrency: c})
		p := mustPrepare(b, h)
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := lbt.Check(p, lbt.Options{}); !res.Atomic {
					b.Fatal("rejected")
				}
			}
		})
	}
}

// E4: FZF across n and c — stays quasilinear regardless of c.
func BenchmarkFZF(b *testing.B) {
	for _, c := range []int{4, 256} {
		for _, n := range []int{1000, 4000, 16000, 64000} {
			h := generator.Adversarial(generator.Config{Seed: 11, Ops: n, Concurrency: c})
			p := mustPrepare(b, h)
			b.Run(fmt.Sprintf("c=%d/n=%d", c, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if res := fzf.Check(p); !res.Atomic {
						b.Fatal("rejected")
					}
				}
			})
		}
	}
}

// FZF over a reused Scratch arena: the zero-allocation hot path.
func BenchmarkFZFScratch(b *testing.B) {
	for _, c := range []int{4, 256} {
		for _, n := range []int{1000, 16000} {
			h := generator.Adversarial(generator.Config{Seed: 11, Ops: n, Concurrency: c})
			p := mustPrepare(b, h)
			s := fzf.NewScratch()
			fzf.CheckScratch(p, s) // grow buffers before timing
			b.Run(fmt.Sprintf("c=%d/n=%d", c, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if res := fzf.CheckScratch(p, s); !res.Atomic {
						b.Fatal("rejected")
					}
				}
			})
		}
	}
}

// Engine-level reuse: prepared-history k=2 check through a long-lived
// Verifier, including the internal witness re-validation.
func BenchmarkVerifierReuse(b *testing.B) {
	h := generator.KAtomic(generator.Config{
		Seed: 42, Ops: 4000, Concurrency: 4, StalenessDepth: 1, ReadFraction: 0.6,
	})
	p := mustPrepare(b, h)
	v := root.NewVerifier()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := v.CheckPrepared(p, 2, root.Options{})
		if err != nil || !rep.Atomic {
			b.Fatalf("CheckPrepared: %v %+v", err, rep)
		}
	}
}

// BenchmarkPrepare is the builder as the engines run it: each iteration
// copies one arrival-ordered history into a buffer it owns and has a warm
// Verifier normalize and prepare it there (0 allocs/op). n=64 is an online
// segment, n=4000 is BenchmarkVerifierReuse's history — `make benchcmp` holds
// this row to at most that one's time, "prepare costs no more than the check
// it prepares for" — and n=100000 an offline hot key. The n=4000/random and
// n=100000/random rows are the same histories with every written value drawn
// at random instead of from one dense span, the value table's worst input;
// they are recorded, not gated.
func BenchmarkPrepare(b *testing.B) {
	for _, n := range []int{64, 4000, 100000} {
		h := generator.KAtomic(generator.Config{
			Seed: 42, Ops: n, Concurrency: 4, StalenessDepth: 1, ReadFraction: 0.6,
		})
		h.SortByStart()
		benchPrepare(b, fmt.Sprintf("n=%d", n), h)
		if n < 4000 {
			continue
		}
		rng, random := rand.New(rand.NewSource(int64(n))), map[int64]int64{}
		for _, op := range h.Ops {
			if op.IsWrite() {
				random[op.Value] = int64(rng.Uint64())
			}
		}
		for i := range h.Ops {
			h.Ops[i].Value = random[h.Ops[i].Value]
		}
		benchPrepare(b, fmt.Sprintf("n=%d/random", n), h)
	}
}

// benchPrepare runs one BenchmarkPrepare row over the start-ordered h.
func benchPrepare(b *testing.B, name string, h *root.History) {
	own, v := h.Clone(), root.NewVerifier()
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(own.Ops, h.Ops)
			if _, err := v.PrepareOwned(own, false); err != nil {
				b.Fatalf("PrepareOwned: %v", err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(h.Len()), "ns/operation")
	})
}

// E4 (crossover view): LBT vs FZF side by side on the same inputs.
func BenchmarkCrossover(b *testing.B) {
	const n = 16000
	for _, c := range []int{4, 256} {
		h := generator.Adversarial(generator.Config{Seed: 13, Ops: n, Concurrency: c})
		p := mustPrepare(b, h)
		b.Run(fmt.Sprintf("lbt/c=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lbt.Check(p, lbt.Options{})
			}
		})
		b.Run(fmt.Sprintf("fzf/c=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fzf.Check(p)
			}
		})
	}
}

// Reference: the k=1 zone test (Gibbons–Korach).
func BenchmarkZones1AV(b *testing.B) {
	for _, n := range []int{1000, 16000, 64000} {
		h := generator.KAtomic(generator.Config{
			Seed: 3, Ops: n, Concurrency: 4, StalenessDepth: 0, ReadFraction: 0.6,
		})
		p := mustPrepare(b, h)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ok, _ := zone.Check1Atomic(p); !ok {
					b.Fatal("rejected")
				}
			}
		})
	}
}

// E1 baseline: the exact oracle on the same practical histories LBT/FZF
// handle — the naive-decider cost the polynomial algorithms remove.
func BenchmarkOracleBaseline(b *testing.B) {
	for _, n := range []int{250, 1000, 4000} {
		h := generator.KAtomic(generator.Config{
			Seed: 42, Ops: n, Concurrency: 4, StalenessDepth: 1, ReadFraction: 0.6,
		})
		p := mustPrepare(b, h)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := oracle.CheckK(p, 2, oracle.Options{})
				if err != nil || !res.Atomic {
					b.Fatalf("oracle: %v %+v", err, res)
				}
			}
		})
	}
}

// E6: exact weighted k-AV on Figure 5 reductions of growing item count.
func BenchmarkWAVReduction(b *testing.B) {
	for _, items := range []int{2, 4, 6, 8} {
		sizes := make([]int64, items)
		for i := range sizes {
			sizes[i] = int64(2 + i%3)
		}
		bp := wav.BinPacking{Sizes: sizes, Capacity: 6, Bins: 2}
		red, err := wav.Reduce(bp)
		if err != nil {
			b.Fatalf("Reduce: %v", err)
		}
		p := mustPrepare(b, red.History)
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := oracle.CheckWeighted(p, red.Bound, oracle.Options{}); err != nil {
					b.Fatalf("CheckWeighted: %v", err)
				}
			}
		})
	}
}

// E7: verification cost on histories from the quorum simulator.
func BenchmarkQuorumVerify(b *testing.B) {
	configs := []struct {
		name string
		cfg  quorum.Config
	}{
		{"strict-3-2-2", quorum.Config{Replicas: 3, ReadQuorum: 2, WriteQuorum: 2,
			Clients: 6, OpsPerClient: 40}},
		{"weak-5-1-1", quorum.Config{Replicas: 5, ReadQuorum: 1, WriteQuorum: 1,
			Clients: 6, OpsPerClient: 40, ClockSkew: 15}},
	}
	for _, tc := range configs {
		tc.cfg.Seed = 9
		h, _, err := quorum.Run(tc.cfg)
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
		p := mustPrepare(b, h)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fzf.Check(p)
			}
		})
	}
}

// E8: smallest-k search end to end (normalize + dispatch + the ladder: zones
// and FZF off one decomposition, then a climb from the forced-staleness
// bound).
func BenchmarkSmallestK(b *testing.B) {
	for _, depth := range []int{0, 1, 3} {
		h := generator.KAtomic(generator.Config{
			Seed: 17, Ops: 300, Concurrency: 2,
			StalenessDepth: depth, ForceDepth: true, ReadFraction: 0.5,
		})
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := root.SmallestK(h, root.Options{}); err != nil {
					b.Fatalf("SmallestK: %v", err)
				}
			}
		})
	}
	// The streaming engine's unit: one prepared 32-operation segment on a
	// worker's warm Verifier, a 1-atomic and a 2-atomic one in turn — the
	// ladder's polynomial rungs alone (one decomposition, the zone test, FZF's
	// verdict-only Stage 2), which must not allocate.
	b.Run("segment=32", func(b *testing.B) {
		var segs [2]*history.Prepared
		for depth := range segs {
			segs[depth] = mustPrepare(b, generator.KAtomic(generator.Config{
				Seed: 7, Ops: 32, Concurrency: 2, StalenessDepth: depth, ForceDepth: true, ReadFraction: 0.5,
			}))
		}
		v := root.NewVerifier()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if k, err := v.SmallestKPrepared(segs[i&1], root.Options{}); err != nil || k != 1+i&1 {
				b.Fatalf("SmallestKPrepared: k=%d, %v", k, err)
			}
		}
	})
	// The same unit when FZF rejects it: a 32-operation segment (no safe cut
	// inside) whose forced staleness is 3, as is the staleness of its
	// by-finish order, so the closed bracket settles it with no oracle call.
	b.Run("segment=k3", func(b *testing.B) {
		smallestKSegment(b, generator.Config{
			Seed: 2, Ops: 32, Concurrency: 3, StalenessDepth: 2, ForceDepth: true, ReadFraction: 0.5,
		}, 0)
	})
	// A 32-operation segment whose bracket stays open — forced staleness 3, a
	// by-finish order 4 stale — so the climb settles it with one exact-oracle
	// probe on the Verifier's warm oracle scratch.
	b.Run("segment=k3open", func(b *testing.B) {
		smallestKSegment(b, generator.Config{
			Seed: 22, Ops: 32, Concurrency: 3, StalenessDepth: 3, ForceDepth: true, ReadFraction: 0.5,
		}, 1)
	})
}

// smallestKSegment times SmallestKPrepared on a warm Verifier over the
// prepared history cfg generates, after checking it is 3-atomic in probes
// oracle calls.
func smallestKSegment(b *testing.B, cfg generator.Config, probes int) {
	p := mustPrepare(b, generator.KAtomic(cfg))
	v := root.NewVerifier()
	if k, err := v.SmallestKPrepared(p, root.Options{}); err != nil || k != 3 || v.TakeLadder().OracleProbes != probes {
		b.Fatalf("SmallestKPrepared: k=%d, %v; want 3 after %d oracle probes", k, err, probes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k, err := v.SmallestKPrepared(p, root.Options{}); err != nil || k != 3 {
			b.Fatalf("SmallestKPrepared: k=%d, %v", k, err)
		}
	}
}

// E10: LBT with iterative deepening disabled (the ablation). "benign" rows
// use generated adversarial-concurrency histories where deepening must be
// free; "trap" rows use the staircase construction with an adversarial
// candidate order, where plain Figure 2 LBT re-walks a long failing chain
// every epoch.
func BenchmarkAblationDeepening(b *testing.B) {
	type wl struct {
		name  string
		h     *history.History
		worst bool
	}
	wls := []wl{
		{"benign-c128", generator.Adversarial(generator.Config{Seed: 23, Ops: 16000, Concurrency: 128}), false},
		{"trap-1000", generator.LBTTrap(1000, 20), true},
		{"trap-4000", generator.LBTTrap(4000, 40), true},
	}
	for _, w := range wls {
		p := mustPrepare(b, w.h)
		b.Run("on/"+w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lbt.Check(p, lbt.Options{WorstCaseOrder: w.worst})
			}
		})
		b.Run("off/"+w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lbt.Check(p, lbt.Options{NoDeepening: true, WorstCaseOrder: w.worst})
			}
		})
	}
}

// Δ-atomicity: smallest time-staleness bound on histories of graded
// staleness — one normalize+prepare for the anomalies, then a binary search
// over the per-cluster summary, whose probes do not allocate (allocs/op is
// the same at depth 0, where no search runs, and at depth 2).
func BenchmarkSmallestDelta(b *testing.B) {
	for _, depth := range []int{0, 2} {
		h := generator.KAtomic(generator.Config{
			Seed: 29, Ops: 400, Concurrency: 3, StalenessDepth: depth, ReadFraction: 0.5,
		})
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := root.SmallestDelta(h); err != nil {
					b.Fatalf("SmallestDelta: %v", err)
				}
			}
		})
	}
}

// buildBigTrace assembles a production-shaped multi-key trace: keys
// registers of opsPerKey operations each.
func buildBigTrace(keys, opsPerKey int) *root.Trace {
	tr := root.NewTrace()
	for key := 0; key < keys; key++ {
		h := generator.KAtomic(generator.Config{
			Seed: int64(key), Ops: opsPerKey, Concurrency: 3, StalenessDepth: 1,
		})
		for _, op := range h.Ops {
			tr.Add(fmt.Sprintf("key-%04d", key), op)
		}
	}
	return tr
}

// Streaming multi-register parser throughput (1000 keys x 40 ops): the plain
// five-field lines, and the same trace with a client= attribute on every
// line, as a client-tagged log (and every durable server's own WAL of one)
// carries them. Both keep each key's lines together (Trace.String sorts by
// key); arrival is the plain trace in start order, keys interleaved as in a
// log, where grouping each block by key costs the most. zipf is the
// check-keyed workload's shape at a tenth of its size (zipfTrace) in arrival
// order; it has no baseline row, so the gate does not hold it. single is the
// other form of the format: one 40 000-operation register, no key column,
// through kat.ParseReader.
func BenchmarkTraceParse(b *testing.B) {
	plain := buildBigTrace(1000, 40)
	tagged := root.NewTrace()
	for key, h := range plain.Keys {
		for i, op := range h.Ops {
			op.Client = 1 + i%8
			tagged.Add(key, op)
		}
	}
	var arrival, zipf strings.Builder
	if err := root.WriteTraceArrivalOrder(&arrival, plain); err != nil {
		b.Fatal(err)
	}
	if err := root.WriteTraceArrivalOrder(&zipf, zipfTrace()); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		text string
	}{{"plain", plain.String()}, {"attrs", tagged.String()}, {"arrival", arrival.String()}, {"zipf", zipf.String()}} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(tc.text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := root.ParseTrace(tc.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	single := root.GenerateKAtomic(root.GenConfig{Seed: 1, Ops: 40000, Concurrency: 4, ReadFraction: 0.5, StalenessDepth: 1}).String()
	b.Run("single", func(b *testing.B) {
		b.SetBytes(int64(len(single)))
		b.ReportAllocs()
		r := strings.NewReader("")
		for i := 0; i < b.N; i++ {
			r.Reset(single)
			if _, err := root.ParseReader(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// zipfTrace is the check-keyed workload's shape at a tenth of its size: 64
// Zipf(1.2) keys, 40 000 operations, concurrency 4, depth 1, each key in
// start order as a log delivers it.
func zipfTrace() *root.Trace {
	tr := root.NewTrace()
	for key, n := range root.ZipfKeyCounts(1, 64, 40_000, 1.2) {
		h := generator.KAtomic(generator.Config{
			Seed: int64(1 + key), Ops: n, ReadFraction: 0.5,
			Concurrency: 4, StalenessDepth: 1, ForceDepth: true,
		})
		h.SortByStart()
		for _, op := range h.Ops {
			tr.Add(fmt.Sprintf("key-%04d", key), op)
		}
	}
	return tr
}

// Parallel multi-key verification on a 1000-key trace: workers=1 is the
// sequential path (one reused Verifier), workers=0 is GOMAXPROCS. Its keys
// are in generation order, not start order, and are cut like any other (each
// is one run: 40 operations are under the run floor). zipf
// (zipfTrace) runs on GOMAXPROCS workers, where the keys are cut at their
// safe cuts and the hot key's runs spread over the pool; its B/op is what the
// workers' scratch grows to. It has no baseline row, so the gate does not
// hold it.
func BenchmarkTraceCheckParallel(b *testing.B) {
	tr := buildBigTrace(1000, 40)
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=gomaxprocs", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep := root.CheckTraceParallel(tr, 2, root.Options{}, tc.workers)
				if !rep.Atomic() {
					b.Fatal("trace rejected")
				}
			}
		})
	}
	b.Run("zipf", func(b *testing.B) {
		zipf := zipfTrace()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := root.CheckTraceParallel(zipf, 2, root.Options{}, 0); !rep.Atomic() {
				b.Fatal("trace rejected")
			}
		}
	})
}

// Streaming verification of the same 1000-key trace the parallel benchmark
// uses, end to end from text: parse + segment + verify overlapped.
func BenchmarkStreamCheck(b *testing.B) {
	text := serializeByStart(buildBigTrace(1000, 40))
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _, err := root.StreamCheckTrace(strings.NewReader(text), 2, root.Options{},
			root.StreamOptions{})
		if err != nil || !rep.Atomic() {
			b.Fatalf("stream check: %v %v", err, rep.FailingKeys())
		}
	}
}

// heapPeak samples HeapAlloc on a ticker so benchmarks can report observed
// peak heap, not just allocation totals.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func sampleHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		var ms runtime.MemStats
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > h.peak {
					h.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return h
}

func (h *heapPeak) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

var stream1M struct {
	once sync.Once
	text string
}

// stream1MText lazily builds a 1M-operation, 100-key trace serialized in
// arrival order (~25 MB of text). Built once per process, only when the 1M
// benchmarks actually run.
func stream1MText() string {
	stream1M.once.Do(func() {
		tr := root.NewTrace()
		for key := 0; key < 100; key++ {
			h := generator.KAtomic(generator.Config{
				Seed: int64(key), Ops: 10_000, Concurrency: 3,
				StalenessDepth: 1, ReadFraction: 0.6,
			})
			for _, op := range h.Ops {
				tr.Add(fmt.Sprintf("key-%03d", key), op)
			}
		}
		stream1M.text = serializeByStart(tr)
	})
	return stream1M.text
}

// The headline streaming claim on a 1M-op trace: verdicts identical to the
// monolithic engine with peak memory bounded by the open windows. Both
// variants report sampled peak heap; the stream variant also reports its
// live-operation peak and the parse position of the first verdict.
func BenchmarkStream1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-op workload; skipped under -short (CI bench smoke)")
	}
	text := stream1MText()
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		b.ReportAllocs()
		var last root.StreamStats
		runtime.GC()
		hp := sampleHeapPeak()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, stats, err := root.StreamCheckTrace(strings.NewReader(text), 2,
				root.Options{}, root.StreamOptions{})
			if err != nil || !rep.Atomic() {
				b.Fatalf("stream check: %v %v", err, rep.FailingKeys())
			}
			last = stats
		}
		b.StopTimer()
		b.ReportMetric(float64(hp.finish())/(1<<20), "heap-peak-MB")
		b.ReportMetric(float64(last.PeakBufferedOps), "live-ops-peak")
		b.ReportMetric(float64(last.FirstVerdictOps)/float64(last.Ops), "first-verdict-frac")
	})
	b.Run("monolithic", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		b.ReportAllocs()
		runtime.GC()
		hp := sampleHeapPeak()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr, err := root.ParseTraceReader(strings.NewReader(text))
			if err != nil {
				b.Fatal(err)
			}
			if rep := root.CheckTraceParallel(tr, 2, root.Options{}, 0); !rep.Atomic() {
				b.Fatal("rejected")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(hp.finish())/(1<<20), "heap-peak-MB")
	})
}

// The multi-property headline: the marginal cost of verifying Δ-atomicity
// and regularity in the SAME streaming pass as smallest-k — one parse, one
// safe-cut segmentation, one shared pool, extra checkers per segment.
// props=k is the legacy single-property baseline; props=all adds Δ and
// regularity. The 16k-op rows feed the benchcmp regression gate (in a
// second pass at a low -benchtime: one iteration is a full streaming pass)
// and its same-run pair check, props=all <= 2.0x props=k: every checker
// reads the segment's one prepare, so the extras cost a summary and two
// linear scans. The 1M-op replay (the trace behind BenchmarkStream1M)
// records the headline numbers and is skipped under -short.
func BenchmarkMultiProperty(b *testing.B) {
	run := func(b *testing.B, text string, props root.PropertySet) {
		b.SetBytes(int64(len(text)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kvs, _, err := root.StreamVerdictsByKey(strings.NewReader(text),
				root.Options{}, root.StreamOptions{Workers: 4, Properties: props})
			if err != nil {
				b.Fatal(err)
			}
			for _, kv := range kvs {
				if kv.Err != nil {
					b.Fatalf("key %s: %v", kv.Key, kv.Err)
				}
			}
		}
	}
	tr := root.NewTrace()
	for key := 0; key < 16; key++ {
		h := generator.KAtomic(generator.Config{
			Seed: int64(key), Ops: 1000, Concurrency: 3,
			StalenessDepth: 1, ReadFraction: 0.6,
		})
		for _, op := range h.Ops {
			tr.Add(fmt.Sprintf("key-%02d", key), op)
		}
	}
	text := serializeByStart(tr)
	b.Run("props=k", func(b *testing.B) { run(b, text, root.PropertySetK) })
	b.Run("props=all", func(b *testing.B) { run(b, text, root.PropertySetAll) })
	b.Run("1M/props=k", func(b *testing.B) {
		if testing.Short() {
			b.Skip("1M-op workload; skipped under -short (CI bench smoke)")
		}
		run(b, stream1MText(), root.PropertySetK)
	})
	b.Run("1M/props=all", func(b *testing.B) {
		if testing.Short() {
			b.Skip("1M-op workload; skipped under -short (CI bench smoke)")
		}
		run(b, stream1MText(), root.PropertySetAll)
	})
}

// The hot-key headline: ONE register, 64k ops — the workload where key-level
// fan-out collapses to a single core. workers=1 is the sequential single-key
// path (CheckPreparedParallel delegates to the plain Verifier); workers=4
// fans the register's chunk (k=2) and safe-cut segment (smallest-k) units
// out over the shared pool. On a multi-core host the 4-worker rows
// show the intra-key speedup; verdicts are identical either way (proved by
// TestCheckPreparedParallelMatchesSequential and FuzzSchedulerEquivalence).
func BenchmarkHotKey(b *testing.B) {
	check := mustPrepare(b, generator.Adversarial(generator.Config{
		Seed: 21, Ops: 64000, Concurrency: 64,
	}))
	smallest := mustPrepare(b, generator.KAtomic(generator.Config{
		Seed: 22, Ops: 64000, Concurrency: 4, StalenessDepth: 1,
		ForceDepth: true, ReadFraction: 0.6,
	}))
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("check-k2/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := root.CheckPreparedParallel(check, 2, root.Options{}, workers)
				if err != nil || !rep.Atomic {
					b.Fatalf("check: %v %+v", err, rep)
				}
			}
		})
		b.Run(fmt.Sprintf("smallestk/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k, err := root.SmallestKPreparedParallel(smallest, root.Options{}, workers)
				if err != nil || k != 2 {
					b.Fatalf("smallestk: %v k=%d", err, k)
				}
			}
		})
	}
}

// Zipf-skewed streaming verification: 32 keys, 128k ops, exponent 1.3 —
// most traffic lands on a handful of hot keys, so worker counts beyond the
// key count only help if free workers claim chunk units across keys
// (exactly what the unified pool provides).
func BenchmarkStreamCheckZipf(b *testing.B) {
	const keys, opsPerKey = 32, 4000
	counts := root.ZipfKeyCounts(5, keys, keys*opsPerKey, 1.3)
	tr := root.NewTrace()
	for key := 0; key < keys; key++ {
		if counts[key] == 0 {
			continue
		}
		h := generator.KAtomic(generator.Config{
			Seed: int64(key), Ops: counts[key], Concurrency: 3,
			StalenessDepth: 1, ReadFraction: 0.6,
		})
		for _, op := range h.Ops {
			tr.Add(fmt.Sprintf("key-%04d", key), op)
		}
	}
	text := serializeByStart(tr)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, _, err := root.StreamCheckTrace(strings.NewReader(text), 2, root.Options{},
					root.StreamOptions{Workers: workers})
				if err != nil || !rep.Atomic() {
					b.Fatalf("stream check: %v %v", err, rep.FailingKeys())
				}
			}
		})
	}
}

// Multi-register verification throughput (locality dispatch over keys).
func BenchmarkTraceCheck(b *testing.B) {
	tr := root.NewTrace()
	for key := 0; key < 16; key++ {
		h := generator.KAtomic(generator.Config{
			Seed: int64(key), Ops: 200, Concurrency: 3, StalenessDepth: 1,
		})
		for _, op := range h.Ops {
			tr.Add(fmt.Sprintf("key-%02d", key), op)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := root.CheckTrace(tr, 2, root.Options{})
		if !rep.Atomic() {
			b.Fatal("trace rejected")
		}
	}
}

// Graph bandwidth on history interval graphs: RCM heuristic vs exact.
func BenchmarkBandwidth(b *testing.B) {
	h := generator.KAtomic(generator.Config{Seed: 31, Ops: 64, Concurrency: 4})
	g := bandwidth.FromHistory(h)
	b.Run("rcm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if g.Width(g.CuthillMcKee()) < 0 {
				b.Fatal("invalid layout")
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Bandwidth()
		}
	})
}

// Regularity/safety classification throughput.
func BenchmarkRegularity(b *testing.B) {
	h := generator.KAtomic(generator.Config{Seed: 37, Ops: 2000, Concurrency: 4, StalenessDepth: 1})
	p := mustPrepare(b, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regularity.Check(p)
	}
}

// BenchmarkOnlineIngest measures the session ingest path under concurrent
// producers (disjoint key sets, the documented routing contract) at varying
// batch sizes: batch=1 is the op-granular Append (one shard-lock take per
// operation), larger batches go through AppendBatch (shard-grouped, one
// lock take per shard per batch). locks/op reports ingest-path shard-lock
// acquisitions per operation — the serialization currency batch ingest
// shrinks ~batch-size×. On a single-CPU host the wall-clock win is bounded
// by the saved acquire/release overhead; on multi-core hosts the removed
// lock serialization is what lets producers scale.
func BenchmarkOnlineIngest(b *testing.B) {
	for _, producers := range []int{1, 4, 8} {
		for _, batch := range []int{1, 64, 512} {
			b.Run(fmt.Sprintf("producers=%d/batch=%d", producers, batch), func(b *testing.B) {
				sess, err := root.NewOnlineCheckSession(2, root.Options{},
					root.StreamOptions{Workers: 1, IngestShards: 16, MinSegmentOps: 128})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / producers
				for p := 0; p < producers; p++ {
					n := per
					if p == 0 {
						n += b.N - per*producers
					}
					wg.Add(1)
					go func(p, n int) {
						defer wg.Done()
						if err := onlineIngestFeed(sess, p, n, batch); err != nil {
							b.Error(err)
						}
					}(p, n)
				}
				wg.Wait()
				b.StopTimer()
				locks := sess.IngestLockAcquisitions()
				st := sess.Stats()
				if err := sess.Flush(); err != nil {
					b.Fatal(err)
				}
				if st.Ops != int64(b.N) {
					b.Fatalf("ingested %d ops, want %d", st.Ops, b.N)
				}
				b.ReportMetric(float64(locks)/float64(b.N), "locks/op")
			})
		}
	}
	// Durability rows: the same ingest workload with the write-ahead log
	// attached, one row per fsync policy, against real disk. Skipped under
	// -short so the benchcmp regression gate (which pins the in-memory rows
	// above against the committed baseline) is unaffected.
	for _, pol := range []struct {
		name   string
		policy wal.SyncPolicy
	}{{"never", wal.SyncNever}, {"batch", wal.SyncBatch}, {"always", wal.SyncAlways}} {
		b.Run(fmt.Sprintf("producers=4/batch=512/fsync=%s", pol.name), func(b *testing.B) {
			if testing.Short() {
				b.Skip("durability rows need real disk fsync; skipped under -short")
			}
			mgr, err := checkpoint.Open(faultfs.OS(), b.TempDir(), checkpoint.Config{Policy: pol.policy})
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			sess, err := root.NewOnlineCheckSession(2, root.Options{},
				root.StreamOptions{Workers: 1, IngestShards: 16, MinSegmentOps: 128})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mgr.Recover(sess); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			const producers, batch = 4, 512
			var wg sync.WaitGroup
			per := b.N / producers
			for p := 0; p < producers; p++ {
				n := per
				if p == 0 {
					n += b.N - per*producers
				}
				wg.Add(1)
				go func(p, n int) {
					defer wg.Done()
					if err := onlineIngestFeed(sess, p, n, batch); err != nil {
						b.Error(err)
					}
				}(p, n)
			}
			wg.Wait()
			b.StopTimer()
			ws := mgr.Stats().WAL
			if err := sess.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(ws.Fsyncs)/float64(b.N), "fsyncs/op")
			b.ReportMetric(float64(ws.Bytes)/float64(b.N), "walB/op")
		})
	}
	// Decode rows: the codec alone — raw request bytes to keyed operations,
	// no session downstream — text parse (one key-string allocation per
	// operation, plus a scanner per body) vs wire decode (dictionary-interned
	// keys, reused buffers). This is the work the binary format deletes from
	// every /ingest body; the codec= rows below then show the same comparison
	// with the shared shard-grouped feed attached.
	for _, codec := range []string{"text", "wire"} {
		b.Run(fmt.Sprintf("decode=%s/batch=512", codec), func(b *testing.B) {
			payloads, totalBytes := buildIngestPayloads(b, codec, b.N, 512)
			r := bytes.NewReader(nil)
			dec := wire.NewDecoder(r)
			batch := make([]root.KeyedOp, 0, 512)
			var ops int
			var sink int64
			b.ReportAllocs()
			b.ResetTimer()
			for _, p := range payloads {
				r.Reset(p)
				batch = batch[:0]
				if codec == "wire" {
					dec.Reset(r)
					for {
						frame, err := dec.Next()
						if err == io.EOF {
							break
						}
						if err != nil {
							b.Fatal(err)
						}
						batch = append(batch, frame...)
					}
				} else {
					err := trace.ParseStreamBytes(r, func(key []byte, op root.Operation) error {
						batch = append(batch, root.KeyedOp{Key: string(key), Op: op})
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				ops += len(batch)
				sink += batch[len(batch)-1].Op.Start
			}
			b.StopTimer()
			if ops != b.N {
				b.Fatalf("decoded %d ops, want %d (sink %d)", ops, b.N, sink)
			}
			b.ReportMetric(float64(totalBytes)/float64(b.N), "bodyB/op")
		})
	}
	// Full-path codec rows: the same bodies pushed through the session —
	// AppendTraceBatch vs AppendWire — so the decode saving is visible in
	// its end-to-end context (admission and segment accumulation included).
	// bodyB/op is the request-body bytes per operation, the wire format's
	// bandwidth saving.
	for _, codec := range []string{"text", "wire"} {
		b.Run(fmt.Sprintf("codec=%s/batch=512", codec), func(b *testing.B) {
			const batch = 512
			sess, err := root.NewOnlineCheckSession(2, root.Options{},
				root.StreamOptions{Workers: 1, IngestShards: 16, MinSegmentOps: 128})
			if err != nil {
				b.Fatal(err)
			}
			payloads, totalBytes := buildIngestPayloads(b, codec, b.N, batch)
			r := bytes.NewReader(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for _, p := range payloads {
				r.Reset(p)
				var err error
				if codec == "wire" {
					_, err = sess.AppendWire(r)
				} else {
					_, err = sess.AppendTraceBatch(r)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := sess.Stats()
			if err := sess.Flush(); err != nil {
				b.Fatal(err)
			}
			if st.Ops != int64(b.N) {
				b.Fatalf("ingested %d ops, want %d", st.Ops, b.N)
			}
			b.ReportMetric(float64(totalBytes)/float64(b.N), "bodyB/op")
		})
	}
}

// buildIngestPayloads serializes the staircase workload of onlineIngestFeed
// (single producer) into per-request bodies of `batch` operations each, in
// the given codec — keyed text lines, or one self-contained wire frame per
// body (each request is its own decode stream, as over HTTP).
func buildIngestPayloads(b *testing.B, codec string, n, batch int) ([][]byte, int64) {
	b.Helper()
	const keysPer = 4
	var keys [keysPer]string
	for i := range keys {
		keys[i] = fmt.Sprintf("p00-key-%d", i)
	}
	enc := wire.NewEncoder()
	enc.SetSelfContained(true)
	var payloads [][]byte
	var total int64
	var clock, val [keysPer]int64
	var text bytes.Buffer
	flush := func() {
		var body []byte
		if codec == "wire" {
			body = enc.AppendFrame(nil)
		} else {
			body = bytes.Clone(text.Bytes())
			text.Reset()
		}
		payloads = append(payloads, body)
		total += int64(len(body))
	}
	for i := 0; i < n; i++ {
		ki := i % keysPer
		var op root.Operation
		if i%(2*keysPer) < keysPer {
			val[ki]++
			op = root.Operation{Kind: root.KindWrite, Value: val[ki], Start: clock[ki], Finish: clock[ki] + 1}
		} else {
			op = root.Operation{Kind: root.KindRead, Value: val[ki], Start: clock[ki], Finish: clock[ki] + 1}
		}
		clock[ki] += 4
		if codec == "wire" {
			if err := enc.Add(keys[ki], op); err != nil {
				b.Fatal(err)
			}
		} else {
			kind := "w"
			if op.Kind == root.KindRead {
				kind = "r"
			}
			fmt.Fprintf(&text, "%s %s %d %d %d\n", kind, keys[ki], op.Value, op.Start, op.Finish)
		}
		if (i+1)%batch == 0 || i == n-1 {
			flush()
		}
	}
	return payloads, total
}

// onlineIngestFeed pushes n operations for producer p's four keys into the
// session, batch at a time (batch 1 uses the op-granular Append). The
// workload is a per-key write/read staircase with a quiescent gap after
// each pair, so segments close and verify continuously while ingest runs;
// values stay fresh per key, so the stream is valid forever.
func onlineIngestFeed(sess *root.OnlineSession, p, n, batch int) error {
	const keysPer = 4
	var keys [keysPer]string
	for i := range keys {
		keys[i] = fmt.Sprintf("p%02d-key-%d", p, i)
	}
	var clock, val [keysPer]int64
	buf := make([]root.KeyedOp, 0, batch)
	for i := 0; i < n; i++ {
		ki := i % keysPer
		var op root.Operation
		if i%(2*keysPer) < keysPer { // write round, then read round
			val[ki]++
			op = root.Operation{Kind: root.KindWrite, Value: val[ki], Start: clock[ki], Finish: clock[ki] + 1}
		} else {
			op = root.Operation{Kind: root.KindRead, Value: val[ki], Start: clock[ki], Finish: clock[ki] + 1}
		}
		clock[ki] += 4 // quiescent gap: every pair boundary is a legal cut
		if batch == 1 {
			if err := sess.Append(keys[ki], op); err != nil {
				return err
			}
			continue
		}
		buf = append(buf, root.KeyedOp{Key: keys[ki], Op: op})
		if len(buf) == batch {
			if _, err := sess.AppendBatch(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := sess.AppendBatch(buf)
	return err
}

// BenchmarkColdKeyIngest is the admission every BenchmarkOnlineIngest row
// misses: those rows feed four keys a producer, so the key's state and the
// tail of its window are in cache when the next operation arrives. Here 4 096
// keys take turns through AppendBatch in 512-operation batches into a
// smallest-k session (the kavserve default: 16 shards, 128-operation windows,
// horizon 256, so closed segments stay held), and an operation finds its key
// as cold as a service with many registers does. One iteration is one
// operation; held-B/op is what a buffered operation costs in memory when the
// feed stops (Session.BufferedBytes over BufferedOps). Run it at a benchtime
// that reaches a few hundred operations a key (-benchtime 2000000x) — fewer
// never close a window.
func BenchmarkColdKeyIngest(b *testing.B) {
	const nkeys, batch = 4096, 512
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	sess := root.NewOnlineSmallestKSession(root.Options{}, root.StreamOptions{Workers: 1})
	buf := make([]root.KeyedOp, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The same staircase as onlineIngestFeed, a round of writes over every
		// key and then a round of reads, on one clock across the keys.
		ki, round := i%nkeys, int64(i/nkeys)
		op := root.Operation{Kind: root.KindWrite, Value: round/2 + 1, Start: 4 * int64(i), Finish: 4*int64(i) + 1}
		if round%2 == 1 {
			op.Kind = root.KindRead
		}
		buf = append(buf, root.KeyedOp{Key: keys[ki], Op: op})
		if len(buf) == batch || i == b.N-1 {
			if _, err := sess.AppendBatch(buf); err != nil {
				b.Fatal(err)
			}
			buf = buf[:0]
		}
	}
	b.StopTimer()
	if ops := sess.BufferedOps(); ops > 0 {
		b.ReportMetric(float64(sess.BufferedBytes())/float64(ops), "held-B/op")
	}
	if err := sess.Flush(); err != nil {
		b.Fatal(err)
	}
	if st := sess.Stats(); st.Ops != int64(b.N) {
		b.Fatalf("ingested %d ops, want %d", st.Ops, b.N)
	}
}

// Churning-keyspace lifecycle: key lifetimes are born, live briefly, and
// quiesce forever, so without retirement the session's live state grows
// with every lifetime ever seen. One iteration replays the whole churn
// trace in arrival-order batches (batch boundaries are the arrival
// instants retirement sweeps key off of). Custom metrics: bytes-live/op
// is the session's settled live-heap footprint after the replay (double
// GC, so pools drain), retire-rate the fraction of lifetimes retired.
func BenchmarkChurningKeyspace(b *testing.B) {
	tr := root.GenerateChurn(root.ChurnConfig{Seed: 11, Lifetimes: 200, OpsPerLifetime: 24})
	var sb strings.Builder
	if err := root.WriteTraceArrivalOrder(&sb, tr); err != nil {
		b.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(sb.String(), "\n"), "\n")
	var chunks []string
	const chunkLines = 256
	for i := 0; i < len(lines); i += chunkLines {
		end := i + chunkLines
		if end > len(lines) {
			end = len(lines)
		}
		chunks = append(chunks, strings.Join(lines[i:end], ""))
	}
	totalOps := tr.Len()

	heapLive := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	for _, mode := range []struct {
		name string
		ttl  int64
	}{
		{"retire=off", 0},
		{"retire=on", 50},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var liveBytes, retired float64
			for i := 0; i < b.N; i++ {
				sopts := root.StreamOptions{Workers: 2, MinSegmentOps: 32, IngestShards: 4}
				if mode.ttl > 0 {
					sopts.RetireTTL = mode.ttl
					sopts.RetireSweepOps = 64
				}
				b.StopTimer()
				before := heapLive()
				b.StartTimer()
				sess := root.NewOnlineSmallestKSession(root.Options{}, sopts)
				for _, chunk := range chunks {
					if _, err := sess.AppendTraceBatch(strings.NewReader(chunk)); err != nil {
						b.Fatalf("ingest: %v", err)
					}
				}
				b.StopTimer()
				// Measure the settled footprint while the keyspace state is
				// still held, before the drain folds it away.
				delta := heapLive()
				if delta > before {
					liveBytes += float64(delta - before)
				}
				retired += float64(sess.Stats().RetiredKeys)
				runtime.KeepAlive(sess)
				if err := sess.Flush(); err != nil {
					b.Fatalf("flush: %v", err)
				}
				b.StartTimer()
			}
			b.ReportMetric(liveBytes/float64(b.N*totalOps), "bytes-live/op")
			b.ReportMetric(retired/float64(b.N*200), "retire-rate")
		})
	}
}

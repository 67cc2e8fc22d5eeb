package trace

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kat/internal/core"
	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/opbuf"
)

// churnTraceText renders a generator.Churn workload in arrival order.
func churnTraceText(cfg generator.ChurnConfig) string {
	tr := New()
	for _, ko := range generator.Churn(cfg) {
		tr.Add(ko.Key, ko.Op)
	}
	var b strings.Builder
	if err := WriteArrivalOrder(&b, tr); err != nil {
		panic(err)
	}
	return b.String()
}

// feedChunked feeds a text trace as a sequence of AppendTraceBatch calls of
// at most linesPer lines each. Ingest-path retirement measures idleness
// against the watermark at each batch's start, so batch boundaries are the
// arrival instants — a whole trace in one batch never retires anything.
func feedChunked(t *testing.T, s *Session, text string, linesPer int) {
	t.Helper()
	lines := strings.SplitAfter(strings.TrimSuffix(text, "\n"), "\n")
	for len(lines) > 0 {
		n := linesPer
		if n > len(lines) {
			n = len(lines)
		}
		chunk := strings.Join(lines[:n], "")
		lines = lines[n:]
		if _, err := s.AppendTraceBatch(strings.NewReader(chunk)); err != nil {
			t.Fatalf("feed chunk: %v", err)
		}
	}
}

// settleRetirements waits until every retirement the engine has committed is
// finalized or re-admitted (finalization is two-phase: the fold waits out
// in-flight segment verification, so after an asynchronous dispatch a sweep
// must run again). Used where a test needs a rebirth to land on a finalized
// retired record — i.e. to count as a re-admission deterministically.
func settleRetirements(t *testing.T, s *Session, ttl int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.Retirements == st.Readmissions+s.RetiredKeys() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("retirements never settled: %d marked, %d retired, %d readmitted",
				st.Retirements, s.RetiredKeys(), st.Readmissions)
		}
		if err := s.RetireIdle(ttl); err != nil {
			t.Fatalf("retire: %v", err)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// lifecycleOpts is the retirement-heavy configuration the tests use:
// sweep on every operation so eligibility means retirement.
func lifecycleOpts(ttl int64) StreamOptions {
	return StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 4,
		RetireTTL: ttl, RetireSweepOps: 1, Properties: PropertySetAll}
}

// compareSnapshots requires identical per-property verdicts between two
// drained sessions, ignoring only the Retired marker itself.
func compareSnapshots(t *testing.T, label string, want, got []KeyVerdict) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d keys vs %d", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Key != g.Key || w.Ops != g.Ops || (w.Err == nil) != (g.Err == nil) ||
			w.SmallestK != g.SmallestK || w.Saturated != g.Saturated ||
			w.SmallestDelta != g.SmallestDelta || w.DeltaSaturated != g.DeltaSaturated ||
			w.UnsafeReads != g.UnsafeReads || w.IrregularReads != g.IrregularReads {
			t.Fatalf("%s: key %s diverged:\nbaseline %+v\nlifecycle %+v", label, w.Key, w, g)
		}
	}
}

// TestRetireIdleAndReadmit walks the whole lifecycle deterministically:
// quiescence, retirement, the retired verdict surface, re-admission with
// the carried floor, and the final drained verdict.
func TestRetireIdleAndReadmit(t *testing.T) {
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 1})
	w := func(key string, v, start, fin int64) {
		t.Helper()
		if err := s.Append(key, history.Operation{Kind: history.KindWrite, Value: v, Start: start, Finish: fin}); err != nil {
			t.Fatalf("append %s %d: %v", key, v, err)
		}
	}
	w("a", 1, 0, 10)
	w("a", 2, 20, 30)
	// Advance the watermark far past a's last activity via another key.
	w("b", 1, 1000, 1010)
	// Retirement is two-phase: the sweep commits the cut and dispatches the
	// final segment; the fold to a retired record waits for the in-flight
	// verification to drain, so poll the sweep until it finalizes.
	deadline := time.Now().Add(5 * time.Second)
	for s.RetiredKeys() == 0 {
		if err := s.RetireIdle(100); err != nil {
			t.Fatalf("retire: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("retirement never finalized: %d retired", s.RetiredKeys())
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.RetiredKeys(); got != 1 {
		t.Fatalf("retired keys = %d, want 1 (a quiescent, b live)", got)
	}
	kv, ok := s.SnapshotKey("a")
	if !ok || !kv.Retired {
		t.Fatalf("snapshot of retired key: %+v ok=%v, want Retired", kv, ok)
	}
	if kv.Ops != 2 || kv.Err != nil {
		t.Fatalf("retired verdict carries wrong state: %+v", kv)
	}
	sum := s.RetiredSummary()
	if sum.Keys != 1 || sum.Ops != 2 || sum.Retirements != 1 {
		t.Fatalf("retired summary %+v, want 1 key / 2 ops / 1 retirement", sum)
	}
	// Re-admission: a new lifetime with fresh values, after the carried cut.
	w("a", 7, 2000, 2010)
	if got := s.RetiredKeys(); got != 0 {
		t.Fatalf("retired keys after re-admission = %d, want 0", got)
	}
	if st := s.Stats(); st.Readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1", st.Readmissions)
	}
	// The carried cut still enforces the arrival contract.
	err := s.Append("a", history.Operation{Kind: history.KindWrite, Value: 8, Start: 5, Finish: 6})
	if err == nil {
		t.Fatal("op at/before the carried committed cut accepted")
	}
}

// TestRetirementEquivalenceChurn replays churning keyspaces (with recycled
// names, so retirement AND re-admission both fire) through a lifecycle
// session and a never-retiring session and requires identical per-property
// verdicts — the segment-equivalence lemma applied to retirement's forced
// early cuts.
// The TTLs below are chosen so retirement cuts land only at whole-lifetime
// boundaries: Gap exceeds one lifetime's span (so a quiescent key's idle time
// against the watermark grows in Gap-sized jumps), and the TTL sits between
// the largest intra-lifetime idle gap (~one commit spacing) and the
// pool-recycling rebirth distance. Retirement at a point where a later read
// could still reference an already-freed value is the documented divergence
// (the value index is gone, so the read reports an anomaly instead of a
// staleness floor); the fuzz target filters those, this test avoids them.
func TestRetirementEquivalenceChurn(t *testing.T) {
	for _, tc := range []struct {
		cfg generator.ChurnConfig
		ttl int64
	}{
		{generator.ChurnConfig{Seed: 1, Lifetimes: 40, OpsPerLifetime: 12, NamePool: 5, Gap: 1000}, 500},
		{generator.ChurnConfig{Seed: 2, Lifetimes: 60, OpsPerLifetime: 8, NamePool: 3, Gap: 800, Concurrency: 2}, 400},
		{generator.ChurnConfig{Seed: 3, Lifetimes: 30, OpsPerLifetime: 16, ReadFraction: 0.7, Gap: 1200}, 600},
	} {
		cfg, ttl := tc.cfg, tc.ttl
		text := churnTraceText(cfg)
		base := NewSmallestKSession(core.Options{}, lifecycleOpts(0))
		life := NewSmallestKSession(core.Options{}, lifecycleOpts(ttl))
		for _, sess := range []*Session{base, life} {
			lines := strings.SplitAfter(strings.TrimSuffix(text, "\n"), "\n")
			for len(lines) > 0 {
				n := 7
				if n > len(lines) {
					n = len(lines)
				}
				chunk := strings.Join(lines[:n], "")
				lines = lines[n:]
				if _, err := sess.AppendTraceBatch(strings.NewReader(chunk)); err != nil {
					t.Fatalf("cfg %+v ttl %d: feed: %v", cfg, ttl, err)
				}
				if sess == life {
					settleRetirements(t, sess, ttl)
				}
			}
			if err := sess.Flush(); err != nil {
				t.Fatalf("cfg %+v ttl %d: flush: %v", cfg, ttl, err)
			}
		}
		st := life.Stats()
		if st.Retirements == 0 {
			t.Fatalf("cfg %+v ttl %d: no retirements — workload not exercising the lifecycle", cfg, ttl)
		}
		if cfg.NamePool > 0 && st.Readmissions == 0 {
			t.Fatalf("cfg %+v ttl %d: recycled names never re-admitted", cfg, ttl)
		}
		compareSnapshots(t, fmt.Sprintf("seed %d ttl %d", cfg.Seed, ttl),
			base.Snapshot(), life.Snapshot())
	}
}

// TestEpochWindows checks epoch attribution and the /verdict?epoch surface:
// every verified operation lands in exactly one window, windows carry the
// worst k observed inside them, and eviction folds old windows into the
// cumulative aggregate.
func TestEpochWindows(t *testing.T) {
	sopts := StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 1, EpochLength: 100}
	s := NewSmallestKSession(core.Options{}, sopts)
	var total int64
	for i := int64(0); i < 40; i++ {
		start := i * 25 // four ops per epoch window
		err := s.Append("k", history.Operation{Kind: history.KindWrite, Value: i + 1, Start: start, Finish: start + 5})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		total++
	}
	if ep, ok := s.CurrentEpoch(); !ok || ep != (39*25)/100 {
		t.Fatalf("current epoch = %d ok=%v, want %d", ep, ok, (39*25)/100)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	epochs := s.Epochs()
	if len(epochs) < 2 {
		t.Fatalf("expected multiple epoch windows, got %+v", epochs)
	}
	var sum int64
	for _, es := range epochs {
		sum += es.Ops
		if es.MaxK > 1 || es.Violations != 0 || es.Errors != 0 {
			t.Fatalf("sequential writes produced a dirty window: %+v", es)
		}
	}
	if sum != total {
		t.Fatalf("epoch windows cover %d ops, ingested %d", sum, total)
	}
	if _, ok := s.EpochSummary(epochs[0].Epoch); !ok {
		t.Fatalf("EpochSummary missed a listed epoch %d", epochs[0].Epoch)
	}
	if _, ok := s.EpochSummary(10_000); ok {
		t.Fatal("EpochSummary invented an unseen epoch")
	}
}

// TestEpochEviction drives more windows than the retain cap and expects the
// oldest to fold into the cumulative aggregate.
func TestEpochEviction(t *testing.T) {
	sopts := StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 1, EpochLength: 10}
	s := NewSmallestKSession(core.Options{}, sopts)
	s.e.epochT.retain = 3 // retainedEpochs is a constant; shrink it for the test
	for i := int64(0); i < 100; i++ {
		start := i * 10 // one op per window: far more windows than retained
		if err := s.Append("k", history.Operation{Kind: history.KindWrite, Value: i + 1, Start: start, Finish: start + 2}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	epochs := s.Epochs()
	if len(epochs) == 0 || !epochs[0].Folded {
		t.Fatalf("expected a folded aggregate first, got %+v", epochs)
	}
	if live := len(epochs) - 1; live > 3 {
		t.Fatalf("retained %d live windows, cap 3", live)
	}
	var sum int64
	for _, es := range epochs {
		sum += es.Ops
	}
	if sum != 100 {
		t.Fatalf("windows + aggregate cover %d ops, want 100", sum)
	}
	// An evicted epoch answers with the folded aggregate.
	es, ok := s.EpochSummary(0)
	if !ok || !es.Folded {
		t.Fatalf("evicted epoch lookup = %+v ok=%v, want folded aggregate", es, ok)
	}
}

// TestEpochWindowsFoldLaws: folding the same window summaries — members'
// folded aggregates, repeated epochs, live epochs at or below an aggregate —
// in every order gives one List, uncapped and at a shrunk cap alike; every
// live window in it lies above the aggregate, ascending, and no operation is
// lost.
func TestEpochWindowsFoldLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		in := make([]EpochStats, 1+rng.Intn(6))
		var ops int64
		for i := range in {
			in[i] = EpochStats{Epoch: rng.Int63n(8), Folded: rng.Intn(5) == 0, Ops: 1 + rng.Int63n(5),
				MaxK: rng.Intn(4), Violations: rng.Int63n(2)}
			ops += in[i].Ops
		}
		for _, retain := range []int{0, 2} {
			var want []EpochStats
			permute(in, len(in), func(order []EpochStats) {
				w := EpochWindows{retain: retain}
				for _, es := range order {
					w.Fold(es)
				}
				got := w.List()
				if want == nil {
					want = got
					checkWindows(t, got, retain, ops)
					for _, es := range got {
						if g, ok := w.Get(es.Epoch); !ok || g != es {
							t.Fatalf("Get(%d) = %+v %v, listed %+v", es.Epoch, g, ok, es)
						}
					}
				} else if !slices.Equal(got, want) {
					t.Fatalf("retain %d: folding %+v gives %+v, another order %+v", retain, order, got, want)
				}
			})
		}
	}
}

// permute calls f with every ordering of a[:n] (Heap's algorithm, in place).
func permute(a []EpochStats, n int, f func([]EpochStats)) {
	if n <= 1 {
		f(a)
		return
	}
	for i := 0; i < n; i++ {
		permute(a, n-1, f)
		j := 0
		if n%2 == 0 {
			j = i
		}
		a[j], a[n-1] = a[n-1], a[j]
	}
}

// checkWindows holds a List to the window shape: the aggregate, if any,
// first, then live windows ascending above it, at most retain of them when
// capped, covering ops operations in all.
func checkWindows(t *testing.T, l []EpochStats, retain int, ops int64) {
	t.Helper()
	floor, sum := int64(math.MinInt64), int64(0)
	for i, es := range l {
		sum += es.Ops
		if es.Folded {
			if i != 0 {
				t.Fatalf("aggregate listed at %d: %+v", i, l)
			}
			floor = es.Epoch
		} else if es.Epoch <= floor {
			t.Fatalf("live epoch %d not above %d: %+v", es.Epoch, floor, l)
		} else {
			floor = es.Epoch
		}
	}
	live := len(l)
	if live > 0 && l[0].Folded {
		live--
	}
	if retain > 0 && live > retain {
		t.Fatalf("%d live windows past cap %d: %+v", live, retain, l)
	}
	if sum != ops {
		t.Fatalf("windows cover %d ops, folded %d: %+v", sum, ops, l)
	}
}

// TestRetiredCheckpointRoundTrip checkpoints a session holding retired
// keys and epoch windows, restores it, and requires the lifecycle state —
// retired verdicts, carried cuts, counters, watermark, epochs — to survive,
// with the drained verdicts identical to an uninterrupted run.
func TestRetiredCheckpointRoundTrip(t *testing.T) {
	cfg := generator.ChurnConfig{Seed: 9, Lifetimes: 30, OpsPerLifetime: 10, NamePool: 4, Gap: 1000}
	text := churnTraceText(cfg)
	lines := strings.SplitAfter(strings.TrimSuffix(text, "\n"), "\n")
	cut := len(lines) / 2
	head, tail := strings.Join(lines[:cut], ""), strings.Join(lines[cut:], "")

	// Boundary-only TTL (see TestRetirementEquivalenceChurn): retirement
	// timing may differ between the interrupted and uninterrupted runs (the
	// sweep cadence restarts at the checkpoint), and only boundary cuts make
	// differently-timed retirements verdict-identical.
	sopts := lifecycleOpts(500)
	sopts.EpochLength = 2000

	want := NewSmallestKSession(core.Options{}, sopts)
	feedChunked(t, want, text, 11)
	if err := want.Flush(); err != nil {
		t.Fatal(err)
	}

	s1 := NewSmallestKSession(core.Options{}, sopts)
	feedChunked(t, s1, head, 11)
	cp, err := s1.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.RetiredKeys() > 0 && len(cp.Retired) == 0 {
		t.Fatal("checkpoint dropped retired records")
	}

	s2 := NewSmallestKSession(core.Options{}, sopts)
	if err := s2.RestoreCheckpoint(cp); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := s2.RetiredKeys(), s1.RetiredKeys(); got != want {
		t.Fatalf("restored retired keys = %d, want %d", got, want)
	}
	feedChunked(t, s2, tail, 11)
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	compareSnapshots(t, "restored", want.Snapshot(), s2.Snapshot())
	if w, g := want.Stats().Retirements, s2.Stats().Retirements; g == 0 && w > 0 {
		t.Fatalf("restored session lost retirement accounting: %d vs %d", g, w)
	}

	// Lifecycle config is part of the checkpoint contract.
	mismatched := NewSmallestKSession(core.Options{}, func() StreamOptions {
		o := lifecycleOpts(999)
		o.EpochLength = 2000
		return o
	}())
	if err := mismatched.RestoreCheckpoint(cp); err == nil {
		t.Fatal("retire-ttl mismatch accepted")
	}
	noEpochs := NewSmallestKSession(core.Options{}, lifecycleOpts(500))
	if err := noEpochs.RestoreCheckpoint(cp); err == nil {
		t.Fatal("epoch-length mismatch accepted")
	}
}

// TestChurnSoakHeapPlateau is the satellite soak test: a churning replay
// with retirement holds live heap near-flat while the same replay without
// retirement grows with every lifetime. Asserted on runtime.MemStats with
// generous factors so the test is about asymptotics, not allocator noise.
func TestChurnSoakHeapPlateau(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short")
	}
	cfg := generator.ChurnConfig{Seed: 4, Lifetimes: 4000, OpsPerLifetime: 24}
	text := churnTraceText(cfg)

	heapAfterGC := func() int64 {
		runtime.GC()
		runtime.GC() // twice: sync.Pool caches drain over two cycles
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	liveHeap := func(sopts StreamOptions) (int64, StreamStats) {
		before := heapAfterGC()
		s := NewSmallestKSession(core.Options{}, sopts)
		feedChunked(t, s, text, 512)
		if err := s.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		delta := heapAfterGC() - before // session still reachable here
		st := s.Stats()
		runtime.KeepAlive(s)
		return delta, st
	}

	off, _ := liveHeap(StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 4})
	on, st := liveHeap(StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 4,
		RetireTTL: 50, RetireSweepOps: 64})
	if st.RetiredKeys < int64(cfg.Lifetimes)*8/10 {
		t.Fatalf("retired-key gauge did not climb: %d of %d lifetimes retired",
			st.RetiredKeys, cfg.Lifetimes)
	}
	// The no-retirement run keeps full per-key state for every lifetime ever
	// born; the lifecycle run holds compact retired records. Require a
	// clear asymptotic gap, not just "smaller" (allocator noise).
	if on < 1 {
		on = 1 // GC noise can push a small footprint below zero
	}
	if off < 2*on {
		t.Fatalf("no heap plateau: retirement on %+dB, off %+dB (retired %d)",
			on, off, st.RetiredKeys)
	}
	t.Logf("live heap: retirement on %+dB, off %+dB (%.1fx), %d retirements",
		on, off, float64(off)/float64(on), st.Retirements)
}

// TestCheckpointFoldsFinishedRetirement freezes a session between the two
// phases of a retirement — the sweep has committed the key's final cut, the
// segment's verdict is still in flight — and requires the restored run to
// count what the uninterrupted run counts: the checkpoint writes the key as
// the retired record it is about to become, not as a live key the restored
// session retires a second time.
func TestCheckpointFoldsFinishedRetirement(t *testing.T) {
	pool := core.NewPool(1)
	defer pool.Close()
	sopts := StreamOptions{Pool: pool, MinSegmentOps: 1, IngestShards: 2}
	w := func(s *Session, key string, v, start int64) {
		t.Helper()
		if err := s.Append(key, history.Operation{Kind: history.KindWrite, Value: v, Start: start, Finish: start + 10}); err != nil {
			t.Fatalf("append %s %d: %v", key, v, err)
		}
	}
	s1 := NewSmallestKSession(core.Options{}, sopts)
	w(s1, "a", 1, 0)
	w(s1, "b", 1, 1000)
	// The pool's one worker is held, so a's final segment stays in flight
	// and the sweep can only run phase one.
	release := make(chan struct{})
	pool.Submit(func(*core.Verifier) { <-release })
	if err := s1.RetireIdle(100); err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.Retirements != 1 || st.RetiredKeys != 0 {
		t.Fatalf("before the checkpoint: %d retirements, %d retired keys, want phase one of one retirement", st.Retirements, st.RetiredKeys)
	}
	close(release)
	cp, err := s1.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSmallestKSession(core.Options{}, sopts)
	if err := s2.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Session{s1, s2} {
		w(s, "b", 2, 2000)
		if err := s.RetireIdle(100); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s2.Stats().Retirements, s1.Stats().Retirements; got != want || want != 1 {
		t.Fatalf("retirements: restored %d, uninterrupted %d, want 1 and 1", got, want)
	}
	if got, want := s2.RetiredSummary(), s1.RetiredSummary(); got != want || want.Keys != 1 {
		t.Fatalf("retired summary: restored %+v, uninterrupted %+v", got, want)
	}
}

// TestRelieveSpillsLargestFirst holds three runs of unequal size — an open
// window of three chunks, a held segment of two and an open window of one —
// and relieves toward shrinking targets: each call spills the largest runs
// still in memory and stops as soon as the buffered bytes are at its target.
func TestRelieveSpillsLargestFirst(t *testing.T) {
	store := newMemStore()
	sopts := StreamOptions{Workers: 1, IngestShards: 2, MinSegmentOps: 1, Horizon: 1000}
	var b strings.Builder
	for i := 0; i < 150; i++ { // overlapping: big's window never cuts
		fmt.Fprintf(&b, "w big %d %d %d\n", i+1, 10*i, 10*i+15)
	}
	for i := 0; i < 80; i++ { // closed by the quiescent write after it
		fmt.Fprintf(&b, "w mid %d %d %d\n", i+1, 10*i, 10*i+15)
	}
	b.WriteString("w mid 1000 2000 2001\n")
	resident := smallestKOf(t, b.String(), sopts)

	sopts.Store = store
	s := NewSmallestKSession(core.Options{}, sopts)
	if _, err := s.AppendTraceBatch(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	const chunk = opbuf.ChunkBytes
	if got := s.BufferedBytes(); got != 6*chunk {
		t.Fatalf("%d bytes buffered, want the three runs' six chunks", got)
	}
	for _, step := range []struct {
		target  int64
		spilled int64 // operations on disk after the call
		blobs   int
		chunks  int64 // still in memory
	}{
		{3 * chunk, 150, 1, 3}, // big alone reaches the target
		{1 * chunk, 230, 2, 1}, // then mid's segment
		{1 * chunk, 230, 2, 1}, // already there: nothing moves
		{0, 231, 3, 0},         // and last the smallest
	} {
		if err := s.Relieve(step.target); err != nil {
			t.Fatal(err)
		}
		if s.SpilledOps() != step.spilled || store.live() != step.blobs || s.BufferedBytes() != step.chunks*chunk {
			t.Fatalf("Relieve(%d): %d operations in %d blobs on disk, %d bytes in memory; want %d in %d, %d chunks",
				step.target, s.SpilledOps(), store.live(), s.BufferedBytes(), step.spilled, step.blobs, step.chunks)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.SmallestKByKey(); fmt.Sprint(got) != fmt.Sprint(resident) || store.live() != 0 {
		t.Fatalf("relieved run: %v with %d blobs left, resident %v", got, store.live(), resident)
	}
}

// TestRelieveRacingProducers relieves a session to nothing, over and over,
// while producers feed it, as a server's relief runs beside other requests:
// held runs spill and reload under the producers' feet, and the verdicts must
// still be the resident run's, with nothing left on disk.
func TestRelieveRacingProducers(t *testing.T) {
	var batches [][]KeyedOp
	var all []KeyedOp
	for p := 0; p < 4; p++ {
		ops := keyedOpsOf(t, genSessionTrace(int64(200+p), 3, 120))
		for i := range ops {
			ops[i].Key = fmt.Sprintf("p%d-%s", p, ops[i].Key)
		}
		batches = append(batches, ops)
		all = append(all, ops...)
	}
	sopts := StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 4}
	want := smallestKVia(t, sopts, func(s *Session) {
		if _, err := s.AppendBatch(all); err != nil {
			t.Fatal(err)
		}
	})
	store := newMemStore()
	sopts.Store = store
	s := NewSmallestKSession(core.Options{}, sopts)
	stop, relieved := make(chan struct{}), make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				relieved <- nil
				return
			default:
				if err := s.Relieve(0); err != nil {
					relieved <- err
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for _, ops := range batches {
		wg.Add(1)
		go func(ops []KeyedOp) {
			defer wg.Done()
			for off := 0; off < len(ops); off += 16 {
				if _, err := s.AppendBatch(ops[off:min(off+16, len(ops))]); err != nil {
					t.Error(err)
					return
				}
			}
		}(ops)
	}
	wg.Wait()
	close(stop)
	if err := <-relieved; err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, st := s.SmallestKByKey()
	if fmt.Sprint(got) != fmt.Sprint(want) || st.Spills == 0 || store.live() != 0 {
		t.Fatalf("relieved run: %v after %d spills, %d blobs left; resident %v", got, st.Spills, store.live(), want)
	}
}

package kat_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"kat"
	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/witness"
)

func TestQuickstartFlow(t *testing.T) {
	h := kat.MustParse("w 1 0 10; w 2 20 30; r 1 40 50")
	rep1, err := kat.Check(h, 1, kat.Options{})
	if err != nil {
		t.Fatalf("Check k=1: %v", err)
	}
	if rep1.Atomic {
		t.Error("stale read accepted at k=1")
	}
	rep2, err := kat.Check(h, 2, kat.Options{})
	if err != nil {
		t.Fatalf("Check k=2: %v", err)
	}
	if !rep2.Atomic {
		t.Error("1-stale read rejected at k=2")
	}
	if err := witness.Validate(rep2.Prepared, rep2.Witness, 2); err != nil {
		t.Errorf("witness: %v", err)
	}
	k, err := kat.SmallestK(h, kat.Options{})
	if err != nil || k != 2 {
		t.Errorf("SmallestK = %d, %v; want 2", k, err)
	}
}

func TestPublicGenerators(t *testing.T) {
	h := kat.GenerateKAtomic(kat.GenConfig{Seed: 1, Ops: 40, StalenessDepth: 1, Concurrency: 3})
	rep, err := kat.Check(h, 2, kat.Options{})
	if err != nil || !rep.Atomic {
		t.Fatalf("generated history: %v %+v", err, rep)
	}
	r := kat.GenerateRandom(kat.GenConfig{Seed: 2, Ops: 30, Concurrency: 4})
	if _, err := kat.Check(r, 2, kat.Options{}); err != nil {
		t.Fatalf("random history: %v", err)
	}
	mut := kat.InjectStaleness(h, 3, 0.5, 3)
	if mut.Len() != h.Len() {
		t.Error("InjectStaleness changed op count")
	}
}

func TestPublicQuorumPipeline(t *testing.T) {
	h, stats, err := kat.SimulateQuorum(kat.QuorumConfig{
		Seed: 7, Replicas: 3, ReadQuorum: 2, WriteQuorum: 2,
		Clients: 3, OpsPerClient: 10,
	})
	if err != nil {
		t.Fatalf("SimulateQuorum: %v", err)
	}
	if stats.CompletedWrites == 0 {
		t.Error("no completed writes")
	}
	if _, err := kat.SmallestK(h, kat.Options{}); err != nil {
		t.Fatalf("SmallestK on simulated history: %v", err)
	}
	dist := kat.SmallestKDistribution([]*kat.History{h}, kat.Options{})
	if dist.Total != 1 {
		t.Errorf("distribution total = %d", dist.Total)
	}
}

func TestPublicWeightedAndReduction(t *testing.T) {
	h := kat.MustParse("w 1 0 10 weight=2; w 2 20 30 weight=3; r 1 40 50")
	rep, err := kat.CheckWeighted(h, 5, kat.Options{})
	if err != nil {
		t.Fatalf("CheckWeighted: %v", err)
	}
	if !rep.Atomic {
		t.Error("bound 5 rejected separation 5")
	}
	bp := kat.BinPacking{Sizes: []int64{2, 2, 2}, Capacity: 3, Bins: 2}
	red, err := kat.ReduceBinPacking(bp)
	if err != nil {
		t.Fatalf("ReduceBinPacking: %v", err)
	}
	if red.Bound != 5 {
		t.Errorf("Bound = %d, want 5", red.Bound)
	}
	ok, err := kat.SolveBinPackingViaReduction(bp)
	if err != nil {
		t.Fatalf("SolveBinPackingViaReduction: %v", err)
	}
	if ok {
		t.Error("3x2 into two bins of 3 reported feasible")
	}
}

func TestPublicMinimize(t *testing.T) {
	h := kat.MustParse(`
w 1 0 10
w 2 20 30
w 3 40 50
r 1 60 70
w 9 100 110
r 9 120 130
`)
	min := kat.Minimize(h, func(c *kat.History) bool {
		rep, err := kat.Check(c, 2, kat.Options{})
		return err == nil && !rep.Atomic
	})
	if min.Len() != 4 {
		t.Errorf("minimized to %d ops, want 4:\n%s", min.Len(), min)
	}
}

func TestPublicAnomaliesAndStats(t *testing.T) {
	h := kat.MustParse("w 1 0 10; r 2 20 30")
	if _, err := kat.Check(h, 2, kat.Options{}); err == nil {
		t.Error("dangling read not reported")
	}
	st := kat.Measure(h)
	if st.Ops != 2 || st.Writes != 1 || st.Reads != 1 {
		t.Errorf("Measure = %+v", st)
	}
	n := kat.Normalize(kat.MustParse("w 1 0 10; w 2 10 20"))
	if _, err := kat.Prepare(n); err != nil {
		t.Errorf("Prepare after Normalize: %v", err)
	}
}

func TestPublicTraceAPI(t *testing.T) {
	tr, err := kat.ParseTrace("w x 1 0 10; r x 1 20 30; w y 1 5 15; w y 2 25 35; r y 1 45 55")
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	rep := kat.CheckTrace(tr, 1, kat.Options{})
	if rep.Atomic() {
		t.Error("trace with stale key accepted at k=1")
	}
	ks := kat.SmallestKByKey(tr, kat.Options{})
	if ks["x"] != 1 || ks["y"] != 2 {
		t.Errorf("SmallestKByKey = %v", ks)
	}
	k, key, ok := kat.WorstK(tr, kat.Options{})
	if !ok || k != 2 || key != "y" {
		t.Errorf("WorstK = %d,%q,%v", k, key, ok)
	}
}

func TestPublicDeltaAPI(t *testing.T) {
	h := kat.MustParse("w 1 0 10; w 2 20 30; r 1 40 50; r 2 60 70")
	ok, err := kat.CheckDelta(h, 0)
	if err != nil || ok {
		t.Errorf("CheckDelta(0) = %v, %v; want false", ok, err)
	}
	d, err := kat.SmallestDelta(h)
	if err != nil || d < 1 {
		t.Errorf("SmallestDelta = %d, %v; want >= 1", d, err)
	}
}

func TestPublicRendering(t *testing.T) {
	h := kat.MustParse("w 1 0 10; w 2 20 30; r 1 40 50")
	rep, err := kat.Check(h, 2, kat.Options{})
	if err != nil || !rep.Atomic {
		t.Fatalf("Check: %v %+v", err, rep)
	}
	var b strings.Builder
	if err := kat.RenderTimeline(&b, rep.Prepared, kat.RenderOptions{Witness: rep.Witness}); err != nil {
		t.Fatalf("RenderTimeline: %v", err)
	}
	if !strings.Contains(b.String(), "in witness") {
		t.Errorf("timeline missing witness annotations:\n%s", b.String())
	}
}

func TestPublicProperties(t *testing.T) {
	h := kat.MustParse("w 1 0 10; w 2 20 30; r 1 40 50")
	p, err := kat.Prepare(kat.Normalize(h))
	if err != nil {
		t.Fatal(err)
	}
	v := kat.CheckProperties(p)
	if v.Regular || v.Safe {
		t.Errorf("isolated stale read classified %s", v.Summary())
	}
	// Yet the same history is 2-atomic — Section I's point.
	rep, err := kat.Check(h, 2, kat.Options{})
	if err != nil || !rep.Atomic {
		t.Errorf("2-atomic check: %v %+v", err, rep)
	}
}

// TestStreamSharedPrepareAcrossProperties: a closed segment is renumbered,
// normalized and prepared once and every checker reads that one result. The
// trace below is built to make the sharing visible: timestamps are coarsened
// so that normalization has ties to break by operation ID, and every
// quiescent point closes a window (MinSegmentOps 1) so that stale reads merge
// earlier windows back — merged windows carry colliding window-local IDs.
// props=all, the three single-property runs and the offline checkers on the
// whole key history must all agree, and props=all must cost exactly one
// prepare per dispatched segment.
func TestStreamSharedPrepareAcrossProperties(t *testing.T) {
	tr := kat.NewTrace()
	for key := 0; key < 6; key++ {
		h := generator.KAtomic(generator.Config{
			Seed: int64(70 + key), Ops: 400, Concurrency: 1 + key%3,
			StalenessDepth: 1 + key%3, ReadFraction: 0.5,
		})
		for _, op := range h.Ops {
			op.Start, op.Finish = op.Start/4, op.Finish/4
			tr.Add(fmt.Sprintf("key-%d", key), op)
		}
	}
	text := serializeByStart(tr)
	tr, err := kat.ParseTraceReader(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}

	run := func(props kat.PropertySet) ([]kat.OnlineKeyVerdict, kat.StreamStats, int64) {
		var prepares atomic.Int64
		history.PrepareHook = func() { prepares.Add(1) }
		defer func() { history.PrepareHook = nil }()
		kvs, stats, err := kat.StreamVerdictsByKey(strings.NewReader(text), kat.Options{},
			kat.StreamOptions{Workers: 2, MinSegmentOps: 1, Properties: props})
		if err != nil {
			t.Fatalf("props=%s: %v", props, err)
		}
		return kvs, stats, prepares.Load()
	}
	all, stats, prepares := run(kat.PropertySetAll)
	if stats.Merges == 0 || stats.StaleReads != 0 {
		t.Fatalf("setup: %d merges, %d cross-boundary stale reads; want merges and no stale reads", stats.Merges, stats.StaleReads)
	}
	if prepares != stats.Segments {
		t.Errorf("props=all: %d prepares for %d dispatched segments, want one each", prepares, stats.Segments)
	}
	t.Logf("%d segments, %d merges, %d prepares", stats.Segments, stats.Merges, prepares)
	onlyK, _, _ := run(kat.PropertySetK)
	onlyDelta, _, _ := run(kat.PropertySetDelta)
	onlyReg, _, _ := run(kat.PropertySetRegularity)

	maxK, maxDelta, irregular := 0, int64(0), 0
	for i, kv := range all {
		if kv.Err != nil {
			t.Fatalf("key %s: %v", kv.Key, kv.Err)
		}
		if kv.SmallestK != onlyK[i].SmallestK || kv.SmallestK != onlyDelta[i].SmallestK || kv.SmallestK != onlyReg[i].SmallestK {
			t.Errorf("key %s: k = %d with props=all, %d/%d/%d in the single-property runs", kv.Key,
				kv.SmallestK, onlyK[i].SmallestK, onlyDelta[i].SmallestK, onlyReg[i].SmallestK)
		}
		if kv.SmallestDelta != onlyDelta[i].SmallestDelta {
			t.Errorf("key %s: Δ = %d with props=all, %d alone", kv.Key, kv.SmallestDelta, onlyDelta[i].SmallestDelta)
		}
		if kv.UnsafeReads != onlyReg[i].UnsafeReads || kv.IrregularReads != onlyReg[i].IrregularReads {
			t.Errorf("key %s: regularity %d/%d with props=all, %d/%d alone", kv.Key,
				kv.UnsafeReads, kv.IrregularReads, onlyReg[i].UnsafeReads, onlyReg[i].IrregularReads)
		}
		h := tr.Keys[kv.Key]
		wantK, err := kat.SmallestK(h, kat.Options{})
		if err != nil || kv.SmallestK != wantK {
			t.Errorf("key %s: k = %d, offline %d (%v)", kv.Key, kv.SmallestK, wantK, err)
		}
		wantDelta, err := kat.SmallestDelta(h)
		if err != nil || kv.SmallestDelta != wantDelta {
			t.Errorf("key %s: Δ = %d, offline %d (%v)", kv.Key, kv.SmallestDelta, wantDelta, err)
		}
		p, err := kat.Prepare(kat.Normalize(h))
		if err != nil {
			t.Fatal(err)
		}
		rv := kat.CheckProperties(p)
		if kv.UnsafeReads != len(rv.UnsafeReads) || kv.IrregularReads != len(rv.IrregularReads) {
			t.Errorf("key %s: regularity %d/%d, offline %d/%d", kv.Key,
				kv.UnsafeReads, kv.IrregularReads, len(rv.UnsafeReads), len(rv.IrregularReads))
		}
		maxK, maxDelta, irregular = max(maxK, kv.SmallestK), max(maxDelta, kv.SmallestDelta), irregular+kv.IrregularReads
	}
	if maxK < 3 || maxDelta == 0 || irregular == 0 {
		t.Errorf("setup: max k %d, max Δ %d, %d irregular reads; the trace exercises no search", maxK, maxDelta, irregular)
	}
}

// TestCheckTraceCustomIDsOutOfOrder hands the keyed checks a trace built by
// hand, not by Add or a parse: its IDs are not positions, its timestamps tie
// (the builder breaks a tie by ID, and an error names operations by their
// place after that) and its keys are out of start order (each shuffled inside
// its quiescent segments, so still cut). A key with a planted anomaly is
// checked as one run with its own IDs, so its error reads word for word as
// kat.Check's; the clean key agrees with kat.Check and kat.SmallestK too.
func TestCheckTraceCustomIDsOutOfOrder(t *testing.T) {
	keyed := func(seed int64, plant func(ops []history.Operation)) *kat.History {
		h := kat.GenerateKAtomic(kat.GenConfig{Seed: seed, Ops: 3_000, Concurrency: 3, StalenessDepth: 1, ReadFraction: 0.5})
		for i := range h.Ops { // widen every interval to multiples of 32
			op := &h.Ops[i]
			op.Start -= (op.Start%32 + 32) % 32
			op.Finish += (32 - op.Finish%32) % 32
		}
		h.SortByStart()
		plant(h.Ops)
		units, _ := new(history.PrepareScratch).SafeUnits(h.Ops, 1, nil)
		rng := rand.New(rand.NewSource(seed))
		for _, u := range units {
			run := h.Ops[u[0]:u[1]]
			rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
		}
		for i := range h.Ops {
			h.Ops[i].ID = 7_000 - 3*i
		}
		return h
	}
	lastWrite := func(ops []history.Operation) int {
		w := len(ops) - 1
		for !ops[w].IsWrite() {
			w--
		}
		return w
	}
	tr := kat.NewTrace()
	tr.Keys["clean"] = keyed(1, func([]history.Operation) {})
	tr.Keys["duplicate"] = keyed(2, func(ops []history.Operation) {
		ops[lastWrite(ops)].Value = ops[0].Value
	})
	tr.Keys["early-read"] = keyed(3, func(ops []history.Operation) {
		w := lastWrite(ops)
		for r := range ops {
			if ops[r].IsRead() && ops[r].Finish < ops[w].Start {
				ops[r].Value = ops[w].Value
				break
			}
		}
	})
	for key, h := range tr.Keys {
		if slices.IsSortedFunc(h.Ops, func(a, b history.Operation) int { return cmp.Compare(a.Start, b.Start) }) {
			t.Fatalf("key %s is in start order", key)
		}
	}
	for _, k := range []int{1, 2} {
		for _, workers := range []int{1, 2} {
			for _, kr := range kat.CheckTraceParallel(tr, k, kat.Options{}, workers).Keys {
				r, err := kat.Check(tr.Keys[kr.Key], k, kat.Options{})
				if kr.Atomic != (err == nil && r.Atomic) || fmt.Sprint(kr.Err) != fmt.Sprint(err) {
					t.Errorf("k=%d workers=%d key %s: atomic %v, error %v; kat.Check: atomic %v, error %v",
						k, workers, kr.Key, kr.Atomic, kr.Err, r.Atomic, err)
				}
				if (kr.Key == "clean") != (err == nil) {
					t.Errorf("key %s: error %v", kr.Key, err)
				}
			}
		}
	}
	for key, got := range kat.SmallestKByKeyParallel(tr, kat.Options{}, 2) {
		want, err := kat.SmallestK(tr.Keys[key], kat.Options{})
		if err != nil {
			want = 0
		}
		if got != want {
			t.Errorf("key %s: smallest k %d, kat.SmallestK %d", key, got, want)
		}
	}
}

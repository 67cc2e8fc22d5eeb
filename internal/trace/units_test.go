package trace

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"kat/internal/core"
	"kat/internal/generator"
	"kat/internal/history"
)

// startOrdered is a seeded (depth+1)-atomic register of n operations in
// start order, IDs their indices — the shape of a key read from a log.
func startOrdered(seed int64, n, concurrency, depth int) *history.History {
	h := generator.KAtomic(generator.Config{Seed: seed, Ops: n, Concurrency: concurrency, StalenessDepth: depth})
	h.SortByStart()
	return h
}

// wholeKeyReport is CheckParallel as it was before registers were cut: one
// Verifier.Check per key on the whole history.
func wholeKeyReport(tr *Trace, k int) Report {
	rep := Report{K: k}
	for _, key := range tr.SortedKeys() {
		h := tr.Keys[key]
		kr := KeyReport{Key: key, Ops: h.Len()}
		r, err := core.NewVerifier().Check(h, k, core.Options{})
		kr.Atomic, kr.Err = err == nil && r.Atomic, err
		rep.Keys = append(rep.Keys, kr)
	}
	return rep
}

// sameAsWholeKeys checks CheckParallel at k = 2 and SmallestKByKeyParallel
// against one whole-history check per key, at one and two workers.
func sameAsWholeKeys(t *testing.T, tr *Trace) {
	t.Helper()
	want := wholeKeyReport(tr, 2)
	for _, workers := range []int{1, 2} {
		reportsEqual(t, want, CheckParallel(tr, 2, core.Options{}, workers))
		got := SmallestKByKeyParallel(tr, core.Options{}, workers)
		for key, h := range tr.Keys {
			k, err := core.NewVerifier().SmallestK(h, core.Options{})
			if err != nil {
				k = 0
			}
			if got[key] != k {
				t.Errorf("workers=%d key %s: smallest k %d, whole key %d", workers, key, got[key], k)
			}
		}
	}
}

// units cuts h as the offline checks do.
func units(h *history.History) ([][2]int, bool) {
	return new(history.PrepareScratch).SafeUnits(h.Ops, DefaultMinSegmentOps, nil)
}

// TestCheckParallelScratchBoundedBySegment pins what cutting first buys: a
// hot key is prepared run by run, so no buffer grows to the key. Checked
// whole, one call on this key allocated 314 B per operation.
func TestCheckParallelScratchBoundedBySegment(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 200_000
	tr := New()
	tr.Keys["hot"] = startOrdered(1, n, 4, 1)
	if us, ok := units(tr.Keys["hot"]); !ok || len(us) < 100 {
		t.Fatalf("cut pass: %d runs, ok %v", len(us), ok)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := CheckParallel(tr, 2, core.Options{}, 2)
	runtime.ReadMemStats(&after)
	if !rep.Atomic() {
		t.Fatalf("2-atomic key rejected: %+v", rep.Keys)
	}
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f B/op", perOp)
	if perOp > 64 {
		t.Errorf("one check of a %d-operation key allocated %.1f B/op, want <= 64", n, perOp)
	}
}

// TestCheckParallelViolationInOneSegment plants violations deep inside a
// 100 000-operation key: a read three writes stale in a run between two big
// ones, then a write repeating a value 50 000 operations after its first
// write, which the cut pass declines, so the key is checked whole and
// reports the whole-key error text.
func TestCheckParallelViolationInOneSegment(t *testing.T) {
	a, c := startOrdered(2, 50_000, 4, 1), startOrdered(3, 50_000, 4, 1)
	ops := append([]history.Operation(nil), a.Ops...)
	shift := func(h *history.History, dt, dv int64) {
		for _, op := range h.Ops {
			op.Start, op.Finish, op.Value = op.Start+dt, op.Finish+dt, op.Value+dv
			ops = append(ops, op)
		}
	}
	base := int64(4 * 50_000)
	// w1 w2 w3 w4 r1: the read misses three newer writes, all before it.
	shift(history.MustParse("w 1 0 10; w 2 20 30; w 3 40 50; w 4 60 70; r 1 80 90"), base, 1_000_000)
	shift(c, base+1_000, 2_000_000)
	h := history.New(ops)
	for i := range h.Ops {
		h.Ops[i].ID = i
	}
	us, ok := units(h)
	if !ok || len(us) < 3 {
		t.Fatalf("cut pass: %d runs, ok %v", len(us), ok)
	}
	tr := New()
	tr.Keys["k"] = h
	rep := CheckParallel(tr, 2, core.Options{}, 2)
	if rep.Atomic() || rep.Keys[0].Err != nil {
		t.Fatalf("3-stale read not reported: %+v", rep.Keys[0])
	}
	if k := SmallestKByKeyParallel(tr, core.Options{}, 2)["k"]; k != 4 {
		t.Errorf("smallest k = %d, want 4", k)
	}
	sameAsWholeKeys(t, tr)

	// A duplicate value 50 000 operations from its first write.
	dup := h.Clone()
	first := -1
	for i, op := range dup.Ops {
		if op.IsWrite() && first < 0 {
			first = i
		}
		if op.IsWrite() && first >= 0 && i >= first+50_000 {
			dup.Ops[i].Value = dup.Ops[first].Value
			break
		}
	}
	tr.Keys["k"] = dup
	rep = CheckParallel(tr, 2, core.Options{}, 2)
	if rep.Keys[0].Err == nil {
		t.Fatalf("duplicate value not reported: %+v", rep.Keys[0])
	}
	sameAsWholeKeys(t, tr)
}

// TestCheckParallelUncutKeys covers the two shapes that are not cut: a key
// one write spans from end to end has no safe cut, and a key shuffled end to
// end out of start order has none of the operation set. Each is one run
// (which still forks its chunks) and reports what the whole-key check
// reports.
func TestCheckParallelUncutKeys(t *testing.T) {
	h := startOrdered(4, 5_000, 4, 2)
	spanned := history.New(append([]history.Operation{{Kind: history.KindWrite, Value: 1 << 40, Start: -1, Finish: 1 << 20}}, h.Ops...))
	for i := range spanned.Ops {
		spanned.Ops[i].ID = i
	}
	if us, ok := units(spanned); !ok || len(us) != 1 {
		t.Fatalf("spanned key: runs %v, ok %v", us, ok)
	}
	shuffled := h.Clone()
	rand.New(rand.NewSource(5)).Shuffle(shuffled.Len(), func(i, j int) {
		shuffled.Ops[i], shuffled.Ops[j] = shuffled.Ops[j], shuffled.Ops[i]
	})
	if us, ok := units(shuffled); !ok || len(us) != 1 {
		t.Fatalf("shuffled key: runs %v, ok %v", us, ok)
	}
	tr := New()
	tr.Keys["spanned"], tr.Keys["shuffled"], tr.Keys["plain"] = spanned, shuffled, h
	sameAsWholeKeys(t, tr)
	par := CheckParallel(tr, 3, core.Options{MinParallelOps: -1}, 2)
	reportsEqual(t, wholeKeyReport(tr, 3), par)
}

// TestCheckParallelCutsKeysOutOfOrder shuffles start-ordered keys inside each
// of their runs: the keys leave start order, but the cut pass cuts them at the
// same places, since a cut is one of the operation set, and the checks report
// what the whole-key check reports.
func TestCheckParallelCutsKeysOutOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := New()
	for i, depth := range []int{0, 1, 2} {
		h := startOrdered(int64(10+i), 6_000, 3, depth)
		want, _ := units(h)
		for _, u := range want {
			run := h.Ops[u[0]:u[1]]
			rng.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
		}
		got, ok := units(h)
		if !ok || len(want) < 10 || !slices.Equal(got, want) {
			t.Fatalf("depth %d: runs %v (ok %v) after the shuffle, %v before", depth, got, ok, want)
		}
		tr.Keys[fmt.Sprintf("key-%d", i)] = h
	}
	sameAsWholeKeys(t, tr)
	for _, k := range []int{1, 3} {
		reportsEqual(t, wholeKeyReport(tr, k), CheckParallel(tr, k, core.Options{}, 2))
	}
}

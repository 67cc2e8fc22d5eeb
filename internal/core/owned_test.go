package core

import (
	"slices"
	"testing"

	"kat/internal/generator"
	"kat/internal/history"
)

// The owned path is what the streaming engine runs per segment: one
// PrepareOwned into the Verifier's scratch, then the *Prepared entry points.

func checkOwned(v *Verifier, h *history.History, k int) (Report, error) {
	p, err := v.PrepareOwned(h, false)
	if err != nil {
		return Report{}, err
	}
	return v.CheckPrepared(p, k, Options{})
}

func smallestKOwned(v *Verifier, h *history.History) (int, error) {
	p, err := v.PrepareOwned(h, false)
	if err != nil {
		return 0, err
	}
	return v.SmallestKPrepared(p, Options{})
}

func scanOwned(v *Verifier, h *history.History) error {
	_, err := v.PrepareOwned(h, false)
	return err
}

func TestCheckOwnedMatchesCheck(t *testing.T) {
	v := NewVerifier()
	for seed := int64(0); seed < 15; seed++ {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 120, Concurrency: 1 + int(seed%4),
			StalenessDepth: int(seed % 3), ForceDepth: true,
		})
		for _, k := range []int{1, 2, 3} {
			want, err := v.Check(h, k, Options{})
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			got, err := checkOwned(v, h.Clone(), k)
			if err != nil {
				t.Fatalf("CheckOwned: %v", err)
			}
			if got.Atomic != want.Atomic {
				t.Fatalf("seed %d k=%d: CheckOwned=%v, Check=%v", seed, k, got.Atomic, want.Atomic)
			}
		}
	}
}

// SmallestK must agree with direct probes at k and k-1 now that the search
// starts from the forced-staleness lower bound — including deeply stale
// histories whose lower bound lands the search straight in oracle range.
func TestSmallestKOwnedDeepHistories(t *testing.T) {
	v := NewVerifier()
	for depth := 0; depth < 6; depth++ {
		h := generator.KAtomic(generator.Config{
			Seed: int64(depth), Ops: 80, Concurrency: 1,
			StalenessDepth: depth, ForceDepth: true, ReadFraction: 0.5,
		})
		k, err := smallestKOwned(v, h.Clone())
		if err != nil {
			t.Fatalf("SmallestKOwned: %v", err)
		}
		if want := depth + 1; k != want {
			t.Fatalf("depth %d: smallest k=%d, want %d", depth, k, want)
		}
		rep, err := v.Check(h, k, Options{})
		if err != nil || !rep.Atomic {
			t.Fatalf("depth %d: not atomic at its own smallest k=%d: %v", depth, k, err)
		}
		if k > 1 {
			below, err := v.Check(h, k-1, Options{})
			if err == nil && below.Atomic {
				t.Fatalf("depth %d: atomic below smallest k=%d", depth, k)
			}
		}
	}
}

func TestSmallestKOwnedMatchesSmallestK(t *testing.T) {
	v := NewVerifier()
	for seed := int64(0); seed < 20; seed++ {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 100, Concurrency: 1 + int(seed%5),
			StalenessDepth: int(seed % 4), ReadFraction: 0.6,
		})
		if seed%2 == 0 {
			h = generator.InjectStaleness(h, seed, 0.25, 1+int(seed%2))
		}
		want, err := v.SmallestK(h, Options{})
		if err != nil {
			t.Fatalf("SmallestK: %v", err)
		}
		got, err := smallestKOwned(v, h.Clone())
		if err != nil {
			t.Fatalf("SmallestKOwned: %v", err)
		}
		if got != want {
			t.Fatalf("seed %d: SmallestKOwned=%d, SmallestK=%d", seed, got, want)
		}
	}
}

func TestScanOwned(t *testing.T) {
	v := NewVerifier()
	if err := scanOwned(v, history.MustParse("w 1 0 10; r 1 20 30")); err != nil {
		t.Fatalf("clean history: %v", err)
	}
	if err := scanOwned(v, history.MustParse("w 1 0 10; r 2 20 30")); err == nil {
		t.Fatal("dangling read not reported")
	}
	// Scratch survives the error path.
	if err := scanOwned(v, history.MustParse("w 1 0 10")); err != nil {
		t.Fatalf("after error: %v", err)
	}
}

// arrivalOrdered returns an n-operation history as the engines receive one:
// raw timestamps, start order, IDs equal to indices.
func arrivalOrdered(n int) *history.History {
	h := generator.KAtomic(generator.Config{
		Seed: 42, Ops: n, Concurrency: 4, StalenessDepth: 1, ReadFraction: 0.6,
	})
	for i := range h.Ops { // spread the dense ranks: ties and long writes for the builder to repair
		h.Ops[i].Start, h.Ops[i].Finish = h.Ops[i].Start/3*5, h.Ops[i].Finish/3*5+4
	}
	h.SortByStart()
	return h
}

// TestPrepareOwnedSteadyStateAllocs pins the builder's promise to every
// engine: on a warm Verifier, normalizing and preparing a segment — online,
// PrepareOwned on the segment itself; offline, Check on the caller's history
// through the Verifier's own copy — allocates nothing.
func TestPrepareOwnedSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{64, 4096} {
		h := arrivalOrdered(n)
		own := h.Clone()
		v := NewVerifier()
		run := func() {
			copy(own.Ops, h.Ops)
			if _, err := v.PrepareOwned(own, false); err != nil {
				t.Fatalf("PrepareOwned: %v", err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("n=%d: steady-state PrepareOwned: %v allocs/op, want 0", n, allocs)
		}
	}
	h := arrivalOrdered(4096)
	v := NewVerifier()
	check := func() {
		if rep, err := v.Check(h, 2, Options{}); err != nil || !rep.Atomic {
			t.Fatalf("Check: %v %+v", err, rep)
		}
	}
	check()
	if allocs := testing.AllocsPerRun(10, check); allocs != 0 {
		t.Errorf("steady-state Verifier.Check: %v allocs/op, want 0", allocs)
	}
}

// TestVerifierCheckDoesNotMutateInput: Check and SmallestK prepare a copy in
// the Verifier's buffer, so the caller's operations — raw timestamps, order,
// IDs — are as they were, whichever form the builder takes.
func TestVerifierCheckDoesNotMutateInput(t *testing.T) {
	sorted := arrivalOrdered(300)
	shuffled := sorted.Clone()
	for i := range shuffled.Ops { // unsorted, IDs != indices: the general form
		j := (i * 7) % len(shuffled.Ops)
		shuffled.Ops[i], shuffled.Ops[j] = shuffled.Ops[j], shuffled.Ops[i]
	}
	anomalous := history.MustParse("w 1 0 10; r 2 5 20")
	v := NewVerifier()
	for name, h := range map[string]*history.History{"sorted": sorted, "shuffled": shuffled, "anomalous": anomalous} {
		before := h.Clone()
		rep, errCheck := v.Check(h, 2, Options{})
		_, errK := v.SmallestK(h, Options{})
		if (name == "anomalous") != (errCheck != nil) || (errCheck == nil) != (errK == nil) {
			t.Fatalf("%s: Check err %v, SmallestK err %v", name, errCheck, errK)
		}
		if !slices.Equal(h.Ops, before.Ops) {
			t.Errorf("%s: Verifier mutated its input", name)
		}
		if errCheck == nil && rep.Prepared.H == h {
			t.Errorf("%s: Report.Prepared aliases the caller's history", name)
		}
	}
}

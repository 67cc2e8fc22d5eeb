package core

import (
	"testing"

	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/witness"
)

// TestVerifierReuseZeroAlloc pins the engine-level guarantee: a reused
// Verifier runs a prepared-history k=2 check — including the internal
// witness re-validation — without allocating at steady state.
func TestVerifierReuseZeroAlloc(t *testing.T) {
	h := generator.KAtomic(generator.Config{
		Seed: 42, Ops: 1000, Concurrency: 4, StalenessDepth: 1, ReadFraction: 0.6,
	})
	p, err := history.Prepare(h)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	v := NewVerifier()
	if rep, err := v.CheckPrepared(p, 2, Options{}); err != nil || !rep.Atomic {
		t.Fatalf("warm-up: %v %+v", err, rep)
	}
	allocs := testing.AllocsPerRun(10, func() {
		rep, err := v.CheckPrepared(p, 2, Options{})
		if err != nil || !rep.Atomic {
			t.Fatalf("CheckPrepared: %v %+v", err, rep)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Verifier.CheckPrepared: %v allocs/op, want 0", allocs)
	}
}

// TestVerifierMatchesOneShot cross-checks a reused Verifier against a fresh
// one per call across k and history shapes.
func TestVerifierMatchesOneShot(t *testing.T) {
	v := NewVerifier()
	for seed := int64(0); seed < 10; seed++ {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 60, Concurrency: 2,
			StalenessDepth: int(seed % 3), ForceDepth: true, ReadFraction: 0.5,
		})
		for k := 1; k <= 3; k++ {
			want, errWant := NewVerifier().Check(h, k, Options{})
			got, errGot := v.Check(h, k, Options{})
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("seed %d k=%d: error mismatch: %v vs %v", seed, k, errWant, errGot)
			}
			if errWant == nil && want.Atomic != got.Atomic {
				t.Errorf("seed %d k=%d: one-shot %v, verifier %v", seed, k, want.Atomic, got.Atomic)
			}
		}
		want, errWant := NewVerifier().SmallestK(h, Options{})
		got, errGot := v.SmallestK(h, Options{})
		if (errWant == nil) != (errGot == nil) || want != got {
			t.Errorf("seed %d: SmallestK one-shot %d/%v, verifier %d/%v",
				seed, want, errWant, got, errGot)
		}
	}
}

// TestVerifierWitnessAliasing exercises the contract: a Report's Witness is
// valid until the next call on the same Verifier, after which only a copy
// taken beforehand is still trustworthy.
func TestVerifierWitnessAliasing(t *testing.T) {
	v := NewVerifier()
	mk := func(seed int64, ops int) *history.Prepared {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: ops, Concurrency: 3, StalenessDepth: 1, ReadFraction: 0.6,
		})
		p, err := history.Prepare(h)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2 := mk(7, 200), mk(8, 150)

	rep1, err := v.CheckPrepared(p1, 2, Options{})
	if err != nil || !rep1.Atomic {
		t.Fatalf("CheckPrepared(p1): %v %+v", err, rep1)
	}
	if len(rep1.Witness) != p1.Len() {
		t.Fatalf("witness covers %d of %d ops", len(rep1.Witness), p1.Len())
	}
	saved := append([]int(nil), rep1.Witness...)

	// Reuse the Verifier on a different history; rep1.Witness may now be
	// overwritten, but the copy must still prove p1 2-atomic.
	rep2, err := v.CheckPrepared(p2, 2, Options{})
	if err != nil || !rep2.Atomic {
		t.Fatalf("CheckPrepared(p2): %v %+v", err, rep2)
	}
	if len(rep2.Witness) != p2.Len() {
		t.Fatalf("second witness covers %d of %d ops", len(rep2.Witness), p2.Len())
	}
	if err := witness.Validate(p1, saved, 2); err != nil {
		t.Errorf("copied first witness no longer validates: %v", err)
	}
}

// TestSmallestKLadderZeroAlloc pins the per-segment cost of the streaming
// engine's hot call: on a warm Verifier the ladder's polynomial rungs — the
// zone test read off the chunk decomposition, the forced-staleness bound,
// FZF — settle a 32-operation segment out of the scratch arenas alone,
// whether it stops at the first rung (1-atomic) or the third (2-atomic).
func TestSmallestKLadderZeroAlloc(t *testing.T) {
	v := NewVerifier()
	for depth, wantK := range []int{1, 2} {
		h := generator.KAtomic(generator.Config{
			Seed: 7, Ops: 32, Concurrency: 2, StalenessDepth: depth, ForceDepth: true, ReadFraction: 0.5,
		})
		p, err := history.Prepare(h)
		if err != nil {
			t.Fatalf("depth %d: Prepare: %v", depth, err)
		}
		if k, err := v.SmallestKPrepared(p, Options{}); err != nil || k != wantK {
			t.Fatalf("depth %d: warm-up: smallest k %d, %v; want %d", depth, k, err, wantK)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if k, err := v.SmallestKPrepared(p, Options{}); err != nil || k != wantK {
				t.Fatalf("depth %d: smallest k %d, %v; want %d", depth, k, err, wantK)
			}
		})
		if allocs != 0 {
			t.Errorf("depth %d (smallest k %d): %v allocs/segment on a warm Verifier, want 0", depth, wantK, allocs)
		}
	}
}

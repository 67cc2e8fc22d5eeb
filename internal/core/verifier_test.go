package core

import (
	"testing"

	"kat/internal/delta"
	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/regularity"
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

// TestSmallestKLadderZeroAlloc: a warm Verifier settles a segment without
// allocating, whichever rung decides it — the zone test (k = 1), FZF (k = 2),
// or a climb the exact oracle accepts on its first probe (k = 3).
func TestSmallestKLadderZeroAlloc(t *testing.T) {
	v := NewVerifier()
	for _, c := range []struct {
		seed               int64
		conc, depth, wantK int
	}{{7, 2, 0, 1}, {7, 2, 1, 2}, {2, 3, 2, 3}} {
		h := generator.KAtomic(generator.Config{
			Seed: c.seed, Ops: 32, Concurrency: c.conc, StalenessDepth: c.depth, ForceDepth: true, ReadFraction: 0.5,
		})
		p, err := history.Prepare(h)
		if err != nil {
			t.Fatalf("k=%d: Prepare: %v", c.wantK, err)
		}
		if k, err := v.SmallestKPrepared(p, Options{}); err != nil || k != c.wantK || v.TakeLadder().OracleProbes > 1 {
			t.Fatalf("k=%d: warm-up: smallest k %d, %v; want %d in at most one oracle probe", c.wantK, k, err, c.wantK)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if k, err := v.SmallestKPrepared(p, Options{}); err != nil || k != c.wantK {
				t.Fatalf("k=%d: smallest k %d, %v", c.wantK, k, err)
			}
		})
		if allocs != 0 {
			t.Errorf("smallest k %d: %v allocs/segment on a warm Verifier, want 0", c.wantK, allocs)
		}
	}
}

// TestSegmentAllPropertiesZeroAlloc: a warm worker verifying a 512-operation
// depth-2 segment under k, delta and regularity — the build with its raw
// extremes, the Δ summary, the regularity sweep and the smallest-k ladder,
// split at the segment's safe cuts and climbing to oracle accepts on their
// first probes — allocates nothing.
func TestSegmentAllPropertiesZeroAlloc(t *testing.T) {
	h := generator.KAtomic(generator.Config{
		Seed: 1, Ops: 512, Concurrency: 3, StalenessDepth: 2, ForceDepth: true, ReadFraction: 0.5,
	})
	h.SortByStart() // as the engine closes a segment: in arrival order
	v := NewVerifier()
	verify := func() (k int, d int64, unsafe, irregular int) {
		own := v.Owned()
		own.Ops = append(own.Ops, h.Ops...)
		p, err := v.PrepareOwned(own, true)
		if err != nil {
			t.Fatalf("PrepareOwned: %v", err)
		}
		if d, err = v.SmallestDelta(p); err != nil {
			t.Fatalf("SmallestDelta: %v", err)
		}
		unsafe, irregular = v.Regularity(p)
		if k, err = v.SmallestKPrepared(p, Options{}); err != nil {
			t.Fatalf("SmallestKPrepared: %v", err)
		}
		return k, d, unsafe, irregular
	}
	k, d, unsafe, irregular := verify()
	p, err := history.Build(h)
	if err != nil {
		t.Fatal(err)
	}
	if l := v.TakeLadder(); k != 3 || l.Climb == 0 || l.OracleProbes != l.Climb || len(segmentsOf(p)) < 2 {
		t.Fatalf("k = %d, ladder %+v, %d segments: want k = 3 from climbs each accepted on its first probe, over several segments",
			k, l, len(segmentsOf(p)))
	}
	if want, err := delta.Smallest(h); err != nil || d != want {
		t.Fatalf("SmallestDelta = %d; delta.Smallest %d, %v", d, want, err)
	}
	if r := regularity.Check(p); unsafe != len(r.UnsafeReads) || irregular != len(r.IrregularReads) {
		t.Fatalf("Regularity = %d, %d; regularity.Check %s", unsafe, irregular, r.Summary())
	}
	allocs := testing.AllocsPerRun(10, func() {
		if k2, d2, u2, i2 := verify(); k2 != k || d2 != d || u2 != unsafe || i2 != irregular {
			t.Fatalf("second verification differs: %d %d %d %d", k2, d2, u2, i2)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per segment on a warm worker, want 0", allocs)
	}
}

package zone_test

import (
	"math/rand"
	"testing"

	"kat/internal/core"
	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/zone"
)

func prepare(t *testing.T, h *history.History) *history.Prepared {
	t.Helper()
	p, err := history.Prepare(history.Normalize(h))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return p
}

// segmentsAt splits the prepared history's operations at the given sorted
// cut positions into fresh sub-histories.
func segmentsAt(p *history.Prepared, cuts []int) []*history.History {
	bounds := append(append([]int{0}, cuts...), p.Len())
	var out []*history.History
	for i := 1; i < len(bounds); i++ {
		if bounds[i] > bounds[i-1] {
			out = append(out, history.New(p.H.Ops[bounds[i-1]:bounds[i]]))
		}
	}
	return out
}

// The second pass translates every prepared history so that all its times are
// negative (a strict Prepare keeps them as given): the answers must not move.
func TestCutsAgreeWithSafeCut(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 120, Concurrency: 1 + int(seed%4), StalenessDepth: int(seed % 3),
		})
		p := prepare(t, h)
		neg := p.H.Clone()
		for i := range neg.Ops {
			neg.Ops[i].Start -= 1 << 40
			neg.Ops[i].Finish -= 1 << 40
		}
		q, err := history.Prepare(neg)
		if err != nil {
			t.Fatalf("seed %d: translated Prepare: %v", seed, err)
		}
		for _, p := range []*history.Prepared{p, q} {
			cuts := zone.Cuts(p)
			ci := 0
			for i := 1; i < p.Len(); i++ {
				want := ci < len(cuts) && cuts[ci] == i
				if want {
					ci++
				}
				if got := zone.SafeCut(p, i); got != want {
					t.Fatalf("seed %d, first time %d: zone.SafeCut(%d)=%v, Cuts says %v", seed, p.Op(0).Start, i, got, want)
				}
			}
			if !zone.SafeCut(p, 0) || !zone.SafeCut(p, p.Len()) {
				t.Fatalf("seed %d: trivial cuts not safe", seed)
			}
		}
	}
	// The smallest case: every finish before the cut is negative.
	p, err := history.Prepare(history.MustParse("w 1 -20 -10; w 2 -5 -3"))
	if err != nil {
		t.Fatal(err)
	}
	if cuts := zone.Cuts(p); len(cuts) != 1 || cuts[0] != 1 || !zone.SafeCut(p, 1) {
		t.Fatalf("Cuts = %v, SafeCut(1) = %v; want [1], true", cuts, zone.SafeCut(p, 1))
	}
}

// TestCutsPreserveSmallestK is the segment-equivalence theorem checked
// directly: for any subset of safe cuts, the maximum smallest-k over the
// segments equals the smallest k of the whole history.
func TestCutsPreserveSmallestK(t *testing.T) {
	v := core.NewVerifier()
	for seed := int64(0); seed < 25; seed++ {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 90, Concurrency: 1 + int(seed%3),
			StalenessDepth: int(seed % 4), ForceDepth: true, ReadFraction: 0.6,
		})
		if seed%2 == 1 {
			h = generator.InjectStaleness(h, seed, 0.2, 1+int(seed%2))
		}
		p := prepare(t, h)
		whole, err := v.SmallestKPrepared(p, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: SmallestKPrepared: %v", seed, err)
		}
		cuts := zone.Cuts(p)
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 4; trial++ {
			var subset []int
			for _, c := range cuts {
				if trial == 0 || rng.Intn(2) == 0 { // trial 0: every cut
					subset = append(subset, c)
				}
			}
			maxK := 1
			for _, seg := range segmentsAt(p, subset) {
				k, err := v.SmallestK(seg, core.Options{})
				if err != nil {
					t.Fatalf("seed %d: segment SmallestK: %v", seed, err)
				}
				if k > maxK {
					maxK = k
				}
			}
			if maxK != whole {
				t.Fatalf("seed %d trial %d: max segment k=%d, whole k=%d (cuts %v of %v)",
					seed, trial, maxK, whole, subset, cuts)
			}
		}
	}
}

// TestCutsPreserveCheck verifies the fixed-k direction on both atomic and
// violating histories.
func TestCutsPreserveCheck(t *testing.T) {
	v := core.NewVerifier()
	for seed := int64(0); seed < 20; seed++ {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 80, Concurrency: 2, StalenessDepth: int(seed % 3), ForceDepth: true,
		})
		p := prepare(t, h)
		for _, k := range []int{1, 2, 3} {
			whole, err := v.CheckPrepared(p, k, core.Options{})
			if err != nil {
				t.Fatalf("seed %d: CheckPrepared: %v", seed, err)
			}
			all := true
			for _, seg := range segmentsAt(p, zone.Cuts(p)) {
				rep, err := v.Check(seg, k, core.Options{})
				if err != nil {
					t.Fatalf("seed %d: segment Check: %v", seed, err)
				}
				all = all && rep.Atomic
			}
			if all != whole.Atomic {
				t.Fatalf("seed %d k=%d: segments atomic=%v, whole=%v", seed, k, all, whole.Atomic)
			}
		}
	}
}

// A cut may never bisect a chunk of the FZF decomposition: every chunk's
// operations lie strictly on one side of every safe cut.
func TestCutsRespectChunks(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h := generator.Adversarial(generator.Config{Seed: seed, Ops: 150, Concurrency: 6})
		p := prepare(t, h)
		cuts := zone.Cuts(p)
		if len(cuts) == 0 {
			continue
		}
		dec := zone.Decompose(p)
		for _, c := range cuts {
			cutTime := p.Op(c).Start
			for _, ch := range dec.Chunks {
				if ch.Lo < cutTime && cutTime < ch.Hi {
					t.Fatalf("seed %d: cut %d (t=%d) bisects chunk [%d,%d]",
						seed, c, cutTime, ch.Lo, ch.Hi)
				}
			}
		}
	}
}

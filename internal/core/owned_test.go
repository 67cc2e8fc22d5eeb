package core

import (
	"testing"

	"kat/internal/generator"
	"kat/internal/history"
)

// The owned path is what the streaming engine runs per segment: one
// PrepareOwned into the Verifier's scratch, then the *Prepared entry points.

func checkOwned(v *Verifier, h *history.History, k int) (Report, error) {
	p, err := v.PrepareOwned(h)
	if err != nil {
		return Report{}, err
	}
	return v.CheckPrepared(p, k, Options{})
}

func smallestKOwned(v *Verifier, h *history.History) (int, error) {
	p, err := v.PrepareOwned(h)
	if err != nil {
		return 0, err
	}
	return v.SmallestKPrepared(p, Options{})
}

func scanOwned(v *Verifier, h *history.History) error {
	_, err := v.PrepareOwned(h)
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

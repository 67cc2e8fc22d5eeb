package core

import (
	"fmt"
	"math/bits"
	"testing"

	"kat/internal/fzf"
	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/oracle"
	"kat/internal/refcheck"
	"kat/internal/zone"
)

// refSmallestKTopDown is the search SmallestKPrepared used before it climbed
// from the lower bound: verify the cap (the number of writes), then bisect
// [max(3, lb), cap]. Kept as the reference the climbing search is tested
// against.
func refSmallestKTopDown(p *history.Prepared, opts Options) (int, error) {
	if p.Len() == 0 {
		return 1, nil
	}
	if ok, _ := zone.Check1Atomic(p); ok {
		return 1, nil
	}
	lb := history.ForcedStaleness(p)
	if lb <= 2 && fzf.Check(p).Atomic {
		return 2, nil
	}
	lo := max(3, lb)
	hi := max(lo, p.H.Writes())
	res, err := oracle.CheckK(p, hi, oracle.Options{MaxStates: opts.OracleStates})
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	if !res.Atomic {
		return 0, fmt.Errorf("core: history not even %d-atomic", hi)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		res, err := oracle.CheckK(p, mid, oracle.Options{MaxStates: opts.OracleStates})
		if err != nil {
			return 0, fmt.Errorf("core: %w", err)
		}
		if res.Atomic {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// TestSmallestKClimbMatchesTopDown: the bottom-up search returns what the
// top-down one did across staleness depths 0–6 and concurrency 1–4, and
// spends exactly one oracle call when the answer is the forced-staleness
// lower bound (none at all below 3, where zones and FZF decide) and at most
// 2·⌈log2(g+1)⌉ when it sits g above it.
func TestSmallestKClimbMatchesTopDown(t *testing.T) {
	v := NewVerifier()
	pinned, above := 0, 0
	for depth := 0; depth <= 6; depth++ {
		for conc := 1; conc <= 4; conc++ {
			for seed := int64(0); seed < 3; seed++ {
				h := generator.KAtomic(generator.Config{
					Seed: seed + int64(10*depth+conc), Ops: 90, Concurrency: conc,
					StalenessDepth: depth, ForceDepth: seed == 0, ReadFraction: 0.5,
				})
				p, err := history.Prepare(history.Normalize(h))
				if err != nil {
					t.Fatalf("Prepare: %v", err)
				}
				want, err := refSmallestKTopDown(p, Options{})
				if err != nil {
					t.Fatalf("depth %d conc %d seed %d: reference: %v", depth, conc, seed, err)
				}
				v.oracleProbes = 0
				got, err := v.SmallestKPrepared(p, Options{})
				if err != nil || got != want {
					t.Fatalf("depth %d conc %d seed %d: climb = %d, %v; top-down %d", depth, conc, seed, got, err, want)
				}
				lb := history.ForcedStaleness(p)
				switch {
				case got <= 2 && v.oracleProbes != 0:
					t.Errorf("depth %d conc %d seed %d: k=%d took %d oracle calls, want 0", depth, conc, seed, got, v.oracleProbes)
				case got >= 3 && got == max(3, lb):
					pinned++
					if v.oracleProbes != 1 {
						t.Errorf("depth %d conc %d seed %d: k=%d == lower bound took %d oracle calls, want 1", depth, conc, seed, got, v.oracleProbes)
					}
				case got >= 3:
					above++
					// bits.Len(g) is ⌈log2(g+1)⌉.
					if g := got - max(3, lb); v.oracleProbes > 2*bits.Len(uint(g)) {
						t.Errorf("depth %d conc %d seed %d: k=%d, %d above the lower bound, took %d oracle calls, want <= %d",
							depth, conc, seed, got, g, v.oracleProbes, 2*bits.Len(uint(g)))
					}
				}
			}
		}
	}
	if pinned == 0 || above == 0 {
		t.Fatalf("%d answers at the lower bound, %d above it; a probe-count pin is vacuous", pinned, above)
	}
}

// TestSmallestKClimbMatchesTopDownEnumerated repeats the comparison on every
// enumerated history of up to 5 operations (4 with -short) — every interval
// interleaving, kind mask and read-value assignment, so every tie-free shape
// the two searches could disagree on at that size. (The enumeration against
// the permutation oracle itself is refcheck's TestDifferentialTinyHistories.)
func TestSmallestKClimbMatchesTopDownEnumerated(t *testing.T) {
	maxN := 5
	if testing.Short() {
		maxN = 4
	}
	v := NewVerifier()
	searched := 0
	for n := 1; n <= maxN; n++ {
		refcheck.EnumerateHistories(n, func(h *history.History) {
			p, err := history.Prepare(history.Normalize(h))
			if err != nil {
				return
			}
			want, refErr := refSmallestKTopDown(p, Options{})
			got, err := v.SmallestKPrepared(p, Options{})
			if refErr != nil || err != nil || got != want {
				t.Fatalf("%s: climb = %d, %v; top-down %d, %v", h, got, err, want, refErr)
			}
			if got >= 3 {
				searched++
			}
		})
	}
	if searched == 0 {
		t.Fatal("no enumerated history reached the oracle search")
	}
}

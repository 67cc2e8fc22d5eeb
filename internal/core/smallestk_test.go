package core

import (
	"fmt"
	"math/bits"
	"slices"
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

// refSmallestK is the ladder in the order it ran before FZF moved ahead of
// the forced-staleness bound: zones → lb → FZF (with its witness) when
// lb <= 2 → segments → climb from max(3, lb), forked exactly as
// SmallestKPrepared forks. Kept as the reference the one-decomposition order
// is tested against.
// segmentsOf is Verifier.segmentsOf on buffers of its own, which the
// reference ladder's nested calls cannot overwrite.
func segmentsOf(p *history.Prepared) [][2]int { return new(Verifier).segmentsOf(p) }

func refSmallestK(v *Verifier, p *history.Prepared, opts Options) (int, error) {
	if v.forks(p.Len(), opts) {
		if runs := groupSegments(segmentsOf(p), 4*v.workers()); len(runs) > 1 {
			return refMaxSmallestK(v, p, runs, opts, false)
		}
	}
	return refLadder(v, p, opts, false)
}

func refLadder(v *Verifier, p *history.Prepared, opts Options, segment bool) (int, error) {
	if p.Len() == 0 {
		return 1, nil
	}
	if !segment && zone.DecomposeScratch(p, &v.zone).OneAtomic() {
		return 1, nil
	}
	lb := history.ForcedStalenessScratch(p, &v.stale)
	if lb <= 2 && fzf.CheckScratch(p, &v.fzf).Atomic {
		return 2, nil
	}
	if !segment {
		if segs := segmentsOf(p); len(segs) > 1 {
			return refMaxSmallestK(v, p, segs, opts, true)
		}
	}
	return v.climb(p, max(3, lb), opts)
}

func refMaxSmallestK(v *Verifier, p *history.Prepared, segs [][2]int, opts Options, segment bool) (int, error) {
	ks := make([]int, len(segs))
	err := v.overSegments(p, segs, opts, segment, func(w *Verifier, i int, view *history.Prepared) (err error) {
		ks[i], err = refLadder(w, view, opts, segment)
		return err
	})
	return slices.Max(ks), err
}

// TestLadderMatchesReferenceOrder: asking FZF before the forced-staleness
// bound changes no answer and no oracle call. On generated histories of every
// shape the ladder meets — k-atomic at depths 0–4 and concurrency 1–6, with
// staleness injected, adversarial write concurrency, LBT's trap — the ladder
// and the reference order return the same smallest k in the same number of
// oracle probes, on a standalone Verifier (whole units) and on pools that
// split every unit into runs and segments (forked).
func TestLadderMatchesReferenceOrder(t *testing.T) {
	v := NewVerifier()
	engines := []engine{
		{"verifier", func(f func(v *Verifier)) { f(v) }, func() int { return v.TakeLadder().OracleProbes }},
		poolEngine(t, 1),
		poolEngine(t, 4),
	}
	var hs []*history.History
	for depth := 0; depth <= 4; depth++ {
		for conc := 1; conc <= 6; conc++ {
			cfg := generator.Config{Seed: int64(100*depth + conc), Ops: 80, Concurrency: conc,
				StalenessDepth: depth, ForceDepth: conc%2 == 0, ReadFraction: 0.5}
			h := generator.KAtomic(cfg)
			hs = append(hs, h, generator.InjectStaleness(h, cfg.Seed, 0.2, 1+depth%3))
		}
	}
	for conc := 2; conc <= 6; conc += 2 {
		hs = append(hs, generator.Adversarial(generator.Config{Seed: int64(conc), Ops: 300, Concurrency: conc}))
	}
	hs = append(hs, generator.LBTTrap(6, 2), generator.LBTTrap(12, 0))
	climbed, split := 0, 0
	for i, h := range hs {
		p, err := history.Build(h)
		if err != nil {
			t.Fatalf("history %d: Build: %v", i, err)
		}
		if len(segmentsOf(p)) > 1 {
			split++
		}
		for _, e := range engines {
			for _, minOps := range []int{0, -1} {
				opts := Options{MinParallelOps: minOps}
				var got, want int
				var gotErr, wantErr error
				e.run(func(v *Verifier) { got, gotErr = v.SmallestKPrepared(p, opts) })
				gotProbes := e.probes()
				e.run(func(v *Verifier) { want, wantErr = refSmallestK(v, p, opts) })
				wantProbes := e.probes()
				if got != want || (gotErr == nil) != (wantErr == nil) || gotProbes != wantProbes {
					t.Fatalf("history %d, %s MinParallelOps=%d: k=%d (%v) in %d probes; reference order k=%d (%v) in %d",
						i, e.name, minOps, got, gotErr, gotProbes, want, wantErr, wantProbes)
				}
				if gotProbes > 0 {
					climbed++
				}
			}
		}
	}
	if climbed == 0 || split == 0 {
		t.Fatalf("%d runs reached the oracle, %d histories split at safe cuts; the comparison is vacuous", climbed, split)
	}
}

// TestSmallestKClimbMatchesTopDown: the ladder returns what the top-down
// search did across staleness depths 0–6 and concurrency 1–4, and its oracle
// probes are pinned per safe-cut segment, the only unit the oracle sees: a
// history whose every segment is at most 2-atomic costs none (zones and FZF
// decide), a segment whose answer is max(3, its forced-staleness bound)
// costs exactly one, and one whose answer sits g above that at most
// 2·⌈log2(g+1)⌉. The whole history costs the sum over its segments.
func TestSmallestKClimbMatchesTopDown(t *testing.T) {
	v := NewVerifier()
	pinned, above, split := 0, 0, 0
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
				id := fmt.Sprintf("depth %d conc %d seed %d", depth, conc, seed)
				want, err := refSmallestKTopDown(p, Options{})
				if err != nil {
					t.Fatalf("%s: reference: %v", id, err)
				}
				v.TakeLadder()
				got, err := v.SmallestKPrepared(p, Options{})
				if err != nil || got != want {
					t.Fatalf("%s: climb = %d, %v; top-down %d", id, got, err, want)
				}
				whole := v.TakeLadder().OracleProbes
				if got <= 2 {
					if whole != 0 {
						t.Errorf("%s: k=%d took %d oracle calls, want 0", id, got, whole)
					}
					continue
				}
				segs := segmentsOf(p)
				if len(segs) > 1 {
					split++
				}
				sum, worst := 0, 0
				for _, s := range segs {
					view, err := history.SubPrepared(p, s[0], s[1], nil)
					if err != nil {
						t.Fatalf("%s: segment %v: %v", id, s, err)
					}
					v.TakeLadder()
					k, err := v.SmallestKPrepared(view, Options{})
					if err != nil {
						t.Fatalf("%s: segment %v: %v", id, s, err)
					}
					probes := v.TakeLadder().OracleProbes
					sum, worst = sum+probes, max(worst, k)
					floor := max(3, history.ForcedStaleness(view))
					switch {
					case k <= 2 && probes != 0:
						t.Errorf("%s: segment %v: k=%d took %d oracle calls, want 0", id, s, k, probes)
					case k >= 3 && k == floor:
						pinned++
						if probes != 1 {
							t.Errorf("%s: segment %v: k=%d == lower bound took %d oracle calls, want 1", id, s, k, probes)
						}
					case k >= 3:
						above++
						// bits.Len(g) is ⌈log2(g+1)⌉.
						if g := k - floor; probes > 2*bits.Len(uint(g)) {
							t.Errorf("%s: segment %v: k=%d, %d above the lower bound, took %d oracle calls, want <= %d",
								id, s, k, g, probes, 2*bits.Len(uint(g)))
						}
					}
				}
				if worst != got || sum != whole {
					t.Errorf("%s: segments give k=%d in %d oracle calls, the whole history k=%d in %d", id, worst, sum, got, whole)
				}
			}
		}
	}
	if pinned == 0 || above == 0 || split == 0 {
		t.Fatalf("%d segments at the lower bound, %d above it, %d histories split; a probe-count pin is vacuous", pinned, above, split)
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

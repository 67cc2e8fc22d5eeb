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
// the forced-staleness bound and before the staleness bracket: zones → lb →
// FZF (with its witness) when lb <= 2 → segments → refClimb from max(3, lb),
// forked exactly as SmallestKPrepared forks, its rungs counted as the ladder
// counts them. Kept as the reference the ladder's order is tested against.
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
		v.ladder.Zone++
		return 1, nil
	}
	if !segment && zone.DecomposeScratch(p, &v.zone).OneAtomic() {
		v.ladder.Zone++
		return 1, nil
	}
	lb := history.ForcedStalenessScratch(p, &v.stale)
	if lb <= 2 && fzf.CheckScratch(p, &v.fzf).Atomic {
		v.ladder.FZF++
		return 2, nil
	}
	if !segment {
		if segs := segmentsOf(p); len(segs) > 1 {
			return refMaxSmallestK(v, p, segs, opts, true)
		}
	}
	k, err := refClimb(v, p, max(3, lb), opts)
	if err == nil {
		v.ladder.Climb++
	}
	return k, err
}

// refClimb is the climb as it ran before the ladder bracketed k: from lo up
// to the number of writes W, whose probe may fail, probing lo, +1, +3, ...
// until one succeeds, then bisecting the last gap. Its probes count into v's
// ladder like the climb's.
func refClimb(v *Verifier, p *history.Prepared, lo int, opts Options) (int, error) {
	probe := func(k int) (bool, error) {
		v.ladder.OracleProbes++
		res, err := oracle.CheckKScratch(p, k, oracle.Options{MaxStates: opts.OracleStates}, &v.orc)
		if err != nil {
			return false, fmt.Errorf("core: %w", err)
		}
		return res.Atomic, nil
	}
	hi := max(lo, p.H.Writes())
	for k, step := lo, 1; ; k, step = min(k+step, hi), 2*step {
		ok, err := probe(k)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = k
			break
		}
		if k == hi {
			return 0, fmt.Errorf("core: history not even %d-atomic", hi)
		}
		lo = k + 1
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
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
// bound, bracketing a segment before FZF, and settling a unit off its
// staleness bracket change no answer and no rung count, and add no oracle
// call. On generated histories of every shape the ladder meets — k-atomic at
// depths 0–4 and concurrency 1–6, with staleness injected, adversarial write
// concurrency, LBT's trap — the ladder returns the reference order's smallest
// k with its zone, FZF and climb counts, in at most its oracle probes, on a
// standalone Verifier (whole units) and on pools that split every unit into
// runs and segments (forked).
func TestLadderMatchesReferenceOrder(t *testing.T) {
	v := NewVerifier()
	engines := []engine{
		{"verifier", func(f func(v *Verifier)) { f(v) }, v.TakeLadder},
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
	climbed, spared, split := 0, 0, 0
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
				gotL := e.ladder()
				e.run(func(v *Verifier) { want, wantErr = refSmallestK(v, p, opts) })
				wantL := e.ladder()
				rungs := func(l Ladder) Ladder { l.OracleProbes = 0; return l }
				if got != want || (gotErr == nil) != (wantErr == nil) || rungs(gotL) != rungs(wantL) || gotL.OracleProbes > wantL.OracleProbes {
					t.Fatalf("history %d, %s MinParallelOps=%d: k=%d (%v), ladder %+v; reference order k=%d (%v), ladder %+v",
						i, e.name, minOps, got, gotErr, gotL, want, wantErr, wantL)
				}
				if gotL.OracleProbes > 0 {
					climbed++
				}
				if gotL.OracleProbes < wantL.OracleProbes {
					spared++
				}
			}
		}
	}
	if climbed == 0 || spared == 0 || split == 0 {
		t.Fatalf("%d runs reached the oracle, %d were spared probes, %d histories split at safe cuts; the comparison is vacuous",
			climbed, spared, split)
	}
}

// climbProbes is how many oracle probes the climb makes on [lo, hi] when the
// answer is k: lo, lo+1, lo+3, ... below hi until one reaches k, then a
// bisection of the last gap. hi, the by-finish witness, is never probed.
func climbProbes(lo, hi, k int) int {
	n := 0
	for c, step := lo, 1; c < hi; c, step = min(c+step, hi), 2*step {
		n++
		if c >= k {
			hi = c
			break
		}
		lo = c + 1
	}
	for lo < hi {
		n++
		if mid := lo + (hi-lo)/2; mid >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return n
}

// TestSmallestKClimbMatchesTopDown: the ladder returns what the top-down
// search did across staleness depths 0–6 and concurrency 1–4, and its oracle
// probes are pinned per safe-cut segment, the only unit the oracle sees: a
// history whose every segment is at most 2-atomic costs none (zones and FZF
// decide); a segment's staleness bracket [lo, hi] (floor 3) holds its answer;
// a closed bracket (lo = hi) costs none, an answer at lo < hi exactly one,
// and one g above lo at most 2·⌈log2(g+1)⌉ — in each case the climb's
// schedule below hi, never a probe at hi. The whole history costs the sum
// over its segments.
func TestSmallestKClimbMatchesTopDown(t *testing.T) {
	v := NewVerifier()
	var stale history.StalenessScratch
	closed, pinned, above, split := 0, 0, 0, 0
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
					if k <= 2 {
						if probes != 0 {
							t.Errorf("%s: segment %v: k=%d took %d oracle calls, want 0", id, s, k, probes)
						}
						continue
					}
					lo, hi := history.StalenessBracket(view, &stale, 3)
					if k < lo || k > hi {
						t.Fatalf("%s: segment %v: k=%d outside its bracket [%d, %d]", id, s, k, lo, hi)
					}
					switch {
					case lo >= hi:
						closed++
					case k == lo:
						pinned++
						if probes != 1 {
							t.Errorf("%s: segment %v: k=%d == lo < hi=%d took %d oracle calls, want 1", id, s, k, hi, probes)
						}
					default:
						above++
						// bits.Len(g) is ⌈log2(g+1)⌉.
						if g := k - lo; probes > 2*bits.Len(uint(g)) {
							t.Errorf("%s: segment %v: k=%d, %d above lo, took %d oracle calls, want <= %d",
								id, s, k, g, probes, 2*bits.Len(uint(g)))
						}
					}
					if want := climbProbes(lo, hi, k); probes != want {
						t.Errorf("%s: segment %v: k=%d in [%d, %d] took %d oracle calls; the climb below hi takes %d",
							id, s, k, lo, hi, probes, want)
					}
				}
				if worst != got || sum != whole {
					t.Errorf("%s: segments give k=%d in %d oracle calls, the whole history k=%d in %d", id, worst, sum, got, whole)
				}
			}
		}
	}
	t.Logf("segments: %d settled by a closed bracket, %d at lo, %d above it; %d histories split", closed, pinned, above, split)
	if closed == 0 || pinned == 0 || above == 0 || split == 0 {
		t.Fatalf("%d closed brackets, %d segments at lo, %d above it, %d histories split; a probe-count pin is vacuous",
			closed, pinned, above, split)
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

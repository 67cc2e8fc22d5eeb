package delta

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/refcheck"
	"kat/internal/zone"
)

// The pre-summary implementation, kept as the reference the summary kernel is
// tested against: relax a clone, normalize, prepare, run the zone test — and
// for the smallest Δ, binary-search that over the time span.

// refCheck is Check by the definition: one full relaxed prepare per call.
func refCheck(h *history.History, delta int64) (bool, error) {
	p, err := prepareRelaxed(h, delta)
	if err != nil {
		return false, err
	}
	ok, _ := zone.Check1Atomic(p)
	return ok, nil
}

// refSmallest binary-searches refCheck over [0, span].
func refSmallest(h *history.History) (int64, error) {
	if ok, err := refCheck(h, 0); err != nil {
		return 0, err
	} else if ok {
		return 0, nil
	}
	// Δ=span clamps every read's relaxed start to the time origin, so it is
	// the maximal effective relaxation.
	lo, hi := int64(1), max(history.Measure(h).Span, 1)
	ok, err := refCheck(h, hi)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("delta: history is not Δ-atomic even at Δ=%d", hi)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := refCheck(h, mid)
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

// prepareRelaxed moves every read's start delta units earlier, clamped at
// the history's time origin (the minimum start across all operations), then
// normalizes and prepares the result, so delta is measured on the caller's
// own timestamp scale rather than on normalized ranks.
//
// The clamp is verdict-preserving: no operation finishes before the origin,
// so a read start pushed below it removes no additional real-time ordering
// constraint. Without it a large delta applied to timestamps near the int64
// minimum underflows and wraps the relaxed start to a huge positive value.
func prepareRelaxed(h *history.History, delta int64) (*history.Prepared, error) {
	cp := h.Clone()
	origin := int64(0)
	for i := range cp.Ops {
		if i == 0 || cp.Ops[i].Start < origin {
			origin = cp.Ops[i].Start
		}
	}
	for i := range cp.Ops {
		op := &cp.Ops[i]
		if !op.IsRead() {
			continue
		}
		// max(op.Start-delta, origin) without overflow: op.Start-origin is
		// in [0, 2^64), so the uint64 difference is exact.
		if uint64(delta) >= uint64(op.Start)-uint64(origin) {
			op.Start = origin
		} else {
			op.Start -= delta
		}
	}
	return new(history.PrepareScratch).Build(cp)
}

// TestDifferentialVsRefcheck sweeps every enumerated history of up to 4
// operations (all interval interleavings × kind masks × read-value
// assignments) and asserts Check/Smallest agree with refcheck's
// permutation-based Δ oracle: identical error presence, identical smallest
// Δ, and matching fixed-Δ verdicts at every Δ the timestamps distinguish.
func TestDifferentialVsRefcheck(t *testing.T) {
	maxN := 4
	if testing.Short() {
		maxN = 3
	}
	total := 0
	for n := 1; n <= maxN; n++ {
		refcheck.EnumerateHistories(n, func(h *history.History) {
			total++
			desc := strings.ReplaceAll(h.String(), "\n", "; ")
			refD, refErr := refcheck.SmallestDelta(h)
			d, err := Smallest(h)
			if (refErr == nil) != (err == nil) {
				t.Fatalf("%s: ref err=%v, Smallest err=%v", desc, refErr, err)
			}
			if refErr != nil {
				return
			}
			if d != refD {
				t.Fatalf("%s: Smallest = %d, ref %d", desc, d, refD)
			}
			// Fixed-Δ verdicts over the whole range the enumeration's
			// timestamps (0..2n-1) can distinguish, through the exported
			// Check and through one summary probed repeatedly (the streaming
			// checker's use).
			sum := Summarize(h)
			built := fromBuild(t, h)
			for probe := int64(0); probe <= int64(2*n); probe++ {
				if built.Atomic(probe) != sum.Atomic(probe) {
					t.Fatalf("%s: at Δ=%d the builder-fed summary says %v, Summarize's %v", desc, probe, built.Atomic(probe), sum.Atomic(probe))
				}
				got, err := Check(h, probe)
				if err != nil {
					t.Fatalf("%s: Check(%d): %v", desc, probe, err)
				}
				want, err := refcheck.CheckDelta(h, probe)
				if err != nil {
					t.Fatalf("%s: ref CheckDelta(%d): %v", desc, probe, err)
				}
				if got != want || got != (probe >= d) || sum.Atomic(probe) != want {
					t.Fatalf("%s: Check(%d) = %v, summary %v, ref %v, smallest %d", desc, probe, got, sum.Atomic(probe), want, d)
				}
			}
		})
		if t.Failed() {
			t.FailNow()
		}
	}
	t.Logf("swept %d histories against the Δ reference", total)
}

// overflowsSpan reports whether the history's time span exceeds int64, where
// the reference's search bound (history.Measure's Span) wraps.
func overflowsSpan(h *history.History) bool {
	lo, hi := h.Ops[0].Start, h.Ops[0].Finish
	for _, op := range h.Ops {
		lo, hi = min(lo, op.Start, op.Finish), max(hi, op.Start, op.Finish)
	}
	return hi-lo < 0
}

// fromBuild is the summary the streaming engine takes of h: built from the
// extremes a prepare of a copy of h records, in its finish order.
func fromBuild(t *testing.T, h *history.History) *Summary {
	t.Helper()
	s := history.PrepareScratch{Extremes: true}
	p, err := s.Build(h.Clone())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return new(Summary).FromPrepared(p)
}

// FuzzSmallestDeltaEquivalence is the differential target for the summary
// kernel: on arbitrary histories Smallest must agree with the retained
// binary search over full relaxed prepares (same error presence, same Δ),
// fixed-Δ Check must agree with the reference at and around the threshold
// and at saturation, and neither may modify its input. On every history
// Smallest accepts, the summary built from the builder's extremes must give
// the same Δ as Summarize's.
func FuzzSmallestDeltaEquivalence(f *testing.F) {
	for _, s := range []string{
		"w 1 0 10; w 2 20 30; r 1 40 50; r 2 60 70",
		// Equal timestamps: touching operations stay concurrent.
		"w 1 0 10; w 2 10 20; r 1 20 30; r 2 20 30",
		"w 1 5 5; r 1 5 5; w 2 5 9; r 2 9 9",
		// Zero-length operations.
		"w 1 0 0; w 2 3 3; r 1 7 7; r 2 8 8",
		// A read that must relax past its own write's start, and one whose
		// write finishes after it.
		"w 1 0 100; r 1 50 60; w 2 70 80; r 1 90 95; r 2 96 99",
		"w 1 0 10; w 2 11 12; w 3 13 14; r 1 100 110; r 3 20 30; r 2 200 300",
		// Anomalies: dangling read, duplicate value, read before its write.
		"w 1 0 10; r 9 20 30",
		"w 1 0 10; w 1 20 30; r 1 40 50",
		"r 1 0 5; w 1 10 20",
		// Timestamps within 2n of either end of int64.
		"w 1 -9223372036854775808 -9223372036854775800; w 2 -9223372036854775799 -9223372036854775798; r 1 -9223372036854775797 -9223372036854775796; r 2 -9223372036854775795 -9223372036854775794",
		"w 1 9223372036854775790 9223372036854775795; w 2 9223372036854775796 9223372036854775800; r 1 9223372036854775801 9223372036854775803; r 2 9223372036854775804 9223372036854775807",
		// Out of start order, so the builder takes its general form: tied,
		// zero-length, long, and at the bottom of int64.
		"r 2 20 30; w 2 10 20; r 1 20 30; w 1 0 10",
		"r 2 9 9; w 2 5 9; r 1 5 5; w 1 5 5",
		"r 1 90 95; w 2 70 80; r 2 96 99; w 1 0 100; r 1 50 60",
		"r 1 -9223372036854775797 -9223372036854775796; w 1 -9223372036854775808 -9223372036854775800; w 2 -9223372036854775799 -9223372036854775798",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		h, err := history.Parse(text)
		if err != nil || h.Len() == 0 || h.Len() > 40 || overflowsSpan(h) {
			return
		}
		orig := h.Clone()
		want, wantErr := refSmallest(h)
		got, err := Smallest(h)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Smallest err=%v, reference err=%v (%q)", err, wantErr, text)
		}
		if err != nil {
			return
		}
		if got != want {
			t.Fatalf("Smallest = %d, reference %d (%q)", got, want, text)
		}
		if d, err := fromBuild(t, h).Smallest(); err != nil || d != got {
			t.Fatalf("builder-fed summary: Smallest = %d, %v; Summarize's %d (%q)", d, err, got, text)
		}
		for _, probe := range []int64{0, got - 1, got, got + 1, math.MaxInt64} {
			if probe < 0 {
				continue
			}
			ok, err := Check(h, probe)
			refOK, refErr := refCheck(h, probe)
			if err != nil || refErr != nil || ok != refOK || ok != (probe >= got) {
				t.Fatalf("Check(%d) = %v, %v; reference %v, %v; smallest %d (%q)", probe, ok, err, refOK, refErr, got, text)
			}
		}
		if !slices.Equal(h.Ops, orig.Ops) {
			t.Fatalf("input modified (%q)", text)
		}
	})
}

// TestSmallestDeltaScalesAndShifts: Δ thresholds are differences of
// timestamps, so multiplying every timestamp by 2^20 multiplies the answer
// by 2^20 — without one more allocation, because no probe allocates however
// long the search over the wider span runs — and translating the history to
// either end of the int64 range changes nothing.
func TestSmallestDeltaScalesAndShifts(t *testing.T) {
	const scale = 1 << 20
	for depth := 0; depth <= 3; depth++ {
		h := generator.KAtomic(generator.Config{
			Seed: int64(40 + depth), Ops: 200, Concurrency: 3, StalenessDepth: depth, ReadFraction: 0.5,
		})
		base, err := Smallest(h)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if depth >= 2 && base == 0 {
			t.Fatalf("depth %d: smallest Δ = 0, the scaling check would be vacuous", depth)
		}
		var span int64
		for _, op := range h.Ops {
			span = max(span, op.Finish)
		}
		variants := map[string]func(int64) int64{
			"scaled":      func(x int64) int64 { return x * scale },
			"at MinInt64": func(x int64) int64 { return math.MinInt64 + x },
			"at MaxInt64": func(x int64) int64 { return math.MaxInt64 - span + x },
		}
		for name, f := range variants {
			v := h.Clone()
			for i := range v.Ops {
				v.Ops[i].Start, v.Ops[i].Finish = f(v.Ops[i].Start), f(v.Ops[i].Finish)
			}
			want := base
			if name == "scaled" {
				want = base * scale
			}
			got, err := Smallest(v)
			if err != nil || got != want {
				t.Errorf("depth %d %s: Smallest = %d, %v; want %d", depth, name, got, err, want)
			}
			if ref, err := refSmallest(v); err != nil || ref != want {
				t.Errorf("depth %d %s: reference = %d, %v; want %d", depth, name, ref, err, want)
			}
			if name != "scaled" {
				continue
			}
			allocs := func(h *history.History) float64 {
				return testing.AllocsPerRun(10, func() { Smallest(h) })
			}
			if a, b := allocs(h), allocs(v); a != b {
				t.Errorf("depth %d: %v allocs at span %d, %v at span %d", depth, a, span, b, span*scale)
			}
		}
	}
}

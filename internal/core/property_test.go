package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kat/internal/fzf"
	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/lbt"
	"kat/internal/oracle"
	"kat/internal/witness"
	"kat/internal/zone"
)

// quickCfg keeps property-test history sizes in the oracle's comfort zone.
var quickCfg = &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(1))}

// TestPropertyAllDecidersAgreeOn2AV: for arbitrary anomaly-free histories,
// LBT, FZF, and the exact oracle return the same 2-AV verdict, and every
// positive verdict carries an independently valid witness.
func TestPropertyAllDecidersAgreeOn2AV(t *testing.T) {
	prop := func(qh generator.QuickHistory) bool {
		p, err := history.Prepare(qh.H)
		if err != nil {
			return false
		}
		want, err := oracle.CheckK(p, 2, oracle.Options{})
		if err != nil {
			return false
		}
		l := lbt.Check(p, lbt.Options{})
		f := fzf.Check(p)
		if l.Atomic != want.Atomic || f.Atomic != want.Atomic {
			t.Logf("disagreement (oracle=%v lbt=%v fzf=%v) on:\n%s",
				want.Atomic, l.Atomic, f.Atomic, qh.H)
			return false
		}
		if l.Atomic && witness.Validate(p, l.Witness, 2) != nil {
			return false
		}
		if f.Atomic && witness.Validate(p, f.Witness, 2) != nil {
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyZonesMatchOracleAt1: the Gibbons–Korach zone conditions decide
// exactly 1-atomicity.
func TestPropertyZonesMatchOracleAt1(t *testing.T) {
	prop := func(qh generator.QuickHistory) bool {
		p, err := history.Prepare(qh.H)
		if err != nil {
			return false
		}
		want, err := oracle.CheckK(p, 1, oracle.Options{})
		if err != nil {
			return false
		}
		got, _ := zone.Check1Atomic(p)
		if got != want.Atomic {
			t.Logf("zones=%v oracle=%v on:\n%s", got, want.Atomic, qh.H)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyGeneratedHistoriesVerify: histories built to be
// (depth+1)-atomic verify at that bound, through the public dispatch.
func TestPropertyGeneratedHistoriesVerify(t *testing.T) {
	prop := func(qa generator.QuickAtomicHistory) bool {
		rep, err := NewVerifier().Check(qa.H, qa.Depth+1, Options{})
		if err != nil {
			return false
		}
		return rep.Atomic
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// budgeted keeps exact-search probes bounded: searches that exhaust the
// budget make a property vacuously true (the oracle is exponential in the
// worst case — NP-hardness is allowed to show up in a property test).
const budgeted = 400_000

// TestPropertyMonotoneInK: k-atomicity is monotone — a k-atomic history is
// (k+1)-atomic (the same witness order proves both).
func TestPropertyMonotoneInK(t *testing.T) {
	prop := func(qh generator.QuickHistory) bool {
		p, err := history.Prepare(qh.H)
		if err != nil {
			return false
		}
		prev := false
		for k := 1; k <= 4; k++ {
			res, err := oracle.CheckK(p, k, oracle.Options{MaxStates: budgeted})
			if err != nil {
				return true // budget exhausted: no verdict, vacuous
			}
			if prev && !res.Atomic {
				t.Logf("monotonicity broken at k=%d on:\n%s", k, qh.H)
				return false
			}
			prev = res.Atomic
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestPropertySmallestKIsTight: SmallestK returns a k at which the history
// verifies and (when k > 1) fails at k-1. Probes that exhaust the search
// budget are vacuous (see budgeted).
func TestPropertySmallestKIsTight(t *testing.T) {
	prop := func(qh generator.QuickHistory) bool {
		p, err := history.Prepare(qh.H)
		if err != nil {
			return false
		}
		k, err := NewVerifier().SmallestKPrepared(p, Options{OracleStates: budgeted})
		if err != nil {
			return true // budget exhausted mid-search: vacuous
		}
		at, err := oracle.CheckK(p, k, oracle.Options{MaxStates: budgeted})
		if err != nil {
			return true
		}
		if !at.Atomic {
			t.Logf("not atomic at its own smallest k=%d:\n%s", k, qh.H)
			return false
		}
		if k > 1 {
			below, err := oracle.CheckK(p, k-1, oracle.Options{MaxStates: budgeted})
			if err != nil {
				return true
			}
			if below.Atomic {
				t.Logf("atomic below smallest k=%d:\n%s", k, qh.H)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestPropertyWeightedUnitEqualsPlain: with unit weights the weighted
// decision coincides with plain k-AV for every k.
func TestPropertyWeightedUnitEqualsPlain(t *testing.T) {
	prop := func(qh generator.QuickHistory) bool {
		p, err := history.Prepare(qh.H)
		if err != nil {
			return false
		}
		for k := 1; k <= 3; k++ {
			plain, err := oracle.CheckK(p, k, oracle.Options{})
			if err != nil {
				return false
			}
			weighted, err := oracle.CheckWeighted(p, int64(k), oracle.Options{})
			if err != nil {
				return false
			}
			if plain.Atomic != weighted.Atomic {
				t.Logf("k=%d plain=%v weighted=%v on:\n%s", k, plain.Atomic, weighted.Atomic, qh.H)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestPropertyNormalizePreservesDecision: normalization (re-applied) never
// changes the 2-AV verdict.
func TestPropertyNormalizePreservesDecision(t *testing.T) {
	prop := func(qh generator.QuickHistory) bool {
		p1, err := history.Prepare(qh.H)
		if err != nil {
			return false
		}
		p2, err := history.Prepare(history.Normalize(qh.H))
		if err != nil {
			return false
		}
		return fzf.Check(p1).Atomic == fzf.Check(p2).Atomic
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

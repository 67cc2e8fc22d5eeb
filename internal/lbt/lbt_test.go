package lbt

import (
	"testing"

	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/oracle"
	"kat/internal/witness"
)

func prep(t *testing.T, text string) *history.Prepared {
	t.Helper()
	p, err := history.Prepare(history.Normalize(history.MustParse(text)))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return p
}

func check(t *testing.T, p *history.Prepared) Result {
	t.Helper()
	res := Check(p, Options{})
	if err := SelfCheck(p, res); err != nil {
		t.Fatalf("LBT witness invalid: %v", err)
	}
	return res
}

func TestEmptyHistory(t *testing.T) {
	p, err := history.Prepare(history.New(nil))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if res := check(t, p); !res.Atomic {
		t.Error("empty history rejected")
	}
}

func TestSingleWrite(t *testing.T) {
	if res := check(t, prep(t, "w 1 0 10")); !res.Atomic {
		t.Error("single write rejected")
	}
}

func TestSequential(t *testing.T) {
	p := prep(t, "w 1 0 10; r 1 20 30; w 2 40 50; r 2 60 70")
	if res := check(t, p); !res.Atomic {
		t.Error("sequential 1-atomic history rejected by 2-AV")
	}
}

func TestOneStaleRead(t *testing.T) {
	// Read of w1 after w2 completed: 2-atomic, not 1-atomic.
	p := prep(t, "w 1 0 10; w 2 20 30; r 1 40 50")
	if res := check(t, p); !res.Atomic {
		t.Error("1-stale read rejected at k=2")
	}
}

func TestTwoDeepStaleReadRejected(t *testing.T) {
	// Read of w1 after w2 and w3 completed: needs k=3.
	p := prep(t, "w 1 0 10; w 2 20 30; w 3 40 50; r 1 60 70")
	if res := check(t, p); res.Atomic {
		t.Error("2-stale read accepted at k=2")
	}
}

func TestInterleavedStaleness(t *testing.T) {
	// Alternating fresh/stale reads: w1 w2 r1 w3 r2 w4 r3 — each read one
	// behind. 2-atomic.
	p := prep(t, `
w 1 0 10
w 2 20 30
r 1 40 50
w 3 60 70
r 2 80 90
w 4 100 110
r 3 120 130
`)
	if res := check(t, p); !res.Atomic {
		t.Error("one-behind read chain rejected")
	}
}

func TestDoubleStaleConflict(t *testing.T) {
	// Two reads forced after two newer writes each: r(1) after w2,w3 done.
	p := prep(t, "w 1 0 10; w 2 20 30; w 3 40 50; r 3 60 70; r 1 80 90")
	if res := check(t, p); res.Atomic {
		t.Error("accepted although r(1) is 2-stale in every valid order")
	}
}

func TestConcurrentWritesAllowReordering(t *testing.T) {
	// w1, w2 concurrent; reads see 2 then 1: 2-atomic via order w2 w1? No:
	// order must put both writes before r2... r(2) then r(1): order
	// w1 w2 r2 r1 gives r1 one intervening write — 2-atomic.
	p := prep(t, "w 1 0 30; w 2 5 35; r 2 40 50; r 1 60 70")
	if res := check(t, p); !res.Atomic {
		t.Error("reorderable concurrent writes rejected")
	}
}

func TestEpochChaining(t *testing.T) {
	// Forces multi-iteration epochs: reads of the previous write appear
	// after the next write finishes, chaining w' discoveries.
	p := prep(t, `
w 1 0 10
w 2 20 30
r 1 35 45
w 3 50 60
r 2 65 75
r 3 80 90
`)
	if res := check(t, p); !res.Atomic {
		t.Error("epoch-chain history rejected")
	}
}

func TestWriteForcedAfterCandidateFails(t *testing.T) {
	// A write strictly after every other op means the candidate scan must
	// reject any candidate that is not that write.
	p := prep(t, "w 1 0 10; r 1 15 25; w 2 30 40; r 2 45 55; w 3 60 70")
	res := check(t, p)
	if !res.Atomic {
		t.Error("rejected history with trailing unread write")
	}
}

func TestUnreadWritesEverywhere(t *testing.T) {
	p := prep(t, "w 1 0 10; w 2 12 14; w 3 16 18; r 1 20 30")
	// r(1) is 2-stale if w2 and w3 are placed between w1 and r1, but both
	// unread writes can be pushed before w1? No — they follow w1 in time
	// (w1 finishes at 10 before they start). They must follow w1 but they
	// can be placed after r1? w2.f=14 < r1.s=20, so w2 precedes r1 and
	// must be placed before it. Same for w3: separation = 2. Not 2-atomic.
	if res := check(t, p); res.Atomic {
		t.Error("accepted but both unread writes are forced between w1 and r1")
	}
}

func TestUnreadConcurrentWriteSlidesOut(t *testing.T) {
	// Like above but w3 overlaps r1, so it can be ordered after r1.
	p := prep(t, "w 1 0 10; w 2 12 14; w 3 16 100; r 1 20 30")
	if res := check(t, p); !res.Atomic {
		t.Error("rejected although w3 can be placed after r1")
	}
}

func TestResultDiagnostics(t *testing.T) {
	p := prep(t, "w 1 0 10; r 1 20 30; w 2 40 50; r 2 60 70")
	res := check(t, p)
	if res.Epochs == 0 || res.CandidatesTried == 0 || res.Steps == 0 {
		t.Errorf("diagnostics not populated: %+v", res)
	}
}

func TestNoDeepeningSameAnswers(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		h := generator.Random(generator.Config{Seed: seed, Ops: 30, Concurrency: 4})
		p, err := history.Prepare(h)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		a := Check(p, Options{})
		b := Check(p, Options{NoDeepening: true})
		if a.Atomic != b.Atomic {
			t.Fatalf("seed %d: deepening=%v nodeepening=%v", seed, a.Atomic, b.Atomic)
		}
	}
}

// TestAgainstOracleRandom differential-tests LBT against the exact oracle on
// random histories of varied shapes.
func TestAgainstOracleRandom(t *testing.T) {
	shapes := []generator.Config{
		{Ops: 20, Concurrency: 1},
		{Ops: 24, Concurrency: 3},
		{Ops: 30, Concurrency: 6, ReadFraction: 0.7},
		{Ops: 30, Concurrency: 10, ReadFraction: 0.3},
	}
	for _, shape := range shapes {
		for seed := int64(0); seed < 40; seed++ {
			cfg := shape
			cfg.Seed = seed
			h := generator.Random(cfg)
			p, err := history.Prepare(h)
			if err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			want, err := oracle.CheckK(p, 2, oracle.Options{})
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			got := Check(p, Options{})
			if got.Atomic != want.Atomic {
				t.Fatalf("shape %+v seed %d: LBT=%v oracle=%v history:\n%s",
					shape, seed, got.Atomic, want.Atomic, p.H)
			}
			if got.Atomic {
				if err := witness.Validate(p, got.Witness, 2); err != nil {
					t.Fatalf("shape %+v seed %d: witness: %v", shape, seed, err)
				}
			}
		}
	}
}

// TestAgainstOracleGenerated checks LBT accepts generated 2-atomic histories
// and matches the oracle on staleness-injected mutants.
func TestAgainstOracleGenerated(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 50, Concurrency: 4, StalenessDepth: 1,
		})
		p, err := history.Prepare(h)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		res := Check(p, Options{})
		if !res.Atomic {
			t.Fatalf("seed %d: generated 2-atomic history rejected", seed)
		}
		if err := witness.Validate(p, res.Witness, 2); err != nil {
			t.Fatalf("seed %d: witness: %v", seed, err)
		}

		mut := generator.InjectStaleness(h, seed, 0.3, 3)
		pm, err := history.Prepare(mut)
		if err != nil {
			t.Fatalf("Prepare mutant: %v", err)
		}
		want, err := oracle.CheckK(pm, 2, oracle.Options{})
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		got := Check(pm, Options{})
		if got.Atomic != want.Atomic {
			t.Fatalf("seed %d mutant: LBT=%v oracle=%v history:\n%s",
				seed, got.Atomic, want.Atomic, pm.H)
		}
	}
}

func TestLBTWitnessStructure(t *testing.T) {
	// The Figure 1 shape: containers hold the reads between write slots.
	p := prep(t, `
w 1 0 10
r 1 12 20
r 1 22 28
w 2 30 40
r 2 42 50
r 1 44 52
`)
	res := check(t, p)
	if !res.Atomic {
		t.Fatal("figure-1 style history rejected")
	}
	// First op in witness must be w1 and each read must follow its write.
	if !p.Op(res.Witness[0]).IsWrite() {
		t.Errorf("witness starts with a read: %v", res.Witness)
	}
}

func TestLargePracticalHistoryFast(t *testing.T) {
	h := generator.KAtomic(generator.Config{
		Seed: 1, Ops: 5000, Concurrency: 4, StalenessDepth: 1, ReadFraction: 0.6,
	})
	p, err := history.Prepare(h)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	res := Check(p, Options{})
	if !res.Atomic {
		t.Fatal("large generated 2-atomic history rejected")
	}
	if err := witness.Validate(p, res.Witness, 2); err != nil {
		t.Fatalf("witness: %v", err)
	}
}

// TestOptionCombosAgree runs LBT under every option combination on random
// and trap histories; all must agree with the oracle.
func TestOptionCombosAgree(t *testing.T) {
	combos := []Options{
		{},
		{NoDeepening: true},
		{WorstCaseOrder: true},
		{NoDeepening: true, WorstCaseOrder: true},
	}
	var inputs []*history.History
	for seed := int64(0); seed < 15; seed++ {
		inputs = append(inputs, generator.Random(generator.Config{Seed: seed, Ops: 25, Concurrency: 5}))
	}
	inputs = append(inputs, generator.LBTTrap(6, 3), generator.LBTTrap(12, 2))
	for i, h := range inputs {
		p, err := history.Prepare(h)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		want, err := oracle.CheckK(p, 2, oracle.Options{})
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		for _, opt := range combos {
			got := Check(p, opt)
			if got.Atomic != want.Atomic {
				t.Fatalf("input %d opts %+v: LBT=%v oracle=%v", i, opt, got.Atomic, want.Atomic)
			}
			if got.Atomic {
				if err := witness.Validate(p, got.Witness, 2); err != nil {
					t.Fatalf("input %d opts %+v: witness: %v", i, opt, err)
				}
			}
		}
	}
}

// TestTrapDeepeningBeatsNoDeepening asserts the Theorem 3.2 pathology is
// real on the trap construction: without deepening, LBT does asymptotically
// more work under an adversarial candidate order.
func TestTrapDeepeningBeatsNoDeepening(t *testing.T) {
	h := generator.LBTTrap(1000, 20)
	p, err := history.Prepare(h)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	on := Check(p, Options{WorstCaseOrder: true})
	off := Check(p, Options{NoDeepening: true, WorstCaseOrder: true})
	if on.Atomic || off.Atomic {
		t.Fatal("trap should be rejected")
	}
	if off.Steps < 3*on.Steps {
		t.Errorf("expected >=3x step blowup without deepening: on=%d off=%d", on.Steps, off.Steps)
	}
}

package shrink

import (
	"testing"

	"kat/internal/core"
	"kat/internal/generator"
	"kat/internal/history"
)

// not2Atomic is the canonical predicate: the history is NOT 2-atomic.
func not2Atomic(h *history.History) bool {
	rep, err := core.NewVerifier().Check(h, 2, core.Options{})
	if err != nil {
		return false // treat malformed candidates as uninteresting
	}
	return !rep.Atomic
}

func TestMinimizeKeepsViolation(t *testing.T) {
	// Large 1-atomic history with injected deep staleness.
	base := generator.KAtomic(generator.Config{
		Seed: 4, Ops: 80, Concurrency: 2, StalenessDepth: 0, ReadFraction: 0.5,
	})
	mut := generator.InjectStaleness(base, 8, 0.2, 4)
	if !not2Atomic(mut) {
		t.Skip("mutation did not produce a 2-AV violation for this seed")
	}
	min := Minimize(mut, not2Atomic)
	if !not2Atomic(min) {
		t.Fatal("minimized history no longer violates")
	}
	if min.Len() >= mut.Len() {
		t.Errorf("no reduction: %d -> %d ops", mut.Len(), min.Len())
	}
	// A minimal 2-AV violation needs at least 3 writes + 1 read = 4 ops.
	if min.Len() < 4 {
		t.Errorf("implausibly small violation: %d ops\n%s", min.Len(), min)
	}
}

func TestMinimizeIsOneMinimal(t *testing.T) {
	base := generator.KAtomic(generator.Config{
		Seed: 10, Ops: 60, Concurrency: 2, StalenessDepth: 0, ReadFraction: 0.5,
	})
	mut := generator.InjectStaleness(base, 3, 0.2, 4)
	if !not2Atomic(mut) {
		t.Skip("mutation did not produce a violation for this seed")
	}
	min := Minimize(mut, not2Atomic)
	// Removing any single read must erase the violation... not necessarily
	// (there can be several independent violations), but removing EVERY
	// read one at a time must be checked not to panic and to keep
	// well-formedness.
	for i := 0; i < min.Len(); i++ {
		if !min.Ops[i].IsRead() {
			continue
		}
		cand := &history.History{}
		cand.Ops = append(cand.Ops, min.Ops[:i]...)
		cand.Ops = append(cand.Ops, min.Ops[i+1:]...)
		if not2Atomic(cand) {
			t.Errorf("not 1-minimal: removing read %d keeps the violation", i)
		}
	}
}

func TestMinimizeNonViolatingReturnsInput(t *testing.T) {
	h := generator.KAtomic(generator.Config{Seed: 2, Ops: 20, StalenessDepth: 1})
	min := Minimize(h, not2Atomic)
	if min.Len() != h.Len() {
		t.Errorf("minimized a non-violating history: %d -> %d", h.Len(), min.Len())
	}
}

func TestMinimizeTinyCore(t *testing.T) {
	// The classic minimal violation plus noise: the shrinker should cut
	// most of the noise ops.
	text := `
w 1 0 10
w 2 20 30
w 3 40 50
r 1 60 70
w 90 100 110
r 90 120 130
w 91 140 150
r 91 160 170
`
	h := history.MustParse(text)
	if !not2Atomic(h) {
		t.Fatal("setup: history should violate 2-AV")
	}
	min := Minimize(h, not2Atomic)
	if min.Len() != 4 {
		t.Errorf("minimized to %d ops, want exactly the 4-op core:\n%s", min.Len(), min)
	}
}

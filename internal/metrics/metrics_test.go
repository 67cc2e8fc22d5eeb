package metrics

import (
	"strings"
	"testing"

	"kat/internal/core"
	"kat/internal/generator"
	"kat/internal/history"
)

func TestSmallestKDistribution(t *testing.T) {
	var corpus []*history.History
	for seed := int64(0); seed < 5; seed++ {
		corpus = append(corpus, generator.KAtomic(generator.Config{
			Seed: seed, Ops: 25, Concurrency: 1, StalenessDepth: 0, ReadFraction: 0.5,
		}))
	}
	for seed := int64(0); seed < 3; seed++ {
		corpus = append(corpus, generator.KAtomic(generator.Config{
			Seed: seed, Ops: 25, Concurrency: 1, StalenessDepth: 1,
			ForceDepth: true, ReadFraction: 0.5,
		}))
	}
	d := SmallestKDistribution(corpus, core.Options{})
	if d.Total != 8 || d.Errors != 0 {
		t.Fatalf("Total=%d Errors=%d, want 8/0", d.Total, d.Errors)
	}
	if d.Counts[1] != 5 {
		t.Errorf("Counts[1] = %d, want 5 (%v)", d.Counts[1], d.Counts)
	}
	if d.Counts[2] != 3 {
		t.Errorf("Counts[2] = %d, want 3 (%v)", d.Counts[2], d.Counts)
	}
	if f := d.Fraction(1); f < 0.6 || f > 0.7 {
		t.Errorf("Fraction(1) = %v, want 5/8", f)
	}
	if f := d.Fraction(2); f != 1 {
		t.Errorf("Fraction(2) = %v, want 1", f)
	}
	if s := d.String(); !strings.Contains(s, "k=1:5") || !strings.Contains(s, "k=2:3") {
		t.Errorf("String() = %q", s)
	}
}

func TestDistributionErrors(t *testing.T) {
	corpus := []*history.History{history.MustParse("r 9 0 10")} // dangling read
	d := SmallestKDistribution(corpus, core.Options{})
	if d.Errors != 1 {
		t.Errorf("Errors = %d, want 1", d.Errors)
	}
	if d.Fraction(1) != 0 {
		t.Errorf("Fraction with all-errors = %v, want 0", d.Fraction(1))
	}
}

func TestReadStaleness(t *testing.T) {
	h := history.MustParse("w 1 0 10; w 2 20 30; r 1 40 50; r 2 60 70")
	p, err := history.Prepare(history.Normalize(h))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	// Order: w1 w2 r1 r2 — r1 one write behind, r2 zero.
	st, err := ReadStaleness(p, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatalf("ReadStaleness: %v", err)
	}
	if len(st) != 2 || st[0] != 1 || st[1] != 0 {
		t.Errorf("staleness = %v, want [1 0]", st)
	}
}

func TestReadStalenessErrors(t *testing.T) {
	h := history.MustParse("w 1 0 10; r 1 20 30")
	p, err := history.Prepare(history.Normalize(h))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if _, err := ReadStaleness(p, []int{0}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := ReadStaleness(p, []int{0, 9}); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, err := ReadStaleness(p, []int{1, 0}); err == nil {
		t.Error("read-before-write order accepted")
	}
}

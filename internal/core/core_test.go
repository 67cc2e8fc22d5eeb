package core

import (
	"errors"
	"testing"

	"kat/internal/generator"
	"kat/internal/history"
)

func TestCheckDispatchesByK(t *testing.T) {
	h := history.MustParse("w 1 0 10; r 1 20 30")
	tests := []struct {
		k    int
		want Algorithm
	}{
		{1, AlgoZones},
		{2, AlgoFZF},
		{3, AlgoOracle},
		{7, AlgoOracle},
	}
	for _, tt := range tests {
		rep, err := NewVerifier().Check(h, tt.k, Options{})
		if err != nil {
			t.Fatalf("Check(k=%d): %v", tt.k, err)
		}
		if rep.Algorithm != tt.want {
			t.Errorf("k=%d dispatched to %v, want %v", tt.k, rep.Algorithm, tt.want)
		}
		if !rep.Atomic {
			t.Errorf("k=%d: trivial history rejected", tt.k)
		}
	}
}

func TestCheckRejectsBadK(t *testing.T) {
	h := history.MustParse("w 1 0 10")
	if _, err := NewVerifier().Check(h, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestCheckAnomalyError(t *testing.T) {
	h := history.MustParse("r 5 0 10") // dangling read
	if _, err := NewVerifier().Check(h, 2, Options{}); err == nil {
		t.Error("anomalous history accepted")
	}
}

func TestForcedAlgorithmMismatch(t *testing.T) {
	h := history.MustParse("w 1 0 10")
	for _, tt := range []struct {
		algo Algorithm
		k    int
	}{
		{AlgoZones, 2},
		{AlgoLBT, 1},
		{AlgoLBT, 3},
		{AlgoFZF, 1},
	} {
		_, err := NewVerifier().Check(h, tt.k, Options{Algorithm: tt.algo})
		if !errors.Is(err, ErrAlgorithmMismatch) {
			t.Errorf("algo=%v k=%d: err = %v, want ErrAlgorithmMismatch", tt.algo, tt.k, err)
		}
	}
}

func TestAlgorithmsAgree(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		h := generator.Random(generator.Config{Seed: seed, Ops: 25, Concurrency: 5})
		var got []bool
		for _, algo := range []Algorithm{AlgoLBT, AlgoFZF, AlgoOracle} {
			rep, err := NewVerifier().Check(h, 2, Options{Algorithm: algo})
			if err != nil {
				t.Fatalf("seed %d algo %v: %v", seed, algo, err)
			}
			got = append(got, rep.Atomic)
		}
		if got[0] != got[1] || got[1] != got[2] {
			t.Fatalf("seed %d: disagreement LBT=%v FZF=%v oracle=%v", seed, got[0], got[1], got[2])
		}
	}
}

func TestZonesAgreesWithOracleK1(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		h := generator.Random(generator.Config{Seed: seed, Ops: 22, Concurrency: 4})
		a, err := NewVerifier().Check(h, 1, Options{Algorithm: AlgoZones})
		if err != nil {
			t.Fatalf("zones: %v", err)
		}
		b, err := NewVerifier().Check(h, 1, Options{Algorithm: AlgoOracle})
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if a.Atomic != b.Atomic {
			t.Fatalf("seed %d: zones=%v oracle=%v history:\n%s", seed, a.Atomic, b.Atomic, h)
		}
	}
}

func TestSmallestKSequentialDepths(t *testing.T) {
	for _, depth := range []int{0, 1, 2, 3, 4} {
		h := generator.KAtomic(generator.Config{
			Seed: 7, Ops: 40, Concurrency: 1,
			StalenessDepth: depth, ForceDepth: true, ReadFraction: 0.4,
		})
		k, err := NewVerifier().SmallestK(h, Options{})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if k != depth+1 {
			t.Errorf("depth %d: SmallestK = %d, want %d", depth, k, depth+1)
		}
	}
}

func TestSmallestKEmpty(t *testing.T) {
	k, err := NewVerifier().SmallestK(history.New(nil), Options{})
	if err != nil || k != 1 {
		t.Errorf("SmallestK(empty) = %d, %v; want 1, nil", k, err)
	}
}

func TestSmallestKMonotoneUnderInjection(t *testing.T) {
	base := generator.KAtomic(generator.Config{
		Seed: 3, Ops: 30, Concurrency: 1, StalenessDepth: 0, ReadFraction: 0.5,
	})
	k0, err := NewVerifier().SmallestK(base, Options{})
	if err != nil {
		t.Fatalf("SmallestK: %v", err)
	}
	mut := generator.InjectStaleness(base, 9, 1.0, 2)
	k1, err := NewVerifier().SmallestK(mut, Options{})
	if err != nil {
		t.Fatalf("SmallestK mutant: %v", err)
	}
	if k1 < k0 {
		t.Errorf("staleness injection decreased k: %d -> %d", k0, k1)
	}
	if k1 < 2 {
		t.Errorf("full injection at extra depth 2 left k=%d", k1)
	}
}

func TestCheckWeighted(t *testing.T) {
	h := history.MustParse("w 1 0 10 weight=2; w 2 20 30 weight=3; r 1 40 50")
	rep, err := CheckWeighted(h, 4, Options{})
	if err != nil {
		t.Fatalf("CheckWeighted: %v", err)
	}
	if rep.Atomic {
		t.Error("bound 4 accepted separation 5")
	}
	rep, err = CheckWeighted(h, 5, Options{})
	if err != nil {
		t.Fatalf("CheckWeighted: %v", err)
	}
	if !rep.Atomic {
		t.Error("bound 5 rejected separation 5")
	}
}

func TestWitnessExposedAndChecked(t *testing.T) {
	h := generator.KAtomic(generator.Config{Seed: 5, Ops: 30, Concurrency: 3, StalenessDepth: 1})
	for _, algo := range []Algorithm{AlgoLBT, AlgoFZF, AlgoOracle} {
		rep, err := NewVerifier().Check(h, 2, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("algo %v: %v", algo, err)
		}
		if !rep.Atomic {
			t.Fatalf("algo %v rejected generated 2-atomic history", algo)
		}
		if len(rep.Witness) != rep.Prepared.Len() {
			t.Errorf("algo %v: witness length %d != %d", algo, len(rep.Witness), rep.Prepared.Len())
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		AlgoAuto: "auto", AlgoZones: "zones", AlgoLBT: "lbt",
		AlgoFZF: "fzf", AlgoOracle: "oracle", Algorithm(42): "Algorithm(42)",
	}
	for a, want := range names {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", a, got, want)
		}
	}
}

package generator

import (
	"testing"

	"kat/internal/history"
	"kat/internal/oracle"
	"kat/internal/witness"
)

func prepare(t *testing.T, h *history.History) *history.Prepared {
	t.Helper()
	p, err := history.Prepare(h)
	if err != nil {
		t.Fatalf("generated history fails Prepare: %v", err)
	}
	return p
}

func TestKAtomicIsPreparable(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h := KAtomic(Config{Seed: seed, Ops: 60, Concurrency: 3, StalenessDepth: 1})
		prepare(t, h)
	}
}

func TestKAtomicRespectsDepth(t *testing.T) {
	for _, depth := range []int{0, 1, 2, 3} {
		for seed := int64(0); seed < 8; seed++ {
			h := KAtomic(Config{Seed: seed, Ops: 30, Concurrency: 2, StalenessDepth: depth})
			p := prepare(t, h)
			res, err := oracle.CheckK(p, depth+1, oracle.Options{})
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if !res.Atomic {
				t.Errorf("depth=%d seed=%d: generated history not %d-atomic", depth, seed, depth+1)
			}
			if err := witness.Validate(p, res.Witness, depth+1); err != nil {
				t.Errorf("oracle witness invalid: %v", err)
			}
		}
	}
}

func TestKAtomicForceDepthSequential(t *testing.T) {
	// Concurrency 1 → disjoint intervals → commit order is forced, so a
	// forced depth-d read makes the history exactly (d+1)-atomic.
	for _, depth := range []int{1, 2, 3} {
		h := KAtomic(Config{
			Seed: 11, Ops: 40, Concurrency: 1,
			StalenessDepth: depth, ForceDepth: true, ReadFraction: 0.4,
		})
		p := prepare(t, h)
		atK, err := oracle.CheckK(p, depth+1, oracle.Options{})
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if !atK.Atomic {
			t.Fatalf("depth=%d: not %d-atomic", depth, depth+1)
		}
		below, err := oracle.CheckK(p, depth, oracle.Options{})
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if below.Atomic {
			t.Errorf("depth=%d: unexpectedly %d-atomic (force failed)", depth, depth)
		}
	}
}

func TestKAtomicFirstOpIsWrite(t *testing.T) {
	h := KAtomic(Config{Seed: 3, Ops: 10, ReadFraction: 0.99})
	if h.Len() == 0 {
		t.Fatal("empty history")
	}
	// After normalization order may change, but some write must exist and
	// no read may dangle (Prepare already checks); ensure write count >= 1.
	if h.Writes() == 0 {
		t.Error("no writes generated")
	}
}

func TestKAtomicConcurrencyGrowsOverlap(t *testing.T) {
	low := history.Measure(KAtomic(Config{Seed: 5, Ops: 200, Concurrency: 1, ReadFraction: 0.01}))
	high := history.Measure(KAtomic(Config{Seed: 5, Ops: 200, Concurrency: 16, ReadFraction: 0.01}))
	if low.MaxConcurrentWrites > 2 {
		t.Errorf("sequential config has concurrency %d", low.MaxConcurrentWrites)
	}
	if high.MaxConcurrentWrites < 4 {
		t.Errorf("concurrent config has concurrency %d, want >= 4", high.MaxConcurrentWrites)
	}
}

func TestAdversarialProducesConcurrentWrites(t *testing.T) {
	h := Adversarial(Config{Seed: 9, Ops: 300, Concurrency: 32})
	st := history.Measure(h)
	if st.MaxConcurrentWrites < 8 {
		t.Errorf("adversarial concurrency = %d, want >= 8", st.MaxConcurrentWrites)
	}
	p := prepare(t, h)
	res, err := oracle.CheckK(p, 2, oracle.Options{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if !res.Atomic {
		t.Error("adversarial history must still be 2-atomic")
	}
}

func TestRandomIsPreparable(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		h := Random(Config{Seed: seed, Ops: 40, Concurrency: 4})
		prepare(t, h)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(Config{Seed: 77, Ops: 50, Concurrency: 3})
	b := Random(Config{Seed: 77, Ops: 50, Concurrency: 3})
	if a.String() != b.String() {
		t.Error("same seed produced different histories")
	}
	c := Random(Config{Seed: 78, Ops: 50, Concurrency: 3})
	if a.String() == c.String() {
		t.Error("different seeds produced identical histories")
	}
}

func TestInjectStalenessDeepens(t *testing.T) {
	base := KAtomic(Config{Seed: 21, Ops: 40, Concurrency: 1, StalenessDepth: 0, ReadFraction: 0.5})
	p := prepare(t, base)
	res, err := oracle.CheckK(p, 1, oracle.Options{})
	if err != nil || !res.Atomic {
		t.Fatalf("base should be 1-atomic: %v %+v", err, res)
	}
	mut := InjectStaleness(base, 1, 1.0, 3)
	pm := prepare(t, mut)
	res, err = oracle.CheckK(pm, 1, oracle.Options{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if res.Atomic {
		t.Error("full staleness injection at depth 3 left history 1-atomic")
	}
}

func TestInjectStalenessZeroFractionIsIdentityModuloNormalize(t *testing.T) {
	base := KAtomic(Config{Seed: 22, Ops: 30, Concurrency: 2, StalenessDepth: 1})
	mut := InjectStaleness(base, 5, 0, 2)
	if base.Len() != mut.Len() || base.Writes() != mut.Writes() {
		t.Error("zero-fraction mutation changed history shape")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Ops: -5, ReadFraction: 2, Concurrency: 0, StalenessDepth: -1}
	cfg.fill()
	if cfg.Ops != 0 || cfg.ReadFraction != 0.5 || cfg.Concurrency != 1 || cfg.StalenessDepth != 0 {
		t.Errorf("fill() = %+v", cfg)
	}
}

func TestLBTTrapStructure(t *testing.T) {
	h := LBTTrap(10, 5)
	p := prepare(t, h)
	// 2 doom writes + 2 doom reads + 10 staircase writes + 10 staircase
	// reads + 1 trap write + 5 goods.
	if want := 2 + 2 + 10 + 10 + 1 + 5; p.Len() != want {
		t.Errorf("ops = %d, want %d", p.Len(), want)
	}
	res, err := oracle.CheckK(p, 2, oracle.Options{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if res.Atomic {
		t.Error("trap history should not be 2-atomic")
	}
}

func TestLBTTrapDegenerateParams(t *testing.T) {
	for _, h := range []*history.History{LBTTrap(0, 0), LBTTrap(1, 0), LBTTrap(-3, -1)} {
		prepare(t, h)
	}
}

var benchSink *history.History

// BenchmarkKAtomic is one small generated register: B/op and allocs/op show
// what building and normalizing it costs beyond the operations themselves.
func BenchmarkKAtomic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = KAtomic(Config{Seed: int64(i), Ops: 32, Concurrency: 2, ReadFraction: 0.5})
	}
}

package core

import (
	"fmt"
	"slices"
	"testing"

	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/refcheck"
	"kat/internal/witness"
)

func prepGen(t *testing.T, cfg generator.Config, kind string) *history.Prepared {
	t.Helper()
	var h *history.History
	switch kind {
	case "katomic":
		h = generator.KAtomic(cfg)
	case "random":
		h = generator.Random(cfg)
	default:
		t.Fatalf("unknown kind %s", kind)
	}
	p, err := history.Build(h)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return p
}

// workloads covers accepting and rejecting histories across the algorithm
// dispatch: 1-atomic, 2-atomic, deeper-stale, and unconstrained random.
func workloads(t *testing.T) map[string]*history.Prepared {
	t.Helper()
	return map[string]*history.Prepared{
		"linearizable": prepGen(t, generator.Config{Seed: 1, Ops: 600, Concurrency: 3, StalenessDepth: 0, ReadFraction: 0.6}, "katomic"),
		"2atomic":      prepGen(t, generator.Config{Seed: 2, Ops: 600, Concurrency: 4, StalenessDepth: 1, ForceDepth: true, ReadFraction: 0.6}, "katomic"),
		"deep":         prepGen(t, generator.Config{Seed: 3, Ops: 160, Concurrency: 2, StalenessDepth: 3, ForceDepth: true, ReadFraction: 0.5}, "katomic"),
		"random":       prepGen(t, generator.Config{Seed: 4, Ops: 120, Concurrency: 3, ReadFraction: 0.5}, "random"),
	}
}

// TestCheckPreparedParallelMatchesSequential proves the chunk-scheduled
// verdicts identical to the sequential engine for every worker count, k, and
// workload — the core acceptance property of the (key, chunk) scheduler.
func TestCheckPreparedParallelMatchesSequential(t *testing.T) {
	seqV := NewVerifier()
	for name, p := range workloads(t) {
		for _, k := range []int{1, 2, 3} {
			if k >= 3 && p.Len() > 200 {
				continue // keep the oracle tractable
			}
			seq, seqErr := seqV.CheckPrepared(p, k, Options{})
			for _, workers := range []int{1, 2, 3, 4} {
				par, parErr := CheckPreparedParallel(p, k, Options{MinParallelOps: -1}, workers)
				if (seqErr == nil) != (parErr == nil) {
					t.Fatalf("%s k=%d workers=%d: err %v vs %v", name, k, workers, seqErr, parErr)
				}
				if seqErr != nil {
					continue
				}
				if par.Atomic != seq.Atomic {
					t.Fatalf("%s k=%d workers=%d: atomic %v, sequential %v", name, k, workers, par.Atomic, seq.Atomic)
				}
				if par.Atomic && par.Witness != nil {
					if err := witness.Validate(p, par.Witness, k); err != nil {
						t.Fatalf("%s k=%d workers=%d: invalid parallel witness: %v", name, k, workers, err)
					}
				}
				// The k=2 chunk path promises a byte-identical witness.
				if k == 2 && seq.Atomic {
					if len(par.Witness) != len(seq.Witness) {
						t.Fatalf("%s workers=%d: witness lengths differ", name, workers)
					}
					for i := range par.Witness {
						if par.Witness[i] != seq.Witness[i] {
							t.Fatalf("%s workers=%d: witness diverges at %d", name, workers, i)
						}
					}
				}
			}
		}
	}
}

// TestSmallestKParallelMatchesSequential proves the segment-fanned
// smallest-k search equals the sequential one for every worker count.
func TestSmallestKParallelMatchesSequential(t *testing.T) {
	seqV := NewVerifier()
	for name, p := range workloads(t) {
		if p.Len() > 300 {
			continue
		}
		want, seqErr := seqV.SmallestKPrepared(p, Options{})
		for _, workers := range []int{1, 2, 4} {
			got, err := SmallestKPreparedParallel(p, Options{MinParallelOps: -1}, workers)
			if (seqErr == nil) != (err == nil) {
				t.Fatalf("%s workers=%d: err %v vs %v", name, workers, err, seqErr)
			}
			if seqErr == nil && got != want {
				t.Fatalf("%s workers=%d: smallest k = %d, sequential %d", name, workers, got, want)
			}
		}
	}
}

// engine is one way of running the engine in TestEngineInvariance: run
// executes f against one of its Verifiers and returns once f and everything
// it forked has finished; probes sums (and resets) the oracle probes of all
// its Verifiers.
type engine struct {
	name   string
	run    func(f func(v *Verifier))
	probes func() int
}

func poolEngine(t *testing.T, workers int) engine {
	p := NewPool(workers)
	t.Cleanup(p.Close)
	return engine{
		name: fmt.Sprintf("pool%d", workers),
		run: func(f func(v *Verifier)) {
			done := make(chan struct{})
			p.Submit(func(v *Verifier) { f(v); close(done) })
			<-done
		},
		probes: func() (n int) {
			for i := range p.vs {
				n += p.vs[i].TakeLadder().OracleProbes
			}
			return n
		},
	}
}

// TestEngineInvariance: what the engine computes is a function of the
// prepared history alone. A standalone Verifier and a worker of 1- and
// 4-worker pools, with the default fork threshold and with forking forced,
// return the same smallest k in the same number of oracle
// probes, the same fixed-k verdicts for k = 1..4, and for k = 2 the same
// witness byte for byte.
func TestEngineInvariance(t *testing.T) {
	v := NewVerifier()
	engines := []engine{
		{"verifier", func(f func(v *Verifier)) { f(v) }, func() int { return v.TakeLadder().OracleProbes }},
		poolEngine(t, 1),
		poolEngine(t, 4),
	}
	type outcome struct {
		k, probes int
		kErr      bool
		atomic    [4]bool
		checkErr  [4]bool
		witness   []int
	}
	observe := func(e engine, p *history.Prepared, opts Options) (o outcome) {
		e.run(func(v *Verifier) {
			k, err := v.SmallestKPrepared(p, opts)
			o.k, o.kErr = k, err != nil
			for k := 1; k <= 4; k++ {
				rep, err := v.CheckPrepared(p, k, opts)
				o.atomic[k-1], o.checkErr[k-1] = rep.Atomic, err != nil
				if k == 2 {
					o.witness = slices.Clone(rep.Witness)
				}
			}
		})
		o.probes = e.probes()
		return o
	}
	histories, searched := 0, 0
	check := func(id string, p *history.Prepared) {
		histories++
		want := observe(engines[0], p, Options{})
		if want.probes > 0 {
			searched++
		}
		for _, e := range engines {
			for _, minOps := range []int{0, -1} {
				got := observe(e, p, Options{MinParallelOps: minOps})
				if got.k != want.k || got.kErr != want.kErr || got.probes != want.probes ||
					got.atomic != want.atomic || got.checkErr != want.checkErr || !slices.Equal(got.witness, want.witness) {
					t.Fatalf("%s: %s MinParallelOps=%d: %+v, standalone Verifier %+v", id, e.name, minOps, got, want)
				}
			}
		}
	}
	for depth := 0; depth <= 6; depth++ {
		for conc := 1; conc <= 4; conc++ {
			p := prepGen(t, generator.Config{
				Seed: int64(10*depth + conc), Ops: 90, Concurrency: conc,
				StalenessDepth: depth, ForceDepth: true, ReadFraction: 0.5,
			}, "katomic")
			check(fmt.Sprintf("depth %d conc %d", depth, conc), p)
		}
	}
	for n := 1; n <= 4; n++ {
		refcheck.EnumerateHistories(n, func(h *history.History) {
			if p, err := history.Prepare(history.Normalize(h)); err == nil {
				check(h.String(), p)
			}
		})
	}
	if searched == 0 {
		t.Fatalf("none of %d histories reached the oracle; the probe comparison is vacuous", histories)
	}
}

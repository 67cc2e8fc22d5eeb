package core

import (
	"fmt"
	"runtime"
	"sync"

	"kat/internal/fzf"
	"kat/internal/history"
	"kat/internal/lbt"
	"kat/internal/oracle"
	"kat/internal/witness"
	"kat/internal/zone"
)

// Verifier is a reusable verification engine: it owns the scratch arenas the
// hot-path algorithms need (FZF buffers, witness-validation buffers) and
// reuses them across Check/SmallestK calls. A long-lived Verifier makes the
// k=2 FZF path allocation-free at steady state, which is what a
// high-throughput multi-key pipeline wants.
//
// A Verifier is NOT safe for concurrent use; give each goroutine its own
// (the parallel trace checker does exactly that). The zero value is ready to
// use.
//
// Reports produced through a Verifier may alias its internal buffers: a
// Report's Witness is valid only until the next call on the same Verifier.
// Copy it (or use the one-shot package functions) if it must outlive that.
type Verifier struct {
	fzf  fzf.Scratch
	wit  witness.Scratch
	prep history.PrepareScratch
	// zone and ops back the (key, chunk) scheduler: zone holds the chunk
	// decomposition a forked verification reads, ops is the chunk-op index
	// buffer used for memo hashing and order translation.
	zone zone.Scratch
	ops  []int
	// oracleProbes counts smallest-k oracle calls (read by tests only).
	oracleProbes int
}

// NewVerifier returns a fresh engine.
func NewVerifier() *Verifier { return &Verifier{} }

// ForEachWorker runs fn(v, i) for every i in [0, n) over a bounded worker
// pool. Each worker owns one Verifier, so scratch arenas are reused across
// the items it handles; callers write results into disjoint per-index slots,
// so no locking is needed and output is deterministic for any worker count.
// workers <= 0 uses GOMAXPROCS. The trace checker and corpus metrics both
// fan out through this.
func ForEachWorker(n, workers int, fn func(v *Verifier, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		v := NewVerifier()
		for i := 0; i < n; i++ {
			fn(v, i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := NewVerifier()
			for i := range next {
				fn(v, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Check decides whether the history is k-atomic. The input is normalized
// internally; anomalies surface as errors.
func (v *Verifier) Check(h *history.History, k int, opts Options) (Report, error) {
	if k < 1 {
		return Report{}, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	p, err := history.PrepareInPlace(history.Normalize(h))
	if err != nil {
		return Report{}, fmt.Errorf("core: %w", err)
	}
	return v.CheckPrepared(p, k, opts)
}

// PrepareOwned normalizes and prepares a history the caller owns and will
// not use afterwards: normalization rewrites h in place and the prepared
// index reuses the Verifier's scratch buffers, so a stream of segments
// allocates no fresh index per segment at steady state. The result aliases
// the Verifier and is valid only until its next PrepareOwned. The streaming
// engine prepares every closed segment once this way and hands the result to
// each property checker (or, for keys whose verdict is already settled, keeps
// only the anomaly error).
func (v *Verifier) PrepareOwned(h *history.History) (*history.Prepared, error) {
	p, err := history.PrepareInPlaceScratch(history.NormalizeInPlace(h), &v.prep)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return p, nil
}

// CheckPrepared is Check for histories already normalized and prepared.
func (v *Verifier) CheckPrepared(p *history.Prepared, k int, opts Options) (Report, error) {
	if k < 1 {
		return Report{}, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	algo := resolveAlgo(k, opts)
	rep := Report{K: k, Algorithm: algo, Prepared: p}
	switch algo {
	case AlgoZones:
		if k != 1 {
			return Report{}, fmt.Errorf("%w: zones requires k=1, got k=%d", ErrAlgorithmMismatch, k)
		}
		ok, _ := zone.Check1Atomic(p)
		rep.Atomic = ok
		if ok {
			// The zone test does not produce an order; obtain one from
			// the oracle, which is fast on 1-atomic histories.
			res, err := oracle.CheckK(p, 1, oracle.Options{MaxStates: opts.OracleStates})
			if err == nil && res.Atomic {
				rep.Witness = res.Witness
			}
		}
	case AlgoLBT:
		if k != 2 {
			return Report{}, fmt.Errorf("%w: LBT requires k=2, got k=%d", ErrAlgorithmMismatch, k)
		}
		res := lbt.Check(p, lbt.Options{NoDeepening: opts.LBTNoDeepening})
		rep.Atomic = res.Atomic
		rep.Witness = res.Witness
	case AlgoFZF:
		if k != 2 {
			return Report{}, fmt.Errorf("%w: FZF requires k=2, got k=%d", ErrAlgorithmMismatch, k)
		}
		res := fzf.CheckScratch(p, &v.fzf)
		rep.Atomic = res.Atomic
		rep.Witness = res.Witness
	case AlgoOracle:
		res, err := oracle.CheckK(p, k, oracle.Options{MaxStates: opts.OracleStates})
		if err != nil {
			return Report{}, fmt.Errorf("core: %w", err)
		}
		rep.Atomic = res.Atomic
		rep.Witness = res.Witness
	default:
		return Report{}, fmt.Errorf("core: unknown algorithm %v", algo)
	}
	if rep.Atomic && rep.Witness != nil && !opts.SkipWitnessCheck {
		if err := witness.ValidateScratch(p, rep.Witness, k, &v.wit); err != nil {
			return Report{}, fmt.Errorf("core: internal error, invalid witness: %w", err)
		}
	}
	return rep, nil
}

// SmallestK computes the least k for which the history is k-atomic, using
// the fast checkers for k=1,2 and a search with the exact oracle above that
// (Section II-B: given a k-AV solution, search for the smallest k; see
// Verifier.SmallestKPrepared for the order of the probes). Every
// anomaly-free history is W-atomic where W is its number of writes, so the
// search is bounded.
func (v *Verifier) SmallestK(h *history.History, opts Options) (int, error) {
	p, err := history.PrepareInPlace(history.Normalize(h))
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return v.SmallestKPrepared(p, opts)
}

// SmallestKPrepared is SmallestK for prepared histories. After the cheap
// k=1 probe the search climbs from the forced-staleness lower bound lb
// (writes pinned between a read and its dictating write by real time alone):
// FZF when lb <= 2, then the oracle at max(3, lb), +1, +3, +7, ... until a
// probe succeeds, then a bisection of the last gap. The oracle's cost grows
// with k and real staleness sits at or just above lb, so the cost tracks the
// answer instead of the number of writes; answer == lb is one oracle call.
func (v *Verifier) SmallestKPrepared(p *history.Prepared, opts Options) (int, error) {
	if p.Len() == 0 {
		return 1, nil
	}
	// Probe k=1 before paying for the lower bound: healthy workloads are
	// mostly 1-atomic and the zone test is allocation-light.
	if ok, _ := zone.Check1Atomic(p); ok {
		return 1, nil
	}
	lb := history.ForcedStaleness(p)
	if lb <= 2 {
		if res := fzf.CheckScratch(p, &v.fzf); res.Atomic {
			return 2, nil
		}
	}
	// Every anomaly-free history is W-atomic for W its number of writes, so
	// the climb is capped there; monotone because a k-atomic order is also
	// (k+1)-atomic. lo-1 is the largest k known not to work.
	lo := max(3, lb)
	hi := max(lo, p.H.Writes())
	for k, step := lo, 1; ; k, step = min(k+step, hi), 2*step {
		ok, err := v.oracleK(p, k, opts)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = k
			break
		}
		if k == hi {
			return 0, fmt.Errorf("core: history not even %d-atomic; input may violate model assumptions", hi)
		}
		lo = k + 1
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		ok, err := v.oracleK(p, mid, opts)
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

// oracleK is one probe of the smallest-k search. An exhausted OracleStates
// budget is an error, never a verdict.
func (v *Verifier) oracleK(p *history.Prepared, k int, opts Options) (bool, error) {
	v.oracleProbes++
	res, err := oracle.CheckK(p, k, oracle.Options{MaxStates: opts.OracleStates})
	if err != nil {
		return false, fmt.Errorf("core: %w", err)
	}
	return res.Atomic, nil
}

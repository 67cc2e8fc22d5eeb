package core

// The engine: one fixed-k dispatch (CheckPrepared) and one smallest-k ladder
// (SmallestKPrepared), both methods of Verifier. A pool worker's Verifier
// has idle workers to fork units onto; a standalone one runs every unit
// inline.
//
// One decomposition, fixed by the prepared history. The paper's own structure
// makes the units independent: a history decomposes into chunks (Stage 1 of
// FZF) whose Stage 2 verdicts never interact, and into safe-cut segments
// whose k-atomicity verdicts compose exactly (the segment-equivalence lemma
// in internal/zone/cut.go). k=2 verifies chunk by chunk. The exact oracle —
// exponential, so unit size is what matters — only ever sees one safe-cut
// segment at a time, in the fixed-k check and in the smallest-k ladder alike,
// and the ladder computes the cuts only once its polynomial rungs (zones,
// then FZF, both read off one decomposition) have failed to settle the unit.
// Oracle state budgets (OracleStates) apply per segment.
//
// What a unit is handed. The streaming engine hands it one closed segment at
// a time; the offline keyed checks (trace.CheckParallel and
// SmallestKByKeyParallel) cut each register, in whatever order it is listed,
// at its raw safe cuts before anything is prepared and hand it one run of
// segments at a time, so the histories prepared here, and the scratch they
// grow, are bounded by a run, not by the register. Only a register with an
// anomaly arrives whole, as one run that the builder rejects.
//
// When it forks. Whether units go onto the pool or run one after another is
// decided by Verifier.forks — more than one worker and at least
// Options.MinParallelOps operations — and by nothing else. It affects
// scheduling only: the verdict, the smallest k, the oracle's units and the
// number of oracle probes are the same for a standalone Verifier and a pool
// of any size (TestEngineInvariance). The one thing a fork adds is that a
// smallest-k search first cuts its history into a few runs of segments, so
// the polynomial rungs spread over the workers too; each run then climbs the
// same ladder. Details per algorithm:
//
//   - k=1 (zones): one unit; the witness comes from one oracle call on the
//     whole history, which is fast on 1-atomic input.
//   - k=2 (FZF): Atomic, FailedChunk, Reason, Chunks, Dangling, and the
//     Witness of the forked form are byte-identical to fzf.CheckScratch —
//     per-chunk verdicts are position-independent, failures combine by
//     minimum chunk index, and fzf.Assemble reproduces the sequential
//     concatenation. OrdersTried may exceed the inline count on rejection
//     (inline stops at the first failing chunk; forked workers may have
//     tried later chunks already).
//   - k>=3 (oracle) and smallest-k: a positive witness is the in-order
//     concatenation of per-segment witnesses.
//
// All combining is commutative (AND of verdicts, min failing index, max
// smallest-k), so results are deterministic for any schedule.

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"kat/internal/fzf"
	"kat/internal/history"
	"kat/internal/lbt"
	"kat/internal/oracle"
	"kat/internal/witness"
	"kat/internal/zone"
)

// CheckPreparedParallel is CheckPrepared run from inside a pool of the
// given size (workers <= 0 uses GOMAXPROCS), so even a single
// big register spreads its units over several cores. The report equals
// Verifier.CheckPrepared's for any worker count (see the comment above).
//
// This one-shot form starts and tears down a pool (cold scratch arenas) per
// call; callers verifying many histories should go through the trace entry
// points, which amortize one pool — and its per-worker Verifiers — across
// every run and chunk of the batch.
func CheckPreparedParallel(p *history.Prepared, k int, opts Options, workers int) (Report, error) {
	var rep Report
	var err error
	Run(workers, func(v *Verifier) { rep, err = v.CheckPrepared(p, k, opts) })
	return rep, err
}

// SmallestKPreparedParallel is SmallestKPrepared run from inside a pool
// (workers <= 0 uses GOMAXPROCS).
func SmallestKPreparedParallel(p *history.Prepared, opts Options, workers int) (int, error) {
	var k int
	var err error
	Run(workers, func(v *Verifier) { k, err = v.SmallestKPrepared(p, opts) })
	return k, err
}

// forks reports whether a unit of n operations is worth spreading over the
// pool: there must be other workers to take the pieces, and enough work to
// pay for scheduling them (Options.MinParallelOps; negative always forks,
// which on one worker runs the forked form inline).
func (v *Verifier) forks(n int, opts Options) bool {
	minOps := opts.MinParallelOps
	if minOps == 0 {
		minOps = DefaultMinParallelOps
	}
	return minOps < 0 || (v.workers() > 1 && n >= minOps)
}

// resolveAlgo applies the AlgoAuto defaulting rule.
func resolveAlgo(k int, opts Options) Algorithm {
	algo := opts.Algorithm
	if algo == 0 || algo == AlgoAuto {
		switch k {
		case 1:
			algo = AlgoZones
		case 2:
			algo = AlgoFZF
		default:
			algo = AlgoOracle
		}
	}
	return algo
}

// CheckPrepared is Check for histories already normalized and prepared: the
// engine's one algorithm switch. On a pool worker it forks chunk and segment
// units for free workers to claim when the history is big enough to be worth
// it.
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
		rep.Atomic, _ = zone.Check1Atomic(p)
		if rep.Atomic {
			// The zone test does not produce an order; obtain one from the
			// oracle, which is fast on 1-atomic histories.
			res, err := oracle.CheckKScratch(p, 1, oracle.Options{MaxStates: opts.OracleStates}, &v.orc)
			if err == nil && res.Atomic {
				rep.Witness = res.Witness
			}
		}
	case AlgoLBT:
		if k != 2 {
			return Report{}, fmt.Errorf("%w: LBT requires k=2, got k=%d", ErrAlgorithmMismatch, k)
		}
		// LBT's epochs are inherently sequential: one unit.
		res := lbt.Check(p, lbt.Options{})
		rep.Atomic, rep.Witness = res.Atomic, res.Witness
	case AlgoFZF:
		if k != 2 {
			return Report{}, fmt.Errorf("%w: FZF requires k=2, got k=%d", ErrAlgorithmMismatch, k)
		}
		var res fzf.Result
		if !v.forks(p.Len(), opts) {
			// The same chunks walked in place: no per-chunk order buffers,
			// so a reused Verifier allocates nothing.
			res = fzf.CheckScratch(p, &v.fzf)
		} else {
			res = v.fzfChunks(p)
		}
		rep.Atomic, rep.Witness = res.Atomic, res.Witness
	case AlgoOracle:
		var err error
		if rep.Atomic, rep.Witness, err = v.oracleSegments(p, k, opts); err != nil {
			return Report{}, err
		}
	default:
		return Report{}, fmt.Errorf("core: unknown algorithm %v", algo)
	}
	if rep.Atomic && rep.Witness != nil {
		if err := witness.ValidateScratch(p, rep.Witness, k, &v.wit); err != nil {
			return Report{}, fmt.Errorf("core: internal error, invalid witness: %w", err)
		}
	}
	return rep, nil
}

// SmallestKPrepared is SmallestK for prepared histories, computed with the
// one ladder below. A history big enough to fork is first cut into a few
// runs of safe-cut segments so the ladder's polynomial rungs spread over the
// workers too; that changes neither the answer nor what reaches the oracle
// (a run's own cuts are the history's cuts inside it).
func (v *Verifier) SmallestKPrepared(p *history.Prepared, opts Options) (int, error) {
	if v.forks(p.Len(), opts) {
		// The runs outlive the scratch segmentsOf returns, which each run's
		// own ladder reuses.
		if runs := groupSegments(slices.Clone(v.segmentsOf(p)), 4*v.workers()); len(runs) > 1 {
			return v.maxSmallestK(p, runs, opts, false)
		}
	}
	return v.smallestK(p, opts, false)
}

// smallestK is the smallest-k ladder (Section II-B) on one unit. The unit is
// decomposed once (FZF's Stage 1, in the Verifier's scratch), and healthy
// units are settled off that one decomposition: the zone test (k = 1), then
// FZF's Stage 2 verdict alone (k = 2; nothing here validates a witness). A
// unit FZF rejects is split at its safe cuts into segments (segmentK), the
// answer their maximum by the segment-equivalence lemma; one that does not
// split is bracketed and climbs here.
func (v *Verifier) smallestK(p *history.Prepared, opts Options, segment bool) (int, error) {
	if p.Len() == 0 {
		v.ladder.Zone++
		return 1, nil
	}
	if segment {
		return v.segmentK(p, opts)
	}
	dec := zone.DecomposeScratch(p, &v.zone)
	if dec.OneAtomic() {
		v.ladder.Zone++
		return 1, nil
	}
	if fzf.Decide(p, dec, &v.fzf) {
		v.ladder.FZF++
		return 2, nil
	}
	if segs := v.segmentsOf(p); len(segs) > 1 {
		return v.maxSmallestK(p, segs, opts, true)
	}
	lo, hi := history.StalenessBracket(p, &v.stale, 3)
	return v.climb(p, lo, hi, opts)
}

// segmentK is the ladder on a segment of a unit FZF refuted, whose maximum
// exceeds 2, so 2 answers for any segment at most 2-atomic. The segment is
// bracketed first (floor 2): hi <= 2 settles it at 2, lo >= 3 means FZF would
// refute it, and only in between is it decomposed for FZF's verdict — the
// answers and rung counts of asking FZF first (TestLadderMatchesReferenceOrder).
func (v *Verifier) segmentK(p *history.Prepared, opts Options) (int, error) {
	lo, hi := history.StalenessBracket(p, &v.stale, 2)
	if hi <= 2 || lo == 2 && fzf.Decide(p, zone.DecomposeScratch(p, &v.zone), &v.fzf) {
		v.ladder.FZF++
		return 2, nil
	}
	return v.climb(p, max(lo, 3), hi, opts)
}

// maxSmallestK runs the ladder on each [lo, hi) range of p — runs of
// segments, or single segments — and returns the maximum. When p does not
// fork, the units run on v in range order, each view in v's buffer for its
// depth as overSegments would place it, and v's ladder counts them as they
// go: no closure and no per-unit slot, so a warm worker's climb allocates
// nothing. Forked, each unit's ladder counts are taken off the Verifier that
// ran it and added to v's.
func (v *Verifier) maxSmallestK(p *history.Prepared, segs [][2]int, opts Options, segment bool) (int, error) {
	if !v.forks(p.Len(), opts) {
		view := &v.views[0]
		if segment {
			view = &v.views[1]
		}
		k := 0
		for _, s := range segs {
			sub, err := history.SubPrepared(p, s[0], s[1], view)
			if err != nil {
				return 0, fmt.Errorf("core: %w", err)
			}
			sk, err := v.smallestK(sub, opts, segment)
			if err != nil {
				return 0, err
			}
			k = max(k, sk)
		}
		return k, nil
	}
	units := make([]struct {
		k int
		l Ladder
	}, len(segs))
	err := v.overSegments(p, segs, opts, segment, func(w *Verifier, i int, view *history.Prepared) (err error) {
		u, before := &units[i], w.TakeLadder()
		u.k, err = w.smallestK(view, opts, segment)
		u.l, w.ladder = w.TakeLadder(), before
		return err
	})
	k := 0
	for _, u := range units {
		k = max(k, u.k)
		v.ladder.Add(u.l)
	}
	return k, err
}

// climb settles a unit FZF refuted off its staleness bracket [lo, hi], lo >= 3
// (history.StalenessBracket: hi is a witness, lo−1 is known not to work). lo >=
// hi settles it at hi with no oracle call; otherwise it probes lo, lo+1, lo+3,
// ... below hi until one succeeds, then bisects the last gap (k-atomic implies
// (k+1)-atomic), so hi is never probed. An exhausted OracleStates budget is an
// error, never a verdict.
func (v *Verifier) climb(p *history.Prepared, lo, hi int, opts Options) (int, error) {
	probe := func(k int) (bool, error) {
		v.ladder.OracleProbes++
		res, err := oracle.CheckKScratch(p, k, oracle.Options{MaxStates: opts.OracleStates}, &v.orc)
		if err != nil {
			return false, fmt.Errorf("core: %w", err)
		}
		return res.Atomic, nil
	}
	for k, step := lo, 1; k < hi; k, step = min(k+step, hi), 2*step {
		ok, err := probe(k)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = k
			break
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
	v.ladder.Climb++
	return hi, nil
}

// fzfChunks is the chunk-parallel form of fzf.CheckScratch: Stage 1 runs on
// the calling worker, Stage 2 verdicts fork as chunk units, and Stage 3
// combines them — first failing chunk by index, or the Lemma 4.1 witness
// assembly.
func (v *Verifier) fzfChunks(p *history.Prepared) fzf.Result {
	dec := zone.DecomposeScratch(p, &v.zone)
	res := fzf.Result{
		Chunks:      len(dec.Chunks),
		Dangling:    len(dec.Dangling),
		FailedChunk: -1,
	}
	nc := len(dec.Chunks)
	orders := make([][]int, nc)
	reasons := make([]string, nc)
	var tried atomic.Int64
	var minFailed atomic.Int64
	minFailed.Store(math.MaxInt64)
	v.Fork(nc, func(wv *Verifier, ci int) {
		if minFailed.Load() < int64(ci) {
			// A strictly earlier chunk already failed; this chunk can no
			// longer affect the (min-index) verdict.
			return
		}
		ord, tr, reason := fzf.CheckChunk(p, dec.Chunks[ci], &wv.fzf)
		tried.Add(int64(tr))
		if ord == nil {
			reasons[ci] = reason
			atomicMin(&minFailed, int64(ci))
		} else {
			orders[ci] = slices.Clone(ord)
		}
	})
	res.OrdersTried = int(tried.Load())
	if f := minFailed.Load(); f != math.MaxInt64 {
		res.FailedChunk = int(f)
		res.Reason = reasons[f]
		return res
	}
	res.Witness = fzf.Assemble(p, dec, orders, make([]int, 0, p.Len()))
	res.Atomic = true
	return res
}

// oracleSegments runs the exact decider per safe-cut segment and combines:
// atomic iff every segment is, witness = in-order concatenation, which each
// unit writes into place before its worker's oracle scratch runs another.
func (v *Verifier) oracleSegments(p *history.Prepared, k int, opts Options) (bool, []int, error) {
	segs := v.segmentsOf(p)
	wit := make([]int, p.Len())
	var rejected atomic.Bool
	err := v.overSegments(p, segs, opts, false, func(w *Verifier, i int, view *history.Prepared) error {
		res, err := oracle.CheckKScratch(view, k, oracle.Options{MaxStates: opts.OracleStates}, &w.orc)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if !res.Atomic {
			rejected.Store(true)
		}
		lo := segs[i][0]
		for j, x := range res.Witness {
			wit[lo+j] = lo + x
		}
		return nil
	})
	if err != nil || rejected.Load() {
		return false, nil, err
	}
	return true, wit, nil
}

// overSegments runs f on a view of each [lo, hi) range of p (p itself when
// there is one range) and returns the first error in range order. The units
// fork onto the pool, one per range, when p is big enough (forks); otherwise
// they run one after another on this worker. f writes its result into a
// per-i slot. A view lives in the index buffers of the worker that runs its
// unit and only as long as f does; views nest two deep at most — a run of
// segments, then (inner) one segment of that run, which the ladder never
// splits again — and a worker waiting on a fork runs no unit but that fork's
// own, so one buffer per depth is enough.
func (v *Verifier) overSegments(p *history.Prepared, segs [][2]int, opts Options, inner bool, f func(w *Verifier, i int, view *history.Prepared) error) error {
	if len(segs) == 1 {
		return f(v, 0, p)
	}
	depth := 0
	if inner {
		depth = 1
	}
	errs := make([]error, len(segs))
	unit := func(w *Verifier, i int) {
		view, err := history.SubPrepared(p, segs[i][0], segs[i][1], &w.views[depth])
		if err != nil {
			errs[i] = fmt.Errorf("core: %w", err)
			return
		}
		errs[i] = f(w, i, view)
	}
	if v.forks(p.Len(), opts) {
		v.Fork(len(segs), unit)
	} else {
		for i := range segs {
			unit(v, i)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// groupSegments coalesces adjacent safe-cut segments into at most target
// contiguous ranges of roughly equal operation count. Every boundary of the
// result is still a safe cut, so verdicts are unchanged.
func groupSegments(segs [][2]int, target int) [][2]int {
	if len(segs) <= target {
		return segs
	}
	total := segs[len(segs)-1][1] - segs[0][0]
	per := (total + target - 1) / target
	out := make([][2]int, 0, target)
	cur := segs[0]
	for _, s := range segs[1:] {
		if cur[1]-cur[0] >= per {
			out = append(out, cur)
			cur = s
			continue
		}
		cur[1] = s[1]
	}
	return append(out, cur)
}

// segmentsOf splits the prepared history at its safe cuts into contiguous
// [lo, hi) index ranges, in v's buffers: the result is valid until v's next
// segmentsOf.
func (v *Verifier) segmentsOf(p *history.Prepared) [][2]int {
	v.cuts, v.minDW = zone.CutsAppend(p, v.cuts[:0], v.minDW)
	segs := v.segs[:0]
	lo := 0
	for _, cut := range v.cuts {
		segs = append(segs, [2]int{lo, cut})
		lo = cut
	}
	v.segs = append(segs, [2]int{lo, p.Len()})
	return v.segs
}

// atomicMin lowers v to x if x is smaller.
func atomicMin(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x >= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

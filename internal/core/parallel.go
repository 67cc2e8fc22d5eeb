package core

// Chunk-parallel verification on the work-stealing pool.
//
// The sequential engine (verifier.go) serializes each history: FZF walks
// chunks one by one, the smallest-k search probes the oracle segment by
// segment. But the paper's own structure makes the units independent — a
// prepared history decomposes into chunks (Stage 1 of FZF) whose Stage 2
// verdicts never interact, and into safe-cut segments whose k-atomicity
// verdicts compose exactly (the segment-equivalence lemma in
// internal/trace/stream.go and internal/zone/cut.go). The methods on Ctx
// below exploit that: they fork (key, chunk) and (key, segment) units onto
// the pool, so a single hot key saturates every worker instead of one.
//
// Equivalence to the sequential paths, for any worker count:
//
//   - k=1 (zones): Atomic matches Check1Atomic exactly (see
//     zone.Chunk.OneAtomic for the proof); the witness comes from the same
//     oracle call the sequential path makes.
//   - k=2 (FZF): Atomic, FailedChunk, Reason, Chunks, Dangling, and the
//     Witness are byte-identical to fzf.CheckScratch — per-chunk verdicts
//     are position-independent, failures combine by minimum chunk index,
//     and fzf.Assemble reproduces the sequential concatenation.
//     OrdersTried may exceed the sequential count on rejection (the
//     sequential path stops at the first failing chunk; parallel workers
//     may have tried later chunks already).
//   - k>=3 (oracle) and smallest-k: verdicts and smallest-k values match by
//     the segment-equivalence lemma; a positive witness is the in-order
//     concatenation of per-segment witnesses (valid, and validated, but not
//     necessarily the same total order the whole-history oracle would
//     emit). Oracle state budgets apply per segment, so a pathological
//     history can exhaust the budget in one path and not the other.
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
	"kat/internal/oracle"
	"kat/internal/witness"
	"kat/internal/zone"
)

// CheckPreparedParallel is Verifier.CheckPrepared with chunk-level
// parallelism: chunk and segment work units fan out over a work-stealing
// pool of the given size (workers <= 0 uses GOMAXPROCS), so even a single
// register saturates multiple cores. The report is equivalent to the
// sequential one for any worker count (see the package comment on
// equivalence).
//
// This one-shot form starts and tears down a pool (cold scratch arenas) per
// call; callers verifying many histories should go through the trace entry
// points, which amortize one pool — and its per-worker Verifiers — across
// every key and chunk of the batch.
func CheckPreparedParallel(p *history.Prepared, k int, opts Options, workers int) (Report, error) {
	var rep Report
	var err error
	Run(workers, func(c *Ctx) { rep, err = c.CheckPrepared(p, k, opts) })
	return rep, err
}

// SmallestKPreparedParallel is Verifier.SmallestKPrepared with the search
// fanned out over safe-cut segments on a work-stealing pool (workers <= 0
// uses GOMAXPROCS). The result equals the sequential search by the
// segment-equivalence lemma.
func SmallestKPreparedParallel(p *history.Prepared, opts Options, workers int) (int, error) {
	var k int
	var err error
	Run(workers, func(c *Ctx) { k, err = c.SmallestKPrepared(p, opts) })
	return k, err
}

// sequentialPreferred reports whether a history should skip chunk scheduling
// and run on the calling worker's sequential scratch path (identical
// verdicts, no fork overhead): single-worker pools, and histories below the
// Options.MinParallelOps floor. A Memo forces the chunk path — caching
// operates on the unit decomposition.
func (c *Ctx) sequentialPreferred(p *history.Prepared, opts Options) bool {
	if opts.Memo != nil {
		return false
	}
	minOps := opts.MinParallelOps
	if minOps == 0 {
		minOps = DefaultMinParallelOps
	}
	if minOps < 0 {
		// Forced chunk scheduling — honored even on one worker, where the
		// units run inline (how tests pin a deterministic schedule while
		// still exercising the chunk path).
		return false
	}
	return c.Workers() == 1 || p.Len() < minOps
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

// CheckPrepared decides k-atomicity from inside the pool, forking chunk and
// segment units so idle workers steal them. With one worker and no memo it
// is exactly the sequential Verifier.CheckPrepared.
func (c *Ctx) CheckPrepared(p *history.Prepared, k int, opts Options) (Report, error) {
	if k < 1 {
		return Report{}, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if c.sequentialPreferred(p, opts) {
		return c.v.CheckPrepared(p, k, opts)
	}
	algo := resolveAlgo(k, opts)
	rep := Report{K: k, Algorithm: algo, Prepared: p}
	switch algo {
	case AlgoZones:
		if k != 1 {
			return Report{}, fmt.Errorf("%w: zones requires k=1, got k=%d", ErrAlgorithmMismatch, k)
		}
		rep.Atomic = c.oneAtomicChunks(p)
		if rep.Atomic {
			// Same witness source as the sequential path: the oracle,
			// which is fast on 1-atomic histories.
			res, err := oracle.CheckK(p, 1, oracle.Options{MaxStates: opts.OracleStates})
			if err == nil && res.Atomic {
				rep.Witness = res.Witness
			}
		}
	case AlgoLBT:
		// LBT's epochs are inherently sequential; delegate.
		return c.v.CheckPrepared(p, k, opts)
	case AlgoFZF:
		if k != 2 {
			return Report{}, fmt.Errorf("%w: FZF requires k=2, got k=%d", ErrAlgorithmMismatch, k)
		}
		res := c.fzfChunks(p, opts.Memo)
		rep.Atomic = res.Atomic
		rep.Witness = res.Witness
	case AlgoOracle:
		ok, wit, err := c.oracleSegments(p, k, opts)
		if err != nil {
			return Report{}, fmt.Errorf("core: %w", err)
		}
		rep.Atomic = ok
		rep.Witness = wit
	default:
		return Report{}, fmt.Errorf("core: unknown algorithm %v", algo)
	}
	if rep.Atomic && rep.Witness != nil && !opts.SkipWitnessCheck {
		if err := witness.ValidateScratch(p, rep.Witness, k, &c.v.wit); err != nil {
			return Report{}, fmt.Errorf("core: internal error, invalid witness: %w", err)
		}
	}
	return rep, nil
}

// Check is CheckPrepared for raw histories (normalize + prepare first), the
// per-key unit of the parallel trace checker.
func (c *Ctx) Check(h *history.History, k int, opts Options) (Report, error) {
	if k < 1 {
		return Report{}, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	p, err := history.PrepareInPlace(history.Normalize(h))
	if err != nil {
		return Report{}, fmt.Errorf("core: %w", err)
	}
	return c.CheckPrepared(p, k, opts)
}

// SmallestK computes the smallest k for a raw history with the search fanned
// out over safe-cut segments.
func (c *Ctx) SmallestK(h *history.History, opts Options) (int, error) {
	p, err := history.PrepareInPlace(history.Normalize(h))
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return c.SmallestKPrepared(p, opts)
}

// SmallestKPrepared computes the smallest k from inside the pool: the
// history splits at its safe cuts and each segment's smallest-k (computed
// with the usual probe ladder: zones, FZF, bounded oracle search) forks as
// its own unit; the answer is the maximum, per the segment-equivalence
// lemma.
func (c *Ctx) SmallestKPrepared(p *history.Prepared, opts Options) (int, error) {
	if c.sequentialPreferred(p, opts) {
		return c.v.SmallestKPrepared(p, opts)
	}
	if p.Len() == 0 {
		return 1, nil
	}
	segs := segmentsOf(p)
	if len(segs) == 1 && opts.Memo == nil {
		return c.v.SmallestKPrepared(p, opts)
	}
	if opts.Memo == nil {
		// The lemma holds for any subset of the safe cuts, so adjacent
		// segments coalesce into a few units per worker: same verdict,
		// same parallelism, a fraction of the per-unit overhead (view
		// construction, probe setup). With a memo the fine units stay —
		// small stable segments are what make incremental runs hit.
		segs = groupSegments(segs, 4*c.Workers())
	}
	ks := make([]int, len(segs))
	errs := make([]error, len(segs))
	c.forkUnits(len(segs), func(cc *Ctx, i int) {
		view, err := history.SubPrepared(p, segs[i][0], segs[i][1])
		if err != nil {
			errs[i] = fmt.Errorf("core: %w", err)
			return
		}
		memo := opts.Memo
		var key memoKey
		if memo != nil {
			h1, h2 := hashOpsAll(view)
			key = memoKey{h1, h2, memoSegSmallestK, 0}
			if e, hit := memo.get(key); hit {
				ks[i] = int(e.k)
				return
			}
		}
		k, err := cc.v.SmallestKPrepared(view, opts)
		if err != nil {
			errs[i] = err
			return
		}
		ks[i] = k
		if memo != nil {
			memo.put(key, memoEntry{ok: true, k: int32(k)})
		}
	})
	best := 1
	for i := range segs {
		if errs[i] != nil {
			return 0, errs[i]
		}
		if ks[i] > best {
			best = ks[i]
		}
	}
	return best, nil
}

// oneAtomicChunks applies the Gibbons–Korach conditions chunk by chunk
// (zone.Chunk.OneAtomic); verdicts are O(1) per chunk, so the fork mainly
// matters when a huge key yields very many chunks.
func (c *Ctx) oneAtomicChunks(p *history.Prepared) bool {
	dec := zone.DecomposeScratch(p, &c.v.zone)
	nc := len(dec.Chunks)
	var bad atomic.Bool
	batches := batchCount(nc, 4*c.Workers())
	c.Fork(batches, func(cc *Ctx, b int) {
		lo, hi := batchRange(nc, batches, b)
		for ci := lo; ci < hi && !bad.Load(); ci++ {
			if !dec.Chunks[ci].OneAtomic() {
				bad.Store(true)
				return
			}
		}
	})
	return !bad.Load()
}

// fzfChunks is the chunk-parallel form of fzf.CheckScratch: Stage 1 runs on
// the calling worker, Stage 2 verdicts fork as chunk units (memoized by
// content hash when a Memo is supplied), and Stage 3 combines them — first
// failing chunk by index, or the Lemma 4.1 witness assembly.
func (c *Ctx) fzfChunks(p *history.Prepared, memo *Memo) fzf.Result {
	dec := zone.DecomposeScratch(p, &c.v.zone)
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
	batches := batchCount(nc, 4*c.Workers())
	c.Fork(batches, func(cc *Ctx, b int) {
		wv := cc.v
		lo, hi := batchRange(nc, batches, b)
		for ci := lo; ci < hi; ci++ {
			if minFailed.Load() < int64(ci) {
				// A strictly earlier chunk already failed; this chunk can
				// no longer affect the (min-index) verdict.
				continue
			}
			ch := dec.Chunks[ci]
			var key memoKey
			var chunkOps []int
			if memo != nil {
				wv.ops = fzf.AppendChunkOps(p, ch, wv.ops[:0])
				chunkOps = wv.ops
				h1, h2 := hashOpsSubset(p, chunkOps)
				key = memoKey{h1, h2, memoChunkFZF, 2}
				if e, hit := memo.get(key); hit {
					tried.Add(int64(e.tried))
					if !e.ok {
						reasons[ci] = e.reason
						atomicMin(&minFailed, int64(ci))
						continue
					}
					ord := make([]int, len(e.order))
					for i, r := range e.order {
						ord[i] = chunkOps[r]
					}
					orders[ci] = ord
					continue
				}
			}
			ord, tr, reason := fzf.CheckChunk(p, ch, &wv.fzf)
			tried.Add(int64(tr))
			if ord == nil {
				reasons[ci] = reason
				atomicMin(&minFailed, int64(ci))
				if memo != nil {
					memo.put(key, memoEntry{reason: reason, tried: int32(tr)})
				}
				continue
			}
			out := make([]int, len(ord))
			copy(out, ord)
			orders[ci] = out
			if memo != nil {
				rel := make([]int32, len(out))
				for i, a := range out {
					j, _ := slices.BinarySearch(chunkOps, a)
					rel[i] = int32(j)
				}
				memo.put(key, memoEntry{ok: true, order: rel, tried: int32(tr)})
			}
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
// atomic iff every segment is, witness = in-order concatenation.
func (c *Ctx) oracleSegments(p *history.Prepared, k int, opts Options) (bool, []int, error) {
	segs := segmentsOf(p)
	type segResult struct {
		atomic bool
		wit    []int // local indices
		err    error
	}
	results := make([]segResult, len(segs))
	c.forkUnits(len(segs), func(cc *Ctx, i int) {
		view, err := history.SubPrepared(p, segs[i][0], segs[i][1])
		if err != nil {
			results[i] = segResult{err: err}
			return
		}
		memo := opts.Memo
		var key memoKey
		if memo != nil {
			h1, h2 := hashOpsAll(view)
			key = memoKey{h1, h2, memoSegCheck, int32(k)}
			if e, hit := memo.get(key); hit {
				r := segResult{atomic: e.ok}
				if e.ok {
					r.wit = make([]int, len(e.order))
					for j, v := range e.order {
						r.wit[j] = int(v)
					}
				}
				results[i] = r
				return
			}
		}
		res, err := oracle.CheckK(view, k, oracle.Options{MaxStates: opts.OracleStates})
		if err != nil {
			results[i] = segResult{err: err}
			return
		}
		results[i] = segResult{atomic: res.Atomic, wit: res.Witness}
		if memo != nil {
			e := memoEntry{ok: res.Atomic}
			if res.Atomic {
				e.order = make([]int32, len(res.Witness))
				for j, v := range res.Witness {
					e.order[j] = int32(v)
				}
			}
			memo.put(key, e)
		}
	})
	wit := make([]int, 0, p.Len())
	for i, r := range results {
		if r.err != nil {
			return false, nil, r.err
		}
		if !r.atomic {
			return false, nil, nil
		}
		lo := segs[i][0]
		for _, v := range r.wit {
			wit = append(wit, lo+v)
		}
	}
	return true, wit, nil
}

// groupSegments coalesces adjacent safe-cut segments into at most target
// contiguous ranges of roughly equal operation count. Every boundary of the
// result is still a safe cut, so verdicts are unchanged.
func groupSegments(segs [][2]int, target int) [][2]int {
	if target < 1 {
		target = 1
	}
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
// [lo, hi) index ranges.
func segmentsOf(p *history.Prepared) [][2]int {
	cuts := zone.Cuts(p)
	segs := make([][2]int, 0, len(cuts)+1)
	lo := 0
	for _, cut := range cuts {
		segs = append(segs, [2]int{lo, cut})
		lo = cut
	}
	return append(segs, [2]int{lo, p.Len()})
}

// forkUnits forks one unit per index, batching only when the unit count is
// extreme (bounding scheduler bookkeeping without hurting load balance).
func (c *Ctx) forkUnits(n int, f func(cc *Ctx, i int)) {
	const maxUnits = 2048
	if n <= maxUnits {
		c.Fork(n, f)
		return
	}
	c.Fork(maxUnits, func(cc *Ctx, b int) {
		lo, hi := batchRange(n, maxUnits, b)
		for i := lo; i < hi; i++ {
			f(cc, i)
		}
	})
}

// batchCount sizes a fork of n tiny units into at most target batches.
func batchCount(n, target int) int {
	if n < target {
		return n
	}
	return target
}

// batchRange returns batch b's [lo, hi) share of n units.
func batchRange(n, batches, b int) (int, int) {
	return n * b / batches, n * (b + 1) / batches
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

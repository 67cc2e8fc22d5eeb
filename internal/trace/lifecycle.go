package trace

// Keyspace lifecycle: quiescent-key retirement and epoch-windowed verdicts.
//
// The engine in stream.go keeps per-key state for as long as the key exists:
// the value index, the cumulative write counts, and the keyState itself are
// never freed, so a churning keyspace (keys born, active briefly, then
// abandoned) grows live heap without bound even though every individual
// window closes. This file bounds that growth.
//
// Retirement. When a key has been quiescent past the safe-cut horizon for at
// least StreamOptions.RetireTTL trace-time units — measured against the
// global ingest watermark, the largest operation start time seen on any key —
// a retirement sweep commits the key's final quiescent cut, dispatches
// everything it still holds, and once the last in-flight segment verdict
// folds in, collapses the key to a compact retiredKey record (final
// per-property verdict, op count, committed cut) and frees everything else:
// open window, deque, value index, cumulative counts, the keyState itself.
// A later operation for a retired key transparently re-admits it: the
// retired record seeds the fresh keyState's verdict accumulators (sound
// because every property fold is commutative and associative — max for
// smallest-k and smallest-Δ, AND for fixed-k, sums for regularity — so
// carrying the folded floor forward and folding new segments into it equals
// folding all segments into one accumulator), and the committed cut carries
// forward so the arrival-order invariant keeps rejecting operations that
// start at or before it.
//
// Soundness. Retirement commits a quiescent cut the never-retired run might
// have deferred (the open window may be below MinSegmentOps), but the
// segment-equivalence lemma (stream.go) holds for ANY subset of safe cuts,
// so the extra cut is verdict-neutral. What retirement does tighten is the
// arrival-order tolerance: an operation arriving more than RetireTTL of
// trace time after every operation of its key — but starting at or before
// the retirement cut — is rejected with ErrOutOfOrder where the
// never-retired run would have admitted it into the still-open window.
// RetireTTL is therefore exactly the cross-key start-time skew the ingest
// order is allowed — the one tolerance there is: RetireIdle(0), which
// Relieve and the end of a log replay call, honours it too.
// An operation log sorted by invocation time has zero skew and is unaffected
// for any TTL.
//
// The watermark is the only evidence that a key is idle, and it is evidence
// only while arrival order tracks start order. Two rules keep it so, and
// they are enforced here and nowhere else:
//
//   - A feed's own operations never count. A batch arrives all at once, its
//     shard groups fed one after another, so mid-feed the watermark already
//     holds operations that arrived together with ones still waiting their
//     turn. Sweeps therefore run only between feeds — sweepAllSticky, at the
//     tail of feed, once no shard lock is held — against the watermark
//     read before that feed began.
//   - A replayed log never counts until its end. Its records are shard
//     groups of interleaved requests, and older data directories replay
//     file by file, so mid-replay the watermark runs ahead of keys still to
//     come: no sweep runs inside Session.Replay, and the caller ends the
//     replay with one RetireIdle(0) once every logged operation is back.
//
// Retirement also frees the value index, so re-admitted lifetimes must write
// fresh values; a duplicate of a retired value goes undetected rather than
// erroring (the price of not keeping an unbounded value index).
// FuzzRetirementEquivalence drives both runs over random retirement points
// and requires identical per-key, per-property verdicts.
//
// Epochs. With StreamOptions.EpochLength set, every segment verdict also
// folds into the summary of the epoch its cut time falls in (epoch N covers
// trace time [N*len, (N+1)*len)), so an infinite stream answers "was the
// last hour k-atomic" without retaining per-key state per window. Epoch
// attribution happens at quiescent cuts — the only instants a verdict
// exists — and summaries are monotone aggregates, so late-landing verdicts
// fold in regardless of worker scheduling. At most retainedEpochs summaries
// are kept; older ones fold into a single cumulative aggregate.

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
)

// DefaultRetireSweepOps is the per-shard operation interval between
// retirement sweeps when StreamOptions.RetireSweepOps is zero: every
// DefaultRetireSweepOps*shards operations fed, one pass sweeps every shard —
// frequent enough that an idle key outlives its TTL by at most a few
// thousand operations of shard traffic, rare enough that the O(shard keys)
// scan amortizes to noise. It was 4096 while a second, per-operation trigger
// swept each shard once more per period; 2048 keeps that cadence with the
// one trigger left (at 4096, bench's serve-text-wal-churn peaks at 34 MB RSS
// against 27–29).
const DefaultRetireSweepOps = 2048

// retainedEpochs caps retained epoch summaries. Each summary is a few dozen
// bytes, so this keeps days of hourly epochs while still bounding an
// adversarial tiny-epoch configuration.
const retainedEpochs = 1024

// retiredKey is the compact residue of a retired key: everything needed to
// report its final verdict and to seed a re-admitted lifetime. ~100 bytes
// versus the keyState's maps and buffers.
type retiredKey struct {
	ops             int
	maxClosedFinish int64
	verdict         Verdict
	err             error
}

// RetiredSummary aggregates the retired keys of a session (Session.
// RetiredSummary). Keys/Ops cover currently retired keys (re-admission
// moves a key back out); Retirements and Readmissions are lifetime event
// counts.
type RetiredSummary struct {
	// Keys counts currently retired keys; Ops their folded operations.
	Keys int64 `json:"keys"`
	Ops  int64 `json:"ops,omitempty"`
	// Retirements and Readmissions count lifetime retire / re-admit events.
	Retirements  int64 `json:"retirements,omitempty"`
	Readmissions int64 `json:"readmissions,omitempty"`
	// MaxK / MaxDelta are the worst smallest-k and smallest-Δ folded into any
	// currently retired key; UnsafeReads / IrregularReads and Errors sum over
	// them.
	MaxK           int   `json:"maxK,omitempty"`
	MaxDelta       int64 `json:"maxDelta,omitempty"`
	UnsafeReads    int64 `json:"unsafeReads,omitempty"`
	IrregularReads int64 `json:"irregularReads,omitempty"`
	Errors         int64 `json:"errors,omitempty"`
}

// Fold merges another session's summary into s (a cluster's members hold
// disjoint keys): counts sum, worst-case floors take the maximum.
func (s *RetiredSummary) Fold(o RetiredSummary) {
	s.Keys += o.Keys
	s.Ops += o.Ops
	s.Retirements += o.Retirements
	s.Readmissions += o.Readmissions
	s.MaxK = max(s.MaxK, o.MaxK)
	s.MaxDelta = max(s.MaxDelta, o.MaxDelta)
	s.UnsafeReads += o.UnsafeReads
	s.IrregularReads += o.IrregularReads
	s.Errors += o.Errors
}

// observe accounts one retired key's verdict.
func (s *RetiredSummary) observe(v Verdict) {
	s.MaxK = max(s.MaxK, v.SmallestK)
	s.MaxDelta = max(s.MaxDelta, v.SmallestDelta)
	s.UnsafeReads += int64(v.UnsafeReads)
	s.IrregularReads += int64(v.IrregularReads)
}

// EpochStats is one epoch window's verdict summary (Session.Epochs). Epoch N
// covers trace time [N*EpochLength, (N+1)*EpochLength); verdicts attribute
// to the epoch their segment's quiescent cut falls in, stale-read floors to
// the epoch of the read's start.
type EpochStats struct {
	// Epoch is the window index; for the Folded aggregate it is the highest
	// epoch folded in.
	Epoch int64 `json:"epoch"`
	// Folded marks the cumulative aggregate of epochs evicted past the
	// retain cap.
	Folded bool `json:"folded,omitempty"`
	// Ops counts operations whose verdicts landed in this epoch (verified
	// segment operations plus dropped stale reads); Segments counts verified
	// segments.
	Ops      int64 `json:"ops,omitempty"`
	Segments int64 `json:"segments,omitempty"`
	// StaleReads counts cross-boundary stale reads folded into this epoch.
	StaleReads int64 `json:"staleReads,omitempty"`
	// MaxK / MaxDelta are the worst per-segment smallest-k and smallest-Δ
	// (smallest-k sessions); Violations counts non-atomic segments and
	// definitive stale violations (fixed-k sessions).
	MaxK       int   `json:"maxK,omitempty"`
	MaxDelta   int64 `json:"maxDelta,omitempty"`
	Violations int64 `json:"violations,omitempty"`
	// UnsafeReads / IrregularReads sum the regularity property's offenders;
	// Errors counts segments whose verification erred.
	UnsafeReads    int64 `json:"unsafeReads,omitempty"`
	IrregularReads int64 `json:"irregularReads,omitempty"`
	Errors         int64 `json:"errors,omitempty"`
}

// Fold merges o into es: counts sum, floors take the maximum, and Epoch keeps
// the maximum so a folded aggregate reports the newest epoch it covers.
// Commutative, so late-landing verdicts, evicted windows and the same window
// on a cluster's members all combine through it in any order.
func (es *EpochStats) Fold(o EpochStats) {
	es.Epoch = max(es.Epoch, o.Epoch)
	es.Ops += o.Ops
	es.Segments += o.Segments
	es.StaleReads += o.StaleReads
	es.MaxK = max(es.MaxK, o.MaxK)
	es.MaxDelta = max(es.MaxDelta, o.MaxDelta)
	es.Violations += o.Violations
	es.UnsafeReads += o.UnsafeReads
	es.IrregularReads += o.IrregularReads
	es.Errors += o.Errors
}

// observe accounts one segment's or one stale read's verdict.
func (es *EpochStats) observe(v Verdict) {
	es.MaxK = max(es.MaxK, v.SmallestK)
	es.MaxDelta = max(es.MaxDelta, v.SmallestDelta)
	if v.Violation {
		es.Violations++
	}
	es.UnsafeReads += int64(v.UnsafeReads)
	es.IrregularReads += int64(v.IrregularReads)
}

// EpochWindows is a set of epoch windows: the retained per-epoch summaries,
// ascending, and the Folded aggregate of every window at or below its Epoch.
// It is the one fold of windows — the engine's tracker, a checkpoint's
// restore and a cluster's merge all go through Fold — so folding the same
// summaries in any order gives one List. The zero value is empty and
// uncapped.
type EpochWindows struct {
	live   []EpochStats // ascending by Epoch, every one above agg.Epoch
	agg    EpochStats   // the aggregate, present once agg.Folded is set
	retain int          // cap on len(live) past which the oldest is evicted; 0 is none
}

// Fold merges one window's summary: a Folded entry joins the aggregate,
// which then absorbs every live window at or below its Epoch; a live entry at
// or below the aggregate joins it too; any other live entry folds into its
// epoch's window, created as needed, and past the cap the oldest window is
// evicted into the aggregate.
func (w *EpochWindows) Fold(es EpochStats) {
	if !es.Folded && (!w.agg.Folded || es.Epoch > w.agg.Epoch) {
		i, found := w.find(es.Epoch)
		if found {
			w.live[i].Fold(es)
			return
		}
		w.live = slices.Insert(w.live, i, es)
		if w.retain == 0 || len(w.live) <= w.retain {
			return
		}
		es = w.live[0] // evict the oldest, the new window itself if it is
		w.live = slices.Delete(w.live, 0, 1)
	}
	if !w.agg.Folded {
		w.agg = EpochStats{Epoch: math.MinInt64, Folded: true}
	}
	w.agg.Fold(es)
	n := 0
	for n < len(w.live) && w.live[n].Epoch <= w.agg.Epoch {
		w.agg.Fold(w.live[n])
		n++
	}
	w.live = slices.Delete(w.live, 0, n)
}

// List returns the aggregate, if any, then every live window in ascending
// epoch order; nil when there is none.
func (w *EpochWindows) List() []EpochStats {
	var out []EpochStats
	if w.agg.Folded {
		out = append(out, w.agg)
	}
	return append(out, w.live...)
}

// Get returns epoch's window, or the aggregate (Folded set) for an epoch at
// or below it; ok is false for an epoch with no summary yet.
func (w *EpochWindows) Get(epoch int64) (EpochStats, bool) {
	if i, found := w.find(epoch); found {
		return w.live[i], true
	}
	if w.agg.Folded && epoch <= w.agg.Epoch {
		return w.agg, true
	}
	return EpochStats{}, false
}

// find is the position of epoch's live window, or where it would go.
func (w *EpochWindows) find(epoch int64) (int, bool) {
	return slices.BinarySearchFunc(w.live, epoch, func(l EpochStats, ep int64) int { return cmp.Compare(l.Epoch, ep) })
}

// epochTracker is the engine's epoch windows, capped at retainedEpochs
// (tests shrink retain); a mutex suffices because folds happen once per
// segment verdict, not per operation.
type epochTracker struct {
	mu sync.Mutex
	EpochWindows
}

// watermark is the global ingest high-water mark: the largest operation
// start time routed into any shard, or math.MinInt64 before any operation.
func (e *engine) watermark() int64 {
	wm := int64(math.MinInt64)
	for _, sh := range e.shards {
		if v := sh.maxStart.Load(); v > wm {
			wm = v
		}
	}
	return wm
}

// epochOf maps a trace time to its epoch index (floor division, exact for
// negative times).
func (e *engine) epochOf(t int64) int64 {
	d := t / e.epochLen
	if t%e.epochLen != 0 && t < 0 {
		d--
	}
	return d
}

// foldEpoch folds d, one verdict's contribution, into the epoch windows.
func (e *engine) foldEpoch(d EpochStats) {
	t := &e.epochT
	t.mu.Lock()
	t.Fold(d)
	t.mu.Unlock()
}

// sweepAll sweeps every shard, each under its own lock in turn (the caller
// holds none), and returns the first error.
func (e *engine) sweepAll(ttl, wm int64) error {
	var firstErr error
	e.eachShardLocked(func(sh *ingestShard) {
		if err := e.sweepShard(sh, ttl, wm); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// sweepShard retires every key of sh that has been idle — no operation
// within ttl of the global watermark — and finalizes keys whose earlier
// retirement was waiting out in-flight verification. The caller holds
// sh.mu. Retirement is two-phase because workers never take shard locks
// (the checkpoint freeze invariant): the sweep commits the final cut and
// dispatches under the shard, and a later sweep (or the same one, when
// verification already drained) folds the verdict and frees the state.
func (e *engine) sweepShard(sh *ingestShard, ttl, wm int64) error {
	if ttl <= 0 || wm == math.MinInt64 {
		return nil
	}
	var firstErr error
	for _, ks := range sh.keys {
		if ks.retiring {
			e.finalizeRetire(sh, ks)
			continue
		}
		last := ks.maxClosedFinish
		if ks.open.Len() > 0 && ks.openMaxFinish > last {
			last = ks.openMaxFinish
		}
		// wm-last is computed only when last < wm; an overflow wraps
		// negative and conservatively skips the key.
		if last >= wm || wm-last < ttl {
			continue
		}
		if err := e.flush(ks); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ks.retiring = true
		e.retirements.Add(1)
		e.finalizeRetire(sh, ks)
	}
	return firstErr
}

// finalizeRetire completes phase two of a retirement: once the key's last
// in-flight segment verdict has folded, collapse it to a retiredKey and
// free the keyState. The caller holds sh.mu. The inflight load
// synchronizes with the worker's decrement, so the verdict fields read
// below include every fold.
func (e *engine) finalizeRetire(sh *ingestShard, ks *keyState) {
	if ks.inflight.Load() != 0 {
		return
	}
	if ks.open.Len() > 0 || len(ks.deque) > 0 {
		// An operation re-opened the window after the retire flush; the key
		// is live again.
		ks.retiring = false
		return
	}
	ks.mu.Lock()
	rk := &retiredKey{
		ops:             ks.ops,
		maxClosedFinish: ks.maxClosedFinish,
		verdict:         ks.verdict,
		err:             ks.err,
	}
	ks.mu.Unlock()
	if sh.retired == nil {
		sh.retired = make(map[string]*retiredKey)
	}
	sh.retired[ks.key] = rk
	delete(sh.keys, ks.key)
	e.retiredNow.Add(1)
	e.retiredOps.Add(int64(rk.ops))
}

// readmit seeds a fresh keyState from a retired record: the carried floor.
// Every property fold is commutative and associative, so starting the new
// lifetime's accumulator at the retired verdict is exactly equivalent to
// folding all lifetimes' segments into one accumulator. The committed cut
// carries forward so the arrival-order invariant still rejects operations
// at or before it; the retired error predates every new segment, so its
// seq is set below any the new lifetime can produce (first error wins by
// lowest seq).
func (e *engine) readmit(ks *keyState, rk *retiredKey) {
	ks.ops = rk.ops
	ks.closedAny = true
	ks.maxClosedFinish = rk.maxClosedFinish
	ks.verdict = rk.verdict
	ks.err = rk.err
	if ks.err != nil {
		ks.errSeq = math.MinInt
	}
	e.resettle(ks)
	e.retiredNow.Add(-1)
	e.retiredOps.Add(int64(-rk.ops))
	e.readmissions.Add(1)
}

// RetireIdle sweeps every shard now instead of at the next cadence, retiring
// keys idle for at least minIdle trace-time units against the ingest
// watermark. minIdle <= 0 means the session's own StreamOptions.RetireTTL —
// and nothing when that is 0: Relieve and the end of a log replay call it
// so, and neither may retire under a smaller tolerance than the operator
// declared. A positive minIdle works whether or not RetireTTL enabled
// automatic sweeps. Spill I/O errors surface like ingest errors (sticky).
func (s *Session) RetireIdle(minIdle int64) error {
	if s.flushed.Load() {
		return nil
	}
	if minIdle <= 0 {
		minIdle = s.e.retireTTL
	}
	return s.stick(s.e.sweepAll(minIdle, s.e.watermark()))
}

// sweepAllSticky is the retirement trigger, and the only one: a session feed
// that just appended n operations counts them here once it holds no shard
// lock, and every RetireSweepOps*shards operations one pass sweeps every
// shard — the busy and the cold alike, since a shard whose keys all went
// quiet gets no traffic to trigger on. wm is the idleness clock: the
// watermark that feed started from. A log replay never sweeps (see Replay).
// Spill I/O errors become sticky the way ingest errors are.
func (s *Session) sweepAllSticky(n, wm int64) error {
	e := s.e
	if e.retireTTL <= 0 || s.flushed.Load() || s.replaying.Load() {
		return nil
	}
	c := e.sinceSweepAll.Add(n)
	period := int64(e.sweepEvery) * int64(len(e.shards))
	if c < period || !e.sinceSweepAll.CompareAndSwap(c, 0) {
		return nil // not due, or a concurrent feeder won the pass
	}
	return s.stick(e.sweepAll(e.retireTTL, wm))
}

// Relieve reclaims buffered memory now, for a server over its memory budget.
// First keys idle past the session's RetireTTL retire (none when it is 0: relief
// never retires under a smaller tolerance than the operator declared). Then,
// when the session has a BlobStore, held runs — open windows and held
// segments alike — spill their in-memory tails, largest first, until
// BufferedBytes is at most target. Of runs equally large the one the cut rules
// need last spills first: the later segment of a key, its open window last of
// all. Segments already with the workers cannot spill, so target may stay out
// of reach. Spill I/O errors are sticky like ingest errors.
func (s *Session) Relieve(target int64) error {
	e := s.e
	if err := s.RetireIdle(0); err != nil || e.sopts.Store == nil || e.bufferedBytes.Load() <= target {
		return err
	}
	// Sizes are read shard by shard, then each run is spilled under its
	// shard's lock again if it is still held: a window that closed meanwhile
	// is found as the segment of the same seq.
	type run struct {
		bytes int64
		key   string
		seq   int
		sh    *ingestShard
	}
	var runs []run
	e.eachShardLocked(func(sh *ingestShard) {
		for _, ks := range sh.keys {
			if b := ks.open.ops.Bytes(); b > 0 {
				runs = append(runs, run{b, ks.key, ks.seq, sh})
			}
			for i := range ks.deque {
				if b := ks.deque[i].ops.Bytes(); b > 0 {
					runs = append(runs, run{b, ks.key, ks.deque[i].loSeq, sh})
				}
			}
		}
	})
	sort.Slice(runs, func(i, j int) bool {
		a, b := runs[i], runs[j]
		if a.bytes != b.bytes {
			return a.bytes > b.bytes
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return a.seq > b.seq
	})
	for _, r := range runs {
		if e.bufferedBytes.Load() <= target || s.flushed.Load() {
			break
		}
		r.sh.mu.Lock()
		err := e.spillRun(r.sh.keys[r.key], r.seq)
		r.sh.mu.Unlock()
		if err != nil {
			return s.stick(err)
		}
	}
	return nil
}

// spillRun spills ks's run that starts at segment seq, if ks still holds one;
// the caller holds the key's shard lock.
func (e *engine) spillRun(ks *keyState, seq int) error {
	switch {
	case ks == nil:
		return nil
	case seq == ks.seq:
		return e.spill(ks, &ks.open)
	}
	for i := range ks.deque {
		if ks.deque[i].loSeq == seq {
			return e.spill(ks, &ks.deque[i].held)
		}
	}
	return nil
}

// RetiredSummary aggregates the session's retired keys. The per-key floor
// scan takes each shard lock briefly; the counters are lock-free.
func (s *Session) RetiredSummary() RetiredSummary {
	e := s.e
	sum := RetiredSummary{
		Keys:         e.retiredNow.Load(),
		Ops:          e.retiredOps.Load(),
		Retirements:  e.retirements.Load(),
		Readmissions: e.readmissions.Load(),
	}
	e.eachShardLocked(func(sh *ingestShard) {
		for _, rk := range sh.retired {
			if rk.err != nil {
				sum.Errors++
			}
			sum.observe(rk.verdict)
		}
	})
	return sum
}

// RetiredKeys returns the number of currently retired keys. Lock-free.
func (s *Session) RetiredKeys() int64 { return s.e.retiredNow.Load() }

// CurrentEpoch returns the epoch index the ingest watermark falls in; ok is
// false when epochs are disabled or no operation has arrived.
func (s *Session) CurrentEpoch() (int64, bool) {
	if s.e.epochLen <= 0 {
		return 0, false
	}
	wm := s.e.watermark()
	if wm == math.MinInt64 {
		return 0, false
	}
	return s.e.epochOf(wm), true
}

// Epochs returns every retained epoch summary, oldest first, preceded by the
// cumulative aggregate of evicted epochs if any. Empty when epochs are
// disabled.
func (s *Session) Epochs() []EpochStats {
	t := &s.e.epochT
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.List()
}

// EpochSummary returns one epoch's summary. For an epoch already evicted
// into the cumulative aggregate, the aggregate is returned (Folded set). ok
// is false when epochs are disabled or the epoch has no folded verdicts yet.
func (s *Session) EpochSummary(epoch int64) (EpochStats, bool) {
	t := &s.e.epochT
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Get(epoch)
}

// EpochLength returns the session's epoch window length in trace-time units
// (0 when epochs are disabled).
func (s *Session) EpochLength() int64 { return s.e.epochLen }

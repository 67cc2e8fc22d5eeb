package trace

// Durability hooks for push-driven sessions.
//
// Three seams, all optional and all zero-cost when unused:
//
//   - ShardLogger: the ingest paths encode every *accepted* operation, each
//     shard's group as one self-contained wire frame whatever door it came
//     through, and hand it to the logger under that shard's ingest lock, so
//     each key's log order is exactly its ingest order. Replaying the
//     payloads through Replay reproduces the session state — keys re-route
//     by hash on replay, so the ingest shard count may change across
//     restarts.
//
//   - BlobStore + Session.Relieve: spill-to-disk of held runs. An open
//     window and a closed segment waiting out the dispatch horizon are both a
//     held run of one key's unverified operations, and relief spills the
//     largest in-memory tails first, each as one more keyed-text blob (an
//     open window's value index, write count and max finish stay in memory —
//     those are all the cut rules need), until the session's buffered bytes
//     are down to its target. A spilled run is loaded back where it is next
//     needed: when the window closes, when a backward-reaching read merges a
//     deque segment, or when a segment dispatches to verification. Ingest
//     memory for a never-quiescing window is thereby bounded by how often
//     relief runs; the eventual close (or Flush) pays a transient reload of
//     the whole segment, which verification materializes anyway.
//
//   - Checkpoint / RestoreCheckpoint: an exact snapshot of the per-key
//     accumulators and verdicts at a frozen instant. Freezing takes every
//     shard lock and waits out in-flight verification (workers never take
//     shard locks, so the wait cannot deadlock), which makes the snapshot a
//     safe cut across every key simultaneously: restoring it into a fresh
//     session and replaying the operations ingested after the freeze yields
//     verdicts identical to the uninterrupted run — the segment-equivalence
//     lemma again, applied at recovery time.
//
// Operation IDs are not preserved across spill or checkpoint: the verifiers
// re-Prepare every segment (sorting and reassigning IDs), so identities
// are verdict-neutral and reloaded operations simply renumber from zero.
//
// Keys are round-tripped through the wire codec (the log) and the keyed text
// format (history/text.go; spill blobs and checkpoints), so durable sessions
// require keys without whitespace, ';', or '#' — the same alphabet the trace
// grammar can express. Everything arriving via parsed ingest satisfies this
// by construction; a durable session's AppendBatch and Append refuse the
// rest.

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"kat/internal/history"
	"kat/internal/opbuf"
	"kat/internal/wire"
)

// ShardLogger receives the write-ahead copy of accepted operations.
// LogShardBatch is called with the shard's ingest lock held — one call per
// (ingest call, shard) pair covering that call's accepted operations for the
// shard, encoded as one self-contained wire frame. Commit is called once per
// ingest call after all locks are released; under a batch-fsync policy this
// is the group-commit point. Errors from either become the session's sticky
// ingest error.
type ShardLogger interface {
	LogShardBatch(shard int, encoded []byte) error
	Commit() error
}

// BlobStore stores spilled segment payloads. Put returns a non-zero id;
// Get returns the stored bytes; Del discards them. Implementations must be
// safe for concurrent use by different keys.
type BlobStore interface {
	Put(data []byte) (uint64, error)
	Get(id uint64) ([]byte, error)
	Del(id uint64) error
}

// loggerBox wraps a ShardLogger for atomic.Pointer storage.
type loggerBox struct{ l ShardLogger }

// SetShardLogger attaches the write-ahead logger. Attach it before
// concurrent ingest begins (recovery replays first, then attaches, so
// replayed operations are not re-logged).
func (s *Session) SetShardLogger(l ShardLogger) {
	if l == nil {
		s.logger.Store(nil)
		return
	}
	s.logger.Store(&loggerBox{l: l})
}

// Replay feeds one logged record — a ShardLogger payload — back into the
// session, in whichever codec it was logged: a self-contained wire frame, or
// keyed text, which every door but AppendWire logged in data directories
// written before the log became one encoding (the magic says which; no text
// record can start with it). No retirement sweep runs meanwhile: records are
// shard groups of interleaved requests, and older data directories replay
// file by file, so the watermark says nothing about keys still to come, and a
// key retired on its word would reject them as starting before a committed
// cut. The caller ends the replay with RetireIdle(0), once every logged
// operation is back. Like RestoreCheckpoint, Replay precedes concurrent ingest.
func (s *Session) Replay(rec []byte) (int64, error) {
	s.replaying.Store(true)
	defer s.replaying.Store(false)
	if wire.IsMagic(rec) {
		return s.AppendWire(bytes.NewReader(rec))
	}
	return s.AppendTraceBatch(bytes.NewReader(rec))
}

func (s *Session) shardLogger() ShardLogger {
	if b := s.logger.Load(); b != nil {
		return b.l
	}
	return nil
}

// DurabilityError marks an ingest failure caused by the write-ahead logger
// (the storage beneath the session) rather than by the input stream, so
// serving layers can report it as a server-side fault instead of a client
// error. Matched with errors.As; Unwrap exposes the underlying cause.
type DurabilityError struct{ Err error }

func (e *DurabilityError) Error() string { return e.Err.Error() }
func (e *DurabilityError) Unwrap() error { return e.Err }

// commitLog runs the logger's group-commit point and stickies any failure.
func (s *Session) commitLog(l ShardLogger) error {
	if err := l.Commit(); err != nil {
		return s.stick(&DurabilityError{err})
	}
	return nil
}

// Flushed reports whether the session was drained by Flush.
func (s *Session) Flushed() bool { return s.flushed.Load() }

// SpilledOps returns the number of operations currently resident in the
// spill store instead of memory. Lock-free.
func (s *Session) SpilledOps() int64 { return s.e.onDisk.Load() }

// appendOpsText encodes a run of one key's operations in keyed text form,
// the body of a spill blob and of a checkpoint's open window and segments.
func appendOpsText(buf []byte, key string, ops []history.Operation) []byte {
	for _, op := range ops {
		buf = history.AppendOpText(buf, key, op)
	}
	return buf
}

// unpack decodes l into the shard's window buffer; the caller holds sh.mu, and
// the result is good until the next unpack under it.
func (e *engine) unpack(sh *ingestShard, l *opbuf.List) []history.Operation {
	ops := e.buf.Decode(l, sh.window[:0])
	sh.window = ops[:0]
	return ops
}

// packText decodes a keyed-text payload — what a blob and a checkpoint hold —
// onto the end of l and returns how many of its operations are writes. An
// error ends the session, so what l took by then is left for the collector.
func (e *engine) packText(l *opbuf.List, data []byte) (writes int, err error) {
	d := history.TextDecoder{Keyed: true}
	err = d.Scan(data, func(_ []byte, op history.Operation) error {
		if op.IsWrite() {
			writes++
		}
		e.buf.Push(l, &op)
		return nil
	})
	return writes, err
}

// ---- spill ----

// spill moves h's in-memory tail to the blob store as one more blob of keyed
// text; the caller holds the key's shard lock. What the cut rules consult
// before the run is next needed — an open window's value index, write count
// and max finish, a segment's seqs and writes — stays in memory.
func (e *engine) spill(ks *keyState, h *held) error {
	n, bytes := h.ops.Len(), h.ops.Bytes()
	if n == 0 {
		return nil
	}
	buf := appendOpsText(e.spillBuf(n)[:0], ks.key, e.unpack(ks.sh, &h.ops))
	id, err := e.sopts.Store.Put(buf)
	e.spillBufs.Put(buf)
	if err != nil {
		return fmt.Errorf("trace: spill key %q: %w", ks.key, err)
	}
	h.blobs = append(h.blobs, id)
	h.spilled += n
	e.buf.Free(&h.ops)
	e.publish(ks.sh) // the operations leaving memory are counted before they are subtracted
	e.unbuffer(ks.sh, n, bytes)
	e.onDisk.Add(int64(n))
	e.spills.Add(1)
	e.opsSpilled.Add(int64(n))
	return nil
}

// load reads h's blobs back ahead of its tail and deletes them, for the close,
// merge or dispatch that needs the whole run. The blobs are deleted only once
// all of them are read, so a failed load leaves h as it was.
func (e *engine) load(ks *keyState, h *held) error {
	if len(h.blobs) == 0 {
		return nil
	}
	var whole opbuf.List
	for _, id := range h.blobs {
		data, err := e.sopts.Store.Get(id)
		if err == nil {
			_, err = e.packText(&whole, data)
		}
		if err != nil {
			e.buf.Free(&whole)
			return fmt.Errorf("trace: load spilled operations of key %q: %w", ks.key, err)
		}
	}
	for _, id := range h.blobs {
		e.sopts.Store.Del(id)
	}
	n, bytes := whole.Len(), whole.Bytes()
	e.buf.Splice(&whole, &h.ops)
	*h = held{ops: whole}
	ks.sh.buffered.Add(int64(n))
	atomicMax(&e.peakBuffered, e.buffered.Add(int64(n)))
	e.bufferedBytes.Add(bytes)
	e.onDisk.Add(int64(-n))
	e.spillLoads.Add(1)
	return nil
}

// text appends h's keyed text to buf, for a checkpoint: the blobs read back
// without consuming them, then the tail.
func (e *engine) text(ks *keyState, h *held, buf []byte) ([]byte, error) {
	for _, id := range h.blobs {
		data, err := e.sopts.Store.Get(id)
		if err != nil {
			return buf, fmt.Errorf("trace: checkpoint read spilled operations of %q: %w", ks.key, err)
		}
		buf = append(buf, data...)
	}
	return appendOpsText(buf, ks.key, e.unpack(ks.sh, &h.ops)), nil
}

// spillBuf hands out a reusable encode buffer sized for n operations.
func (e *engine) spillBuf(n int) []byte {
	if b, ok := e.spillBufs.Get().([]byte); ok && b != nil {
		return b
	}
	return make([]byte, 0, 32*n)
}

// ---- checkpoint ----

// SegmentState is one held (closed, undispatched) segment in a checkpoint.
type SegmentState struct {
	LoSeq  int    `json:"lo"`
	HiSeq  int    `json:"hi"`
	Writes int    `json:"writes"`
	CutAt  int64  `json:"cutAt,omitempty"` // quiescent cut time (epoch attribution)
	Ops    string `json:"ops"`             // keyed text
}

// KeyState is one register's full accumulator + verdict state at the
// checkpoint freeze.
type KeyState struct {
	Key               string         `json:"key"`
	Seq               int            `json:"seq"`
	Ops               int            `json:"ops"`
	Open              string         `json:"open,omitempty"` // keyed text
	OpenMaxFinish     int64          `json:"openMaxFinish,omitempty"`
	MaxClosedFinish   int64          `json:"maxClosedFinish"`
	ClosedAny         bool           `json:"closedAny,omitempty"`
	Deque             []SegmentState `json:"deque,omitempty"`
	DispatchedThrough int            `json:"dispatched"`
	Values            [][2]int64     `json:"values,omitempty"` // (value, writer seq)
	CumWrites         []int64        `json:"cumWrites,omitempty"`
	CumMaxFinish      []int64        `json:"cumMaxFinish,omitempty"`
	TotalClosed       int64          `json:"totalClosed,omitempty"`
	Err               string         `json:"err,omitempty"`
	ErrSeq            int            `json:"errSeq,omitempty"`
	// KFloor is read, never written: older checkpoints kept the stale-read
	// floor apart from MaxK.
	KFloor int `json:"kFloor,omitempty"`
	verdictState
}

// verdictState is the shape a key's Verdict has in a checkpoint (KeyState
// and RetiredKeyState embed it). The shape predates the flat Verdict and
// must not move, so this is the one place that maps between the two: the k
// verdict in atomic/maxK/saturated, one PropState per enabled extra
// property in canonical order.
type verdictState struct {
	Atomic    bool        `json:"atomic"`
	MaxK      int         `json:"maxK,omitempty"`
	Saturated bool        `json:"saturated,omitempty"`
	Props     []PropState `json:"props,omitempty"`
}

// PropState is one extra property's accumulated verdict in a checkpoint.
type PropState struct {
	Property  string `json:"property"`
	Delta     int64  `json:"delta,omitempty"`
	Unsafe    int    `json:"unsafe,omitempty"`
	Irregular int    `json:"irregular,omitempty"`
	Saturated bool   `json:"saturated,omitempty"`
}

func (e *engine) verdictState(v Verdict) verdictState {
	st := verdictState{Atomic: !v.Violation, MaxK: v.SmallestK, Saturated: v.Saturated}
	if e.sopts.Properties.Has(PropertyDelta) {
		st.Props = append(st.Props, PropState{Property: PropertyDelta.String(), Delta: v.SmallestDelta, Saturated: v.DeltaSaturated})
	}
	if e.sopts.Properties.Has(PropertyRegularity) {
		st.Props = append(st.Props, PropState{Property: PropertyRegularity.String(), Unsafe: v.UnsafeReads, Irregular: v.IrregularReads})
	}
	return st
}

func (st verdictState) verdict() Verdict {
	v := Verdict{Violation: !st.Atomic, SmallestK: st.MaxK, Saturated: st.Saturated}
	for _, ps := range st.Props {
		switch ps.Property {
		case PropertyDelta.String():
			v.SmallestDelta, v.DeltaSaturated = ps.Delta, ps.Saturated
		case PropertyRegularity.String():
			v.UnsafeReads, v.IrregularReads = ps.Unsafe, ps.Irregular
		}
	}
	return v
}

// CarriedStats are the monotonic counters a checkpoint carries forward so a
// recovered session's Stats continue rather than reset.
type CarriedStats struct {
	Segments        int64 `json:"segments,omitempty"`
	Merges          int64 `json:"merges,omitempty"`
	StaleReads      int64 `json:"staleReads,omitempty"`
	PeakBufferedOps int64 `json:"peakBuffered,omitempty"`
	FirstVerdictOps int64 `json:"firstVerdict,omitempty"`
	Spills          int64 `json:"spills,omitempty"`
	OpsSpilled      int64 `json:"opsSpilled,omitempty"`
	SpillLoads      int64 `json:"spillLoads,omitempty"`
}

// RetiredKeyState is one retired key's compact record in a checkpoint.
type RetiredKeyState struct {
	Key             string `json:"key"`
	Ops             int    `json:"ops"`
	MaxClosedFinish int64  `json:"maxClosedFinish"`
	Err             string `json:"err,omitempty"`
	verdictState
}

// SessionCheckpoint is an exact snapshot of a frozen session.
type SessionCheckpoint struct {
	Mode       string       `json:"mode"`                 // "check" | "smallestk"
	Properties string       `json:"properties,omitempty"` // enabled property set, flag syntax
	K          int          `json:"k,omitempty"`
	Threshold  int          `json:"threshold"`
	Flushed    bool         `json:"flushed,omitempty"`
	Err        string       `json:"err,omitempty"`
	Stats      CarriedStats `json:"stats"`
	Keys       []KeyState   `json:"keys"`

	// Keyspace lifecycle state (zero/empty for sessions without RetireTTL or
	// EpochLength, so pre-lifecycle checkpoints round-trip unchanged).
	RetireTTL    int64             `json:"retireTTL,omitempty"`
	EpochLength  int64             `json:"epochLength,omitempty"`
	Watermark    int64             `json:"watermark,omitempty"` // only meaningful when lifecycle enabled
	Retirements  int64             `json:"retirements,omitempty"`
	Readmissions int64             `json:"readmissions,omitempty"`
	Retired      []RetiredKeyState `json:"retired,omitempty"`
	Epochs       []EpochStats      `json:"epochs,omitempty"` // Folded aggregate included, if any
}

// modeName is SessionCheckpoint.Mode for an engine bound k (k > 0 is a
// fixed-k check).
func modeName(k int) string {
	if k > 0 {
		return "check"
	}
	return "smallestk"
}

// Checkpoint snapshots the session at a frozen instant: every shard lock is
// held (no append can land), in-flight verification has drained (every
// verdict is folded in), and — while still frozen — the frozen callback
// runs, which is where the caller rotates its write-ahead log so that the
// snapshot covers exactly the operations of the log epochs before the
// rotation. Spilled operations are read back (without consuming them) and
// inlined. Safe to call on a flushed session (the drain's final state
// snapshots with Flushed set).
func (s *Session) Checkpoint(frozen func() error) (*SessionCheckpoint, error) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for _, sh := range s.e.shards {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(s.e.shards) - 1; i >= 0; i-- {
			s.e.shards[i].mu.Unlock()
		}
	}()
	// Workers never take shard locks, so waiting out in-flight segments
	// while frozen cannot deadlock; a producer waiting on the verification
	// backlog holds its shard lock until a verdict lands, which needs only
	// the workers, and then lets the freeze in.
	s.e.wg.Wait()
	// Nothing is in flight under the freeze, so a retirement still waiting
	// out its last verdict folds now: the key is written as the retired
	// record it is about to become, not as a live key the restored session
	// would retire — and count — a second time.
	for _, sh := range s.e.shards {
		for _, ks := range sh.keys {
			if ks.retiring {
				s.e.finalizeRetire(sh, ks)
			}
		}
	}
	if frozen != nil {
		if err := frozen(); err != nil {
			return nil, err
		}
	}
	return s.buildCheckpoint()
}

func (s *Session) buildCheckpoint() (*SessionCheckpoint, error) {
	e := s.e
	cp := &SessionCheckpoint{
		Mode:       modeName(e.k),
		Properties: e.sopts.Properties.String(),
		K:          e.k,
		Threshold:  e.threshold,
		Flushed:    s.flushed.Load(),
		Stats: CarriedStats{
			Segments:        e.segments.Load(),
			Merges:          e.merges.Load(),
			StaleReads:      e.staleReads.Load(),
			PeakBufferedOps: e.peakBuffered.Load(),
			FirstVerdictOps: e.firstVerdict.Load(),
			Spills:          e.spills.Load(),
			OpsSpilled:      e.opsSpilled.Load(),
			SpillLoads:      e.spillLoads.Load(),
		},
	}
	if err := s.stickyErr(); err != nil {
		cp.Err = err.Error()
	}
	cp.RetireTTL = e.retireTTL
	cp.EpochLength = e.epochLen
	cp.Retirements = e.retirements.Load()
	cp.Readmissions = e.readmissions.Load()
	if wm := e.watermark(); wm != math.MinInt64 {
		cp.Watermark = wm
	}
	for _, sh := range e.shards {
		for key, rk := range sh.retired {
			st := RetiredKeyState{
				Key:             key,
				Ops:             rk.ops,
				MaxClosedFinish: rk.maxClosedFinish,
				verdictState:    e.verdictState(rk.verdict),
			}
			if rk.err != nil {
				st.Err = rk.err.Error()
			}
			cp.Retired = append(cp.Retired, st)
		}
	}
	// Every list is sorted, so a checkpoint is a function of the session's
	// state, not of map iteration order.
	slices.SortFunc(cp.Retired, func(a, b RetiredKeyState) int { return cmp.Compare(a.Key, b.Key) })
	e.epochT.mu.Lock()
	cp.Epochs = e.epochT.List()
	e.epochT.mu.Unlock()
	var buf []byte
	for _, sh := range e.shards {
		for _, ks := range sh.keys {
			st := KeyState{
				Key:               ks.key,
				Seq:               ks.seq,
				Ops:               ks.ops,
				OpenMaxFinish:     ks.openMaxFinish,
				MaxClosedFinish:   ks.maxClosedFinish,
				ClosedAny:         ks.closedAny,
				DispatchedThrough: ks.dispatchedThrough,
				CumWrites:         ks.cumWrites,
				CumMaxFinish:      ks.cumMaxFinish,
				TotalClosed:       ks.totalClosed,
			}
			var err error
			if buf, err = e.text(ks, &ks.open, buf[:0]); err != nil {
				return nil, err
			}
			if len(buf) > 0 {
				st.Open = string(buf)
			}
			// Values lists the index's pairs and, under the open seq, the open
			// window's writes it does not hold, as when writes were indexed on
			// arrival: the index learns them at the close, and a restore drops
			// them again.
			values := ks.values.AppendPairs(nil)
			d := history.TextDecoder{Keyed: true}
			err = d.Scan(buf, func(_ []byte, op history.Operation) error {
				if _, ok := ks.values.Get(op.Value); op.IsWrite() && !ok {
					values = append(values, [2]int64{op.Value, int64(ks.seq)})
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("trace: checkpoint decode open window of %q: %w", ks.key, err)
			}
			if len(values) > 0 {
				// A value the window wrote twice is listed once.
				slices.SortFunc(values, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
				st.Values = slices.Compact(values)
			}
			for i := range ks.deque {
				seg := &ks.deque[i]
				if buf, err = e.text(ks, &seg.held, buf[:0]); err != nil {
					return nil, err
				}
				st.Deque = append(st.Deque, SegmentState{LoSeq: seg.loSeq, HiSeq: seg.hiSeq, Writes: seg.writes, CutAt: seg.cutAt, Ops: string(buf)})
			}
			ks.mu.Lock()
			st.verdictState = e.verdictState(ks.verdict)
			if ks.err != nil {
				st.Err = ks.err.Error()
				st.ErrSeq = ks.errSeq
			}
			ks.mu.Unlock()
			cp.Keys = append(cp.Keys, st)
		}
	}
	slices.SortFunc(cp.Keys, func(a, b KeyState) int { return cmp.Compare(a.Key, b.Key) })
	return cp, nil
}

// RestoreCheckpoint loads a checkpoint into a fresh session. It must run
// before any append (and before SetShardLogger, so restored state is not
// re-logged). The session's mode, k, and threshold must match the
// checkpoint's — the horizon participates in dispatch decisions, so a
// changed threshold would not reproduce the original run. The ingest shard
// count may differ: keys re-route by hash.
func (s *Session) RestoreCheckpoint(cp *SessionCheckpoint) error {
	e := s.e
	if e.opsIngested() != 0 || e.keyCount.Load() != 0 {
		return errors.New("trace: RestoreCheckpoint on a session that already ingested")
	}
	if got := modeName(e.k); got != cp.Mode {
		return fmt.Errorf("trace: checkpoint mode %q does not match session mode %q", cp.Mode, got)
	}
	// Older checkpoints carry no Properties field; they were written by
	// k-only sessions, which "k" (the PropertySet zero value's name) matches.
	if got := e.sopts.Properties.String(); cp.Properties != "" && cp.Properties != got {
		return fmt.Errorf("trace: checkpoint properties %q do not match session properties %q", cp.Properties, got)
	}
	if cp.Properties == "" && e.sopts.Properties.String() != "k" {
		return fmt.Errorf("trace: k-only checkpoint does not match session properties %q", e.sopts.Properties.String())
	}
	if e.k != cp.K {
		return fmt.Errorf("trace: checkpoint k=%d does not match session k=%d", cp.K, e.k)
	}
	if e.threshold != cp.Threshold {
		return fmt.Errorf("trace: checkpoint horizon %d does not match session horizon %d (restart with the original -horizon)", cp.Threshold, e.threshold)
	}
	if e.retireTTL != cp.RetireTTL {
		return fmt.Errorf("trace: checkpoint retire TTL %d does not match session retire TTL %d (restart with the original -retire-ttl)", cp.RetireTTL, e.retireTTL)
	}
	if e.epochLen != cp.EpochLength {
		return fmt.Errorf("trace: checkpoint epoch length %d does not match session epoch length %d (restart with the original -epoch)", cp.EpochLength, e.epochLen)
	}
	var vals []int64 // one segment's values, for the value index
	for _, st := range cp.Keys {
		sh := e.shards[shardIndex(e, st.Key)]
		if _, dup := sh.keys[st.Key]; dup {
			return fmt.Errorf("trace: checkpoint repeats key %q", st.Key)
		}
		ks := e.newKey(sh, st.Key)
		ks.seq = st.Seq
		ks.ops = st.Ops
		ks.openMaxFinish = st.OpenMaxFinish
		ks.maxClosedFinish = st.MaxClosedFinish
		ks.closedAny = st.ClosedAny
		ks.dispatchedThrough = st.DispatchedThrough
		ks.cumWrites = st.CumWrites
		ks.cumMaxFinish = st.CumMaxFinish
		ks.totalClosed = st.TotalClosed
		// Each segment's values go back in one Add, in segment order, as its
		// close entered them, so the index gathers the same runs. The open
		// window's writes enter the index when it closes; the checkpoint lists
		// them all the same (see buildCheckpoint), and taking them now would
		// make that close a duplicate of itself.
		pairs := slices.Clone(st.Values)
		slices.SortFunc(pairs, func(a, b [2]int64) int { return cmp.Or(cmp.Compare(a[1], b[1]), cmp.Compare(a[0], b[0])) })
		for i := 0; i < len(pairs); {
			seq := pairs[i][1]
			if seq < 0 || seq > int64(st.Seq) {
				return fmt.Errorf("trace: checkpoint value %d of %q names segment %d, outside 0..%d", pairs[i][0], st.Key, seq, st.Seq)
			}
			vals = vals[:0]
			for ; i < len(pairs) && pairs[i][1] == seq; i++ {
				vals = append(vals, pairs[i][0])
			}
			if seq != int64(st.Seq) {
				ks.values.Add(vals, int32(seq))
			}
		}
		var err error
		if ks.openWrites, err = e.packText(&ks.open.ops, []byte(st.Open)); err != nil {
			return fmt.Errorf("trace: checkpoint open window of %q: %w", st.Key, err)
		}
		pending, bytes := ks.open.Len(), ks.open.ops.Bytes()
		for _, ss := range st.Deque {
			seg := closedSeg{loSeq: ss.LoSeq, hiSeq: ss.HiSeq, writes: ss.Writes, cutAt: ss.CutAt}
			if _, err := e.packText(&seg.ops, []byte(ss.Ops)); err != nil {
				return fmt.Errorf("trace: checkpoint segment of %q: %w", st.Key, err)
			}
			ks.deque = append(ks.deque, seg)
			ks.dequeWrites += ss.Writes
			pending += seg.Len()
			bytes += seg.ops.Bytes()
		}
		sh.ingested.Add(int64(st.Ops))
		sh.buffered.Add(int64(pending))
		e.buffered.Add(int64(pending))
		e.bufferedBytes.Add(bytes)
		sh.openMax = max(sh.openMax, int64(ks.open.Len()))
		sh.maxOpen.Store(sh.openMax)
		ks.verdict = st.verdict()
		ks.verdict.Fold(Verdict{SmallestK: st.KFloor})
		if st.Err != "" {
			ks.err = errors.New(st.Err)
			ks.errSeq = st.ErrSeq
		}
		if st.Saturated {
			e.saturatedKeys.Add(1)
		}
		e.resettle(ks)
	}
	for _, st := range cp.Retired {
		sh := e.shards[shardIndex(e, st.Key)]
		if _, dup := sh.keys[st.Key]; dup {
			return fmt.Errorf("trace: checkpoint retires live key %q", st.Key)
		}
		if sh.retired == nil {
			sh.retired = make(map[string]*retiredKey)
		}
		if _, dup := sh.retired[st.Key]; dup {
			return fmt.Errorf("trace: checkpoint repeats retired key %q", st.Key)
		}
		rk := &retiredKey{
			ops:             st.Ops,
			maxClosedFinish: st.MaxClosedFinish,
			verdict:         st.verdict(),
		}
		if st.Err != "" {
			rk.err = errors.New(st.Err)
		}
		sh.retired[st.Key] = rk
		sh.ingested.Add(int64(st.Ops))
		e.keyCount.Add(1)
		e.retiredNow.Add(1)
		e.retiredOps.Add(int64(st.Ops))
		if st.Saturated {
			e.saturatedKeys.Add(1)
		}
	}
	e.retirements.Store(cp.Retirements)
	e.readmissions.Store(cp.Readmissions)
	if cp.Watermark != 0 {
		for _, sh := range e.shards {
			sh.wmStart = cp.Watermark
			sh.maxStart.Store(cp.Watermark)
		}
	}
	for _, es := range cp.Epochs {
		e.epochT.Fold(es)
	}
	e.segments.Store(cp.Stats.Segments)
	e.merges.Store(cp.Stats.Merges)
	e.staleReads.Store(cp.Stats.StaleReads)
	atomicMax(&e.peakBuffered, cp.Stats.PeakBufferedOps)
	atomicMax(&e.peakBuffered, e.buffered.Load())
	e.firstVerdict.Store(cp.Stats.FirstVerdictOps)
	e.spills.Store(cp.Stats.Spills)
	e.opsSpilled.Store(cp.Stats.OpsSpilled)
	e.spillLoads.Store(cp.Stats.SpillLoads)
	if cp.Err != "" {
		s.stick(errors.New(cp.Err))
	}
	if cp.Flushed {
		s.flushed.Store(true)
	}
	return nil
}

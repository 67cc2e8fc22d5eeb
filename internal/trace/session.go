package trace

// Session: the one driver of the streaming engine.
//
// Everything that reaches engine.addOp goes through a Session, as a batch
// through feed (batch.go), the one copy of the admission discipline, routing
// loop and write-ahead encoding: AppendBatch takes parsed operations,
// AppendWire decodes wire frames, AppendTraceBatch parses keyed text in
// chunks, Append is a batch of one. feed groups a batch's operations by
// ingest shard and feeds every shard's group under one lock acquisition.
//
// The reader-driven functions (StreamCheck, StreamSmallestKByKey,
// StreamVerdictsByKey in stream.go) are a Session too: opened, fed from the
// reader by AppendWire or AppendTraceBatch, flushed. So are kavserve's ingest
// handlers and write-ahead-log recovery. The segment-equivalence lemma in
// stream.go never depended on who feeds the engine: per-key arrival order is
// all it needs, and every batch preserves it.
//
// Verdicts accumulate on the verification pool as segments close, Snapshot
// reads the live per-key state at any moment, and Flush is the graceful
// drain: it commits every open window, verifies everything still held, and
// waits, after which the reports are final — the same for any shard count or
// batch boundaries over the same operations.
//
// Concurrency shape: there is no session-wide lock. Per-key state is
// striped over StreamOptions.IngestShards independently locked shards
// (key-hash routed), the session-level admission flags (sticky ingest
// error, flushed) are atomics, and every statistic reads lock-free — so
// producers contend only when their keys share a shard, and monitoring
// never queues behind a backpressured producer.
//
// Many sessions may share one verification pool via StreamOptions.Pool; a
// session only ever waits on its own dispatched segments.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"kat/internal/core"
)

// ErrSessionFlushed reports an Append on a session that was already drained
// by Flush. A flushed session is terminal: its cuts are committed, so later
// operations could not be admitted without violating the arrival-order
// invariant.
var ErrSessionFlushed = errors.New("trace: session already flushed")

// stickyIngestErr boxes the first ingest error so it can live in an
// atomic.Pointer (admission gating without a lock).
type stickyIngestErr struct{ err error }

// Session drives the streaming engine. Create one with NewCheckSession
// (fixed-k verdicts) or NewSmallestKSession (per-key smallest-k); feed it
// with Append or the batch forms AppendBatch / AppendWire /
// AppendTraceBatch; observe it with Snapshot, Stats, Report, or
// SmallestKByKey; and retire it with Flush.
//
// All methods are safe for concurrent use: appends from many goroutines
// interleave at operation granularity (batch appends at shard-batch
// granularity; per-key operations must still arrive in nondecreasing start
// order across quiescent gaps, so route each key through one producer — see
// ErrOutOfOrder). Ingest errors are sticky: after an append fails, every
// later append returns the same error and Flush reports it.
type Session struct {
	e *engine

	// err is the sticky ingest error: the first failing append publishes
	// it (CAS, first writer wins) and every later admission check reads it
	// without a lock.
	err atomic.Pointer[stickyIngestErr]
	// flushed marks the session terminal. Appends recheck it under their
	// shard lock, and Flush acquires every shard lock after setting it, so
	// no append can slip in behind the drain.
	flushed atomic.Bool
	// flushMu serializes Flush itself (idempotence; concurrent callers all
	// wait for the one drain).
	flushMu sync.Mutex
	// replaying holds retirement sweeps off while Replay feeds a log record.
	replaying atomic.Bool

	// logger, when set, receives the write-ahead copy of every accepted
	// operation (see ShardLogger in durable.go). An atomic pointer so the
	// undurable hot path pays one load and a nil check.
	logger atomic.Pointer[loggerBox]

	// batchScratches recycles the per-call grouping buffers of the batch
	// ingest paths, keeping them allocation-free at steady state.
	batchScratches sync.Pool
	// batchChunk overrides the AppendTraceBatch read-chunk size (bytes);
	// 0 uses defaultBatchChunk. Reader-driven runs set streamChunk; tests
	// shrink it to exercise chunk-boundary carry handling.
	batchChunk int
}

// NewCheckSession returns a session verifying every key at bound k.
func NewCheckSession(k int, opts core.Options, sopts StreamOptions) (*Session, error) {
	if k < 1 {
		return nil, fmt.Errorf("trace: k must be >= 1, got %d", k)
	}
	return &Session{e: newEngine(k, opts, sopts)}, nil
}

// NewSmallestKSession returns a session computing each key's smallest k,
// exact up to StreamOptions.Horizon (see DefaultHorizon).
func NewSmallestKSession(opts core.Options, sopts StreamOptions) *Session {
	return &Session{e: newEngine(0, opts, sopts)}
}

// gate checks admission preconditions, lock-free: a flushed session is
// terminal, and ingest errors are sticky.
func (s *Session) gate() error {
	if s.flushed.Load() {
		return ErrSessionFlushed
	}
	return s.stickyErr()
}

// stick publishes err as the session's sticky ingest error (nil is a no-op)
// and returns it. The first error wins the slot; concurrent appends that
// were already past the gate may still report their own errors, every later
// admission returns the published one.
func (s *Session) stick(err error) error {
	if err != nil {
		s.err.CompareAndSwap(nil, &stickyIngestErr{err})
	}
	return err
}

// Flush drains the session: it commits every open window, dispatches all
// held segments, waits for every in-flight verification, and — for an
// engine-owned pool — releases the workers. After Flush the session is
// terminal (Append returns ErrSessionFlushed) and Report, SmallestKByKey,
// and Snapshot are final. Flush returns the sticky ingest error, if any;
// a session that erred drains only what was already dispatched. Flush is
// idempotent.
func (s *Session) Flush() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if s.flushed.Load() {
		return s.stickyErr()
	}
	s.flushed.Store(true)
	// Take every shard lock: in-flight appends (which passed the gate
	// before the flag flipped) finish first, and later ones recheck the
	// gate under their shard lock and bounce. Holding the locks through
	// the drain also keeps Snapshot readers out of the half-committed
	// windows.
	for _, sh := range s.e.shards {
		sh.mu.Lock()
	}
	// A spill reload failing during the drain is this session's first error
	// — record it so Flush and the reports surface it.
	s.stick(s.e.drain(s.stickyErr()))
	for i := len(s.e.shards) - 1; i >= 0; i-- {
		s.e.shards[i].mu.Unlock()
	}
	s.e.finish()
	return s.stickyErr()
}

// stickyErr returns the published sticky ingest error, if any.
func (s *Session) stickyErr() error {
	if p := s.err.Load(); p != nil {
		return p.err
	}
	return nil
}

// KeyVerdict is one key's live verification state, as reported by Snapshot.
type KeyVerdict struct {
	// Key is the register.
	Key string
	// Ops counts the key's ingested operations.
	Ops int
	// PendingOps counts operations not yet dispatched for verification:
	// the open window plus held (closed but not horizon-cleared) segments.
	// Zero after Flush.
	PendingOps int
	// Atomic is the fixed-k verdict over everything verified so far (check
	// sessions; true until a violating segment lands, final after Flush).
	// False whenever Err is set.
	Atomic bool
	// Properties is the set of properties verified for this key (always
	// includes k-atomicity; extras per StreamOptions.Properties).
	Properties PropertySet
	// Verdict is the fold of every segment verified and every stale-read
	// floor so far, over all the key's lifetimes: SmallestK and SmallestDelta
	// are lower bounds until Flush and 0 before any segment verdict, the
	// read counts cover everything verified so far, and a Saturated or
	// DeltaSaturated value stays a floor even after Flush. Zero whenever Err
	// is set.
	Verdict
	// Retired reports that the key was retired after its TTL of quiescence:
	// the verdict is its folded final state (identical to what a
	// never-retired run reports) and its live state has been freed. A later
	// operation re-admits the key and clears the flag.
	Retired bool
	// Err is the key's anomaly or verification error, if any.
	Err error
}

// Snapshot returns the live per-key state, key-sorted. It may be called at
// any time, including concurrently with appends (each shard is read under
// its own lock, one shard at a time); verdict fields reflect exactly the
// segments verified so far.
func (s *Session) Snapshot() []KeyVerdict {
	return s.e.keyVerdicts()
}

// Report projects the Snapshot onto the fixed-k trace report of a check
// session, the shape CheckParallel produces. Before Flush it covers only the
// segments verified so far (keys with undispatched operations may still
// flip); after Flush it is final.
func (s *Session) Report() (Report, StreamStats) {
	kvs := s.e.keyVerdicts()
	rep := Report{K: s.e.k, Keys: make([]KeyReport, len(kvs))}
	for i, kv := range kvs {
		rep.Keys[i] = KeyReport{Key: kv.Key, Ops: kv.Ops, Atomic: kv.Atomic, Err: kv.Err}
	}
	return rep, s.e.finalStats()
}

// SmallestKByKey projects the Snapshot onto the map SmallestKByKeyParallel
// produces (0 for keys that failed verification). Before Flush the values
// are lower bounds; after Flush they are final, up to the horizon (Saturated
// keys report the floor).
func (s *Session) SmallestKByKey() (map[string]int, StreamStats) {
	kvs := s.e.keyVerdicts()
	out := make(map[string]int, len(kvs))
	for _, kv := range kvs {
		if kv.Err == nil {
			out[kv.Key] = max(1, kv.SmallestK)
		} else {
			out[kv.Key] = 0
		}
	}
	return out, s.e.finalStats()
}

// Stats returns the session's streaming statistics so far. Entirely
// lock-free, so monitoring never contends with ingest.
func (s *Session) Stats() StreamStats {
	return s.e.finalStats()
}

// BufferedOps returns the number of live operations currently held by the
// session (open windows + held segments + in-flight verification) — the
// working-set gauge an operator watches. Lock-free.
func (s *Session) BufferedOps() int64 { return s.e.buffered.Load() }

// BufferedBytes returns the memory those operations are held in: the chunk
// bytes of every open window, held segment and segment in flight, about ten
// bytes an operation on a plain trace plus each list's half-empty last chunk
// (package opbuf). A server's memory budget is judged against it, and Relieve
// spills down to it. Lock-free.
func (s *Session) BufferedBytes() int64 { return s.e.bufferedBytes.Load() }

// BacklogOps returns the operations dispatched to verification whose
// verdicts have not landed yet: at most 16 384 a worker, or one segment
// larger than that dispatched alone. Lock-free.
func (s *Session) BacklogOps() int64 { return s.e.backlog.Load() }

// BacklogWaits returns how many dispatches so far had to wait for room in
// the verification backlog. Lock-free.
func (s *Session) BacklogWaits() int64 { return s.e.backlogWaits.Load() }

// Keys returns the number of distinct keys seen so far. Lock-free, so
// monitoring never queues behind a backpressured Append.
func (s *Session) Keys() int64 { return s.e.keyCount.Load() }

// PeakBufferedOps returns the largest BufferedOps value observed. Lock-free.
func (s *Session) PeakBufferedOps() int64 { return s.e.peakBuffered.Load() }

// Shards returns the session's ingest shard count (the resolved
// StreamOptions.IngestShards).
func (s *Session) Shards() int { return len(s.e.shards) }

// ShardIngestedOps returns the number of operations routed into shard i so
// far. Lock-free; feed it to a per-shard gauge to watch key-hash balance.
func (s *Session) ShardIngestedOps(i int) int64 { return s.e.shards[i].ingested.Load() }

// ShardBufferedOps returns shard i's live operations (open windows + held
// segments + in-flight verification of its keys). Lock-free.
func (s *Session) ShardBufferedOps(i int) int64 { return s.e.shards[i].buffered.Load() }

// IngestLockAcquisitions returns the total number of ingest-path shard-lock
// acquisitions so far, summed over shards — the numerator of the
// locks-per-operation measurement that batch ingest shrinks (monitoring and
// Flush acquisitions are not counted). Lock-free.
func (s *Session) IngestLockAcquisitions() int64 {
	var n int64
	for _, sh := range s.e.shards {
		n += sh.lockTakes.Load()
	}
	return n
}

// SnapshotKey returns one key's live verification state (see Snapshot),
// without building the full key-sorted snapshot; ok is false for keys the
// session has not seen.
func (s *Session) SnapshotKey(key string) (KeyVerdict, bool) {
	sh := s.e.shards[shardIndex(s.e, key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ks, ok := sh.keys[key]; ok {
		return s.e.liveVerdict(ks), true
	}
	if rk, ok := sh.retired[key]; ok {
		return s.e.retiredVerdict(key, rk), true
	}
	return KeyVerdict{}, false
}

// keyVerdict builds the verdict of a live or a retired key from its folded
// state. An error dominates every property, so an errored key reports a zero
// Verdict: what its segments folded in before the anomaly settled the key
// depends on scheduling.
func (e *engine) keyVerdict(key string, ops int, v Verdict, err error) KeyVerdict {
	if err != nil {
		v = Verdict{}
	}
	return KeyVerdict{
		Key:        key,
		Ops:        ops,
		Atomic:     err == nil && !v.Violation,
		Properties: PropertySetK | e.sopts.Properties,
		Verdict:    v,
		Err:        err,
	}
}

// liveVerdict builds one key's verdict; the caller holds the key's shard
// lock (for the ingest-side fields), and the verdict fields are read under
// the key's own lock.
func (e *engine) liveVerdict(ks *keyState) KeyVerdict {
	ks.mu.Lock()
	kv := e.keyVerdict(ks.key, ks.ops, ks.verdict, ks.err)
	ks.mu.Unlock()
	kv.PendingOps = ks.open.Len()
	for i := range ks.deque {
		kv.PendingOps += ks.deque[i].Len()
	}
	return kv
}

// retiredVerdict is liveVerdict for a retired record.
func (e *engine) retiredVerdict(key string, rk *retiredKey) KeyVerdict {
	kv := e.keyVerdict(key, rk.ops, rk.verdict, rk.err)
	kv.Retired = true
	return kv
}

// keyVerdicts builds the key-sorted per-key verdict list — the one walk over
// the shards every per-key result (Snapshot, Report, SmallestKByKey) is read
// from. Each shard is read under its own lock, one shard at a time.
func (e *engine) keyVerdicts() []KeyVerdict {
	var out []KeyVerdict
	e.eachShardLocked(func(sh *ingestShard) {
		for _, ks := range sh.keys {
			out = append(out, e.liveVerdict(ks))
		}
		for key, rk := range sh.retired {
			out = append(out, e.retiredVerdict(key, rk))
		}
	})
	sortKeyVerdicts(out)
	return out
}

func sortKeyVerdicts(kvs []KeyVerdict) {
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
}

package trace

// Streaming segmented verification.
//
// The monolithic checkers materialize a whole trace before the first
// verification step runs, so peak memory and time-to-first-verdict are both
// O(trace). The engine in this file verifies a trace in O(open-window)
// memory instead, by cutting each register's history at *safe cut points*
// and dispatching every closed segment to a verifier pool while ingest
// continues. This header holds the lemma and the cut rules; how operations
// reach the engine (always through a Session) is described in session.go.
//
// A cut between a prefix A and a suffix B of one register's history is safe
// when (see zone.SafeCut for the offline form):
//
//	(a) quiescence: every operation in A finishes before every operation
//	    in B starts, and
//	(b) value-closedness: no read in B returns a value written in A.
//
// Segment-equivalence lemma: if every cut is safe, the history is k-atomic
// iff every segment is, for every k — and smallest-k(H) = max over segments
// of smallest-k(S). Proof sketch: (a) forces any total order consistent
// with real time to concatenate per-segment orders, and (b) keeps each
// read's dictating write inside the read's own segment, so the writes
// between a dictating write and its read in the concatenated order are
// exactly the writes between them in that segment's order. Restriction and
// concatenation of witnesses therefore preserve k-atomicity in both
// directions. (TestCutsPreserveSmallestK checks this directly.)
//
// Streaming discovers (a) online: provided each key's operations arrive in
// nondecreasing start order (the natural order of an operation log; see
// ErrOutOfOrder), the moment an arriving operation starts after the maximum
// finish time of the open window, a quiescent cut is committed. (b) cannot
// be known in advance — a read a million operations later may still return
// a value from the segment just closed — so closed segments are held in a
// small per-key deque and dispatched only once at least `threshold` writes
// have closed behind them (threshold = k for fixed-k checks, the staleness
// horizon for smallest-k). Then:
//
//   - a read returning a value from a deque segment merges that segment
//     (and everything after it) back into the closing one — the union is
//     still a validly closed segment, and the joint constraint is decided
//     exactly by the verifier;
//   - a read returning a value from an already-dispatched segment has, by
//     construction, at least `threshold` writes forced between its
//     dictating write and itself in every valid total order, so for a
//     fixed-k check it is a definitive violation (staleness > k) with no
//     joint reasoning needed. For smallest-k it yields a lower bound
//     (the key is reported at that floor and counted in
//     Stats.SaturatedKeys — raise StreamOptions.Horizon for exactness on
//     deeper-stale traces).
//
// Memory: per key, the open window plus at most `threshold` writes' worth
// of closed segments, plus two index structures that are never pruned —
// every distinct written value (the value index that classifies reads and
// detects cross-segment duplicate writes; dropping values would misreport a
// deep stale read as a dangling-read anomaly) and one cumulative write count
// per closed segment. The value index (package valueindex) keeps each
// window's stretches of consecutive values as one 16-byte run and every other
// value in a flat table at 16 to 32 bytes, so a key writing a counter costs
// well under a byte per value (0.25 on keys shaped like the
// serve-wire-uniform benchmark's, about one run per window) and one writing
// random values what a table does (a map[int64]int32: 24 to 38). It is
// updated when a window closes, not when a write arrives: reads are only
// classified at a close, so nothing consults it in between, and a window's
// writes enter it in one call while the key's index is in cache (a duplicate
// value is therefore reported when its window closes, under that window's
// sequence number).
//
// Every buffered operation — open window, held segment, segment in flight —
// is held packed in one store (engine.buf, package opbuf): a varint record of
// about ten bytes on a plain trace (value, start as a delta from the record
// before it, duration; weight and client only when set) in 256-byte chunks
// that hold no pointers, strung into lists by index. An arriving operation is
// encoded into its key's last chunk; a close decodes the window once, into the
// shard's buffer, for its two passes and hands the list on as it is; a merge
// links lists; a worker decodes the list into its own buffer and frees the
// chunks before it verifies. Waiting costs an operation its record plus its
// share of the half-empty last chunk of its list — against 56 bytes of
// history.Operation and the slack of a doubling slice — and
// Session.BufferedBytes reports the chunk bytes in use. Freed chunks are
// reused, so the store stays at its high-water mark: the dominant term on
// bounded traces. On unbounded streams with ever-fresh values the value index
// is the asymptotic term, and Session.BufferedBytes — what a server's memory
// budget bounds — counts only the operation buffering. Spill blobs,
// checkpoints and the write-ahead log hold text and wire frames as before: the
// packed form is memory only.
//
// Counters: admitting an operation writes no memory another core reads. The
// per-shard and engine-wide counts (operations ingested and buffered, the
// buffered peak, the largest open window, the ingest watermark) accumulate in
// plain fields under the shard lock and publish once per shard group of a
// batch (engine.publish), so the /metrics ingest gauges and the server's
// memory-budget check lag by at most one shard group of one request; between
// requests, and after Flush, they are exact.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"kat/internal/core"
	"kat/internal/history"
	"kat/internal/opbuf"
	"kat/internal/valueindex"
	"kat/internal/wire"
	"kat/internal/zone"
)

// ErrOutOfOrder reports an operation that starts at or before a cut that was
// already committed for its key. The streaming engine requires each key's
// operations to arrive in nondecreasing start order across quiescent gaps
// (arbitrary interleaving within an open window is fine); an operation log
// sorted by invocation time satisfies this.
var ErrOutOfOrder = errors.New("trace: operation starts at or before a committed cut")

// DefaultHorizon is the smallest-k dispatch horizon when
// StreamOptions.Horizon is zero: a closed segment is verified (and its
// operations released) once this many writes have closed behind it.
const DefaultHorizon = 256

// DefaultMinSegmentOps is the segment batching floor when
// StreamOptions.MinSegmentOps is zero. Cutting at every quiescent instant
// is sound but drowns the pipeline in tiny segments; since the
// segment-equivalence lemma holds for any subset of safe cuts, the open
// window instead accumulates at least this many operations before the next
// quiescent instant commits a cut.
const DefaultMinSegmentOps = 128

// DefaultIngestShards is the session ingest shard count when
// StreamOptions.IngestShards is zero: enough stripes that a few dozen
// concurrent producers rarely collide, cheap enough (a map plus a handful
// of counters per shard) that small sessions don't notice.
const DefaultIngestShards = 16

// maxIngestShards bounds StreamOptions.IngestShards; shards beyond any
// plausible producer count only waste memory and make per-shard metrics
// unreadable.
const maxIngestShards = 4096

// StreamOptions tunes the streaming engine.
type StreamOptions struct {
	// Workers sizes the verification pool; <= 0 uses GOMAXPROCS.
	Workers int
	// Pool, when non-nil, runs segment verification on this shared
	// work-stealing pool instead of a private one, so any number of
	// concurrent streams and sessions (the online service, batch sweeps
	// over many small traces) share one set of workers and their warm
	// scratch arenas. Workers is then ignored, and the pool is left open
	// when the stream finishes — whoever created it closes it.
	Pool *core.Pool
	// Horizon is the smallest-k dispatch horizon in writes (see
	// DefaultHorizon). Fixed-k checks ignore it and use k itself: a read
	// reaching past k closed writes is already a definitive violation.
	Horizon int
	// MinSegmentOps is the minimum open-window size before a quiescent
	// instant commits a cut (see DefaultMinSegmentOps; use 1 to cut at
	// every quiescent instant). Verdicts are identical for any value —
	// only segment granularity, and so pipelining overhead versus peak
	// memory, changes.
	MinSegmentOps int
	// IngestShards partitions a Session's per-key ingest state over this
	// many independently locked shards (key-hash routed), so concurrent
	// producers contend only when their keys share a shard. <= 0 uses
	// DefaultIngestShards for sessions and one shard for the reader-driven
	// Stream* functions (their single producer has nothing to contend
	// with). Verdicts are identical for any value — keys never share
	// state, so routing them to different locks cannot change a verdict.
	IngestShards int
	// Store, when non-nil, lets Session.Relieve spill held runs — open
	// windows and held segments — to it, largest first; a spilled run reloads
	// only when the cut rules next need it (close, merge, dispatch), which
	// bounds ingest memory for traces whose windows never quiesce. Verdicts
	// are identical with or without a store (the verifiers renumber
	// operations anyway); spill I/O errors surface as ingest errors.
	Store BlobStore
	// OnSegment, when non-nil, is invoked from verification workers after
	// each segment verdict. Callbacks may run concurrently.
	OnSegment func(SegmentVerdict)
	// Properties selects which consistency properties the engine verifies
	// over its segments (k-atomicity is always on; the zero value selects it
	// alone). Extra properties ride the same parse/cut/schedule pass: each
	// closed segment is checked once per enabled property by the same
	// worker into one Verdict, and per-key verdicts fold (see Verdict.Fold).
	Properties PropertySet
	// RetireTTL enables quiescent-key retirement: a key idle for at least
	// this many trace-time units against the global ingest watermark is
	// collapsed to a compact retired record and its state freed, with the
	// verdict floor carried forward on re-admission (see lifecycle.go for
	// the soundness argument and the skew-tolerance trade). 0 disables
	// automatic sweeps; Session.RetireIdle still works.
	RetireTTL int64
	// RetireSweepOps is the per-shard operation interval between retirement
	// sweeps (<= 0 uses DefaultRetireSweepOps).
	RetireSweepOps int
	// EpochLength, when positive, folds every segment verdict into the
	// summary of the epoch window its quiescent cut falls in (epoch N covers
	// trace time [N*EpochLength, (N+1)*EpochLength)), so infinite streams
	// answer windowed verdict queries (Session.Epochs, EpochSummary).
	EpochLength int64
}

// SegmentVerdict is the outcome of one verified segment.
type SegmentVerdict struct {
	// Key is the register the segment belongs to.
	Key string
	// Seq is the first segment sequence number covered (merged segments
	// span several).
	Seq int
	// Ops is the segment length.
	Ops int
	// ScanOnly marks a segment of an already-settled key: it was scanned for
	// anomalies only, so the Verdict is empty and Err is all it carries.
	ScanOnly bool
	// Verdict is every enabled property's verdict over the segment; empty
	// when Err is set, except that a fixed-k session counts an anomalous
	// segment as a Violation.
	Verdict
	// Err is the segment's anomaly error, if any.
	Err error
}

// StreamStats describes a session's streaming run so far (final after
// Flush).
type StreamStats struct {
	// Ops and Keys count ingested operations and distinct registers.
	Ops  int64
	Keys int
	// Segments counts dispatched segments; Merges counts deque segments
	// merged back into a closing one by a backward-reaching read.
	Segments int64
	Merges   int64
	// MaxOpenOps is the largest single open window observed.
	MaxOpenOps int
	// PeakBufferedOps is the maximum number of live operations observed
	// (open windows + held segments + in-flight verification) — the
	// engine's working-set bound, compared to Ops for a monolithic run.
	PeakBufferedOps int64
	// StaleReads counts reads that returned values from already-dispatched
	// segments (definitive violations for fixed-k checks; lower-bound
	// floors for smallest-k).
	StaleReads int64
	// SaturatedKeys counts keys whose smallest-k is only a lower bound
	// because a read reached past the horizon.
	SaturatedKeys int
	// FirstVerdictOps is the ingest position (in operations) when the first
	// segment verdict landed; 0 if no verdict arrived before Flush.
	FirstVerdictOps int64
	// Spills / OpsSpilled / SpillLoads count spill-to-disk activity when a
	// StreamOptions.Store is configured: spill events, cumulative
	// operations written to the store, and reload events.
	Spills     int64
	OpsSpilled int64
	SpillLoads int64
	// RetiredKeys counts currently retired keys; Retirements and
	// Readmissions count lifetime retire / re-admit events (see
	// StreamOptions.RetireTTL).
	RetiredKeys  int64
	Retirements  int64
	Readmissions int64
	// Ladder counts the smallest-k units decided at each rung of the ladder
	// and its oracle calls, over every verified segment (core.Ladder). It is
	// this process's count: a checkpoint does not carry it.
	Ladder core.Ladder
}

// Fold merges another session's statistics into s (a cluster's members hold
// disjoint keys). Counters sum; MaxOpenOps is a per-window maximum so it
// takes the max; FirstVerdictOps is meaningless across sessions and stays
// what it was.
func (s *StreamStats) Fold(o StreamStats) {
	s.Ops += o.Ops
	s.Keys += o.Keys
	s.Segments += o.Segments
	s.Merges += o.Merges
	s.MaxOpenOps = max(s.MaxOpenOps, o.MaxOpenOps)
	s.PeakBufferedOps += o.PeakBufferedOps
	s.StaleReads += o.StaleReads
	s.SaturatedKeys += o.SaturatedKeys
	s.Spills += o.Spills
	s.OpsSpilled += o.OpsSpilled
	s.SpillLoads += o.SpillLoads
	s.RetiredKeys += o.RetiredKeys
	s.Retirements += o.Retirements
	s.Readmissions += o.Readmissions
	s.Ladder.Add(o.Ladder)
}

// streamChunk is the text read-chunk size of a reader-driven run. Its one
// producer parses a whole chunk before feeding any of it, so at the server's
// defaultBatchChunk the 2×workers dispatch queue drains while the next chunk
// parses, and a small run pays megabytes of one-shot scratch
// (BenchmarkStreamCheckZipf/workers=1 +18 %, BenchmarkMultiProperty/props=k
// 6.8 → 11 MB/op); 32 KiB keeps the workers fed and the scratch small.
const streamChunk = 32 << 10

// streamRun is the reader-driven form of the engine, the one body behind
// StreamCheck, StreamSmallestKByKey and StreamVerdictsByKey: a Session (fixed
// k when k > 0, smallest-k otherwise) fed from r and flushed. Binary wire
// streams open with a magic no valid text trace can start with, so either
// codec is accepted without being told which. An input error ends the run
// where it stands — it becomes the session's sticky error, so operations
// before it stay ingested and reported and the windows still open are not
// flushed. The returned session is drained, its reports final.
func streamRun(r io.Reader, k int, opts core.Options, sopts StreamOptions) (*Session, error) {
	if sopts.IngestShards <= 0 {
		sopts.IngestShards = 1
	}
	s := &Session{e: newEngine(k, opts, sopts), batchChunk: streamChunk}
	// Small on purpose: it only has to hold the sniffed magic, and chunk
	// reads larger than it pass straight through to r.
	br := bufio.NewReaderSize(r, 512)
	var err error
	if head, _ := br.Peek(4); wire.IsMagic(head) {
		_, err = s.AppendWire(br)
	} else {
		_, err = s.AppendTraceBatch(br)
	}
	s.stick(err)
	return s, s.Flush()
}

// StreamCheck verifies every register of the trace read from r at bound k,
// with parse, segmentation, and verification overlapped: closed segments
// dispatch to a worker pool while parsing continues, so verdicts start
// landing before the input is fully consumed and peak memory is bounded by
// the open windows (see the package comment for the cut rules). The report
// is identical to CheckParallel on the same trace for any worker count,
// provided the input satisfies the arrival-order requirement (else
// ErrOutOfOrder).
func StreamCheck(r io.Reader, k int, opts core.Options, sopts StreamOptions) (Report, StreamStats, error) {
	if k < 1 {
		return Report{}, StreamStats{}, fmt.Errorf("trace: k must be >= 1, got %d", k)
	}
	s, err := streamRun(r, k, opts, sopts)
	rep, stats := s.Report()
	return rep, stats, err
}

// StreamSmallestKByKey computes each register's smallest k from a streamed
// trace: per the segment-equivalence lemma the answer is the maximum
// segment smallest-k, accumulated as segments verify. Keys that fail
// verification report 0, like SmallestKByKey. Keys with reads staler than
// the horizon report a lower bound and are counted in Stats.SaturatedKeys.
func StreamSmallestKByKey(r io.Reader, opts core.Options, sopts StreamOptions) (map[string]int, StreamStats, error) {
	s, err := streamRun(r, 0, opts, sopts)
	ks, stats := s.SmallestKByKey()
	return ks, stats, err
}

// StreamVerdictsByKey computes every enabled property's verdict per key
// (sopts.Properties; k-atomicity in smallest-k form is always included) from
// a streamed trace in one parse/cut/schedule pass: each closed segment is
// checked once per property and the per-key verdicts fold as segments
// verify. The result is key-sorted KeyVerdicts in the shape Session.Snapshot
// produces, final for the consumed input.
func StreamVerdictsByKey(r io.Reader, opts core.Options, sopts StreamOptions) ([]KeyVerdict, StreamStats, error) {
	s, err := streamRun(r, 0, opts, sopts)
	return s.Snapshot(), s.Stats(), err
}

// held is a run of one key's operations waiting for a safe cut: the open
// window, or a closed segment waiting out the dispatch horizon. A spilled
// prefix of the run sits in the blob store as blobs, in order, spilled
// operations in all; the tail is in ops. spill, load and text (durable.go)
// are the only code that touches blobs and spilled.
type held struct {
	ops     opbuf.List
	blobs   []uint64
	spilled int
}

// Len is the run's operation count, on disk and in memory.
func (h *held) Len() int { return h.spilled + h.ops.Len() }

// closedSeg is a quiescence-closed, not-yet-dispatched segment.
type closedSeg struct {
	loSeq, hiSeq int
	held
	writes int
	// cutAt is the quiescent cut time that closed the segment (the key's
	// maxClosedFinish at close) — the epoch the verdict attributes to.
	cutAt int64
}

// ingestShard is one stripe of the engine's per-key state. Every key hashes
// to exactly one shard, which owns that key's map entry and ingest-side
// accumulator fields; mu guards all of them, taken once per batch group
// (feed). The atomic counters below
// mu are the shard's observability surface — they are read lock-free by
// gauges, so scraping never queues behind a backpressured producer. The
// admission path does not write them per operation: addOp counts into the
// plain fields under mu, and publish settles those into the atomics once per
// group (see publish).
type ingestShard struct {
	mu   sync.Mutex
	keys map[string]*keyState

	// pendOps and pendLive count the operations routed here and the ones
	// buffered since the last publish, owed to ingested and to the two
	// buffered counters, pendBytes the chunk bytes those took, owed to
	// bufferedBytes; wmStart and openMax are the running values of maxStart
	// and maxOpen.
	pendOps, pendLive, pendBytes int64
	wmStart, openMax             int64

	// window is where a packed list is decoded for a pass over its operations
	// (a closing window, a spill, a checkpoint): one per shard, so it is warm.
	// values holds a closing window's written values for the value index.
	window []history.Operation
	values []int64

	// lockTakes counts ingest-path acquisitions of mu (not monitoring or
	// flush ones), the denominator of the locks-per-op measurement that
	// batch ingest exists to shrink.
	lockTakes atomic.Int64
	// ingested counts operations routed into this shard (whether or not
	// they were later rejected); the sum over shards is StreamStats.Ops.
	ingested atomic.Int64
	// buffered counts live operations owned by this shard's keys (open
	// windows + held segments + in-flight verification).
	buffered atomic.Int64
	// maxOpen tracks the largest open window among this shard's keys, read
	// lock-free by finalStats, which folds a max over shards.
	maxOpen atomic.Int64
	// maxStart is the largest operation start routed into this shard
	// (math.MinInt64 before any), read lock-free cross-shard by the watermark
	// fold that drives retirement TTLs and the current-epoch gauge.
	maxStart atomic.Int64

	// retired holds the compact records of this shard's retired keys,
	// guarded by mu (see lifecycle.go).
	retired map[string]*retiredKey
}

// keyState is one register's accumulator plus its verdict aggregation.
// The key's shard lock guards everything above mu; workers only touch the
// fields below it (under mu) and the settled flag.
type keyState struct {
	key               string
	sh                *ingestShard
	seq               int // sequence number of the open segment
	open              held
	openWrites        int
	openMaxFinish     int64
	maxClosedFinish   int64 // committed cut time (max finish of all closed ops)
	closedAny         bool
	deque             []closedSeg
	dequeWrites       int
	dispatchedThrough int              // highest dispatched seq, -1 initially
	values            valueindex.Index // written value -> writer segment seq
	cumWrites         []int64          // cumWrites[s] = closed writes through seq s's close
	cumMaxFinish      []int64          // cumMaxFinish[s] = max closed finish through seq s's close
	totalClosed       int64
	ops               int

	// retiring marks a key whose retirement sweep flushed it; finalization
	// (fold + free) waits until inflight — dispatched segments whose
	// verdicts have not folded yet — drains to zero, because workers never
	// take shard locks (see lifecycle.go).
	retiring bool
	inflight atomic.Int32

	settled atomic.Bool

	mu     sync.Mutex
	err    error
	errSeq int
	// verdict accumulates every segment verdict and stale-read floor of the
	// key, across retired lifetimes (Verdict.Fold).
	verdict Verdict
}

type job struct {
	ks       *keyState
	seq      int
	ops      opbuf.List
	scanOnly bool
	cutAt    int64
}

type engine struct {
	// k > 0 is a fixed-k check at that bound; k == 0 computes each key's
	// smallest k. threshold is the dispatch horizon in writes: k itself for
	// a fixed-k check, StreamOptions.Horizon otherwise.
	k         int
	threshold int
	minSeg    int
	opts      core.Options
	sopts     StreamOptions

	// buf holds every buffered operation, packed: the open windows, the held
	// segments and the dispatched jobs are lists of its chunks (package opbuf).
	buf opbuf.Store

	// spillBufs recycles the encode buffers of the spill path (see
	// StreamOptions.Store).
	spillBufs sync.Pool

	// shards stripe the per-key state (see ingestShard).
	shards []*ingestShard

	// vpool is the shared (key, chunk) work-stealing pool: segment jobs are
	// submitted from the ingest paths and may fork chunk sub-units, so one
	// hot key's segments spread over every worker. sem bounds in-flight
	// submissions (a producer blocks when verification falls behind,
	// keeping buffered operations bounded). ownPool records whether the
	// engine created vpool (and so must close it) or borrowed a shared one
	// via StreamOptions.Pool; wg joins this engine's own dispatched segments,
	// which is the only wait a borrowed pool allows.
	vpool   *core.Pool
	ownPool bool
	wg      sync.WaitGroup
	sem     chan struct{}

	// Keyspace lifecycle (lifecycle.go): retirement TTL + sweep cadence,
	// epoch windowing, and the epoch summary tracker. sinceSweepAll counts
	// the operations fed since the last retirement pass (sweepAllSticky).
	retireTTL     int64
	sweepEvery    int
	epochLen      int64
	epochT        epochTracker
	sinceSweepAll atomic.Int64

	parseDone atomic.Bool

	// Every statistic below is an atomic so StreamStats assembles without
	// taking any lock: monitoring (Session.Stats, the /metrics gauges) must
	// never queue behind a backpressured producer, and with sharded ingest
	// there is no single goroutine that could own plain counters anyway.
	buffered      atomic.Int64
	bufferedBytes atomic.Int64
	keyCount      atomic.Int64
	peakBuffered  atomic.Int64
	merges        atomic.Int64
	segments      atomic.Int64
	staleReads    atomic.Int64
	saturatedKeys atomic.Int64
	firstVerdict  atomic.Int64
	spills        atomic.Int64
	opsSpilled    atomic.Int64
	spillLoads    atomic.Int64
	onDisk        atomic.Int64
	retiredNow    atomic.Int64
	retiredOps    atomic.Int64
	retirements   atomic.Int64
	readmissions  atomic.Int64
	// ladder holds core.Ladder's four counts in field order, settled once
	// per segment (settleLadder).
	ladder [4]atomic.Int64
}

// atomicMax raises a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// KeyHash is FNV-1a (32-bit, hash/fnv's New32a) over the key bytes: the one
// stateless key hash of the service. Ingest shards and the cluster's slot
// partition both reduce it, and it is generic over the key view so the
// zero-copy byte paths and the string paths route identically without a
// conversion.
func KeyHash[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

func shardIndex[K string | []byte](e *engine, key K) int {
	if len(e.shards) == 1 {
		return 0
	}
	return int(KeyHash(key) % uint32(len(e.shards)))
}

// opsIngested sums the per-shard ingest counters: StreamStats.Ops without
// a lock.
func (e *engine) opsIngested() int64 {
	var n int64
	for _, sh := range e.shards {
		n += sh.ingested.Load()
	}
	return n
}

// lockIngest takes the shard lock on behalf of an ingest path, counting
// the acquisition (monitoring and flush take mu directly and stay out of
// the locks-per-op measurement); unlockIngest is its counterpart.
func (sh *ingestShard) lockIngest() {
	sh.lockTakes.Add(1)
	sh.mu.Lock()
}

// unlockIngest publishes what the admissions under this acquisition counted
// and releases the shard.
func (e *engine) unlockIngest(sh *ingestShard) {
	e.publish(sh)
	sh.mu.Unlock()
}

// publish settles the shard's plain admission counts into the atomics the
// gauges, the watermark and the memory budget read; the caller holds
// sh.mu. The ingest paths call it before every unlock, so between feeds the
// atomics are exact and during one they lag by at most a shard group.
// Anything that takes operations back out of the live count publishes first
// — a closing window before it drops stale reads or dispatches (the worker
// subtracts the segment when its verdict lands), a spill before it moves a
// window to the store — so a gauge may run behind but never below zero.
func (e *engine) publish(sh *ingestShard) {
	if n := sh.pendOps; n > 0 {
		sh.pendOps = 0
		sh.ingested.Add(n)
		sh.maxStart.Store(sh.wmStart)
	}
	if n := sh.pendLive; n > 0 {
		sh.pendLive = 0
		sh.buffered.Add(n)
		atomicMax(&e.peakBuffered, e.buffered.Add(n))
		sh.maxOpen.Store(sh.openMax)
		if b := sh.pendBytes; b > 0 { // a new chunk every few dozen operations
			sh.pendBytes = 0
			e.bufferedBytes.Add(b)
		}
	}
}

// unbuffer takes n operations of sh's keys, and the chunk bytes they gave
// back, out of the live counts: a verified segment, a window's dropped stale
// reads, a spill.
func (e *engine) unbuffer(sh *ingestShard, n int, bytes int64) {
	sh.buffered.Add(int64(-n))
	e.buffered.Add(int64(-n))
	e.bufferedBytes.Add(-bytes)
}

func newEngine(k int, opts core.Options, sopts StreamOptions) *engine {
	threshold := k
	if k == 0 {
		if threshold = sopts.Horizon; threshold <= 0 {
			threshold = DefaultHorizon
		}
	}
	workers := sopts.Workers
	if sopts.Pool != nil {
		workers = sopts.Pool.Workers()
	} else if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	minSeg := sopts.MinSegmentOps
	if minSeg <= 0 {
		minSeg = DefaultMinSegmentOps
	}
	nshards := sopts.IngestShards
	if nshards <= 0 {
		nshards = DefaultIngestShards
	} else if nshards > maxIngestShards {
		nshards = maxIngestShards
	}
	e := &engine{
		k:         k,
		threshold: threshold,
		minSeg:    minSeg,
		opts:      opts,
		sopts:     sopts,
		shards:    make([]*ingestShard, nshards),
		sem:       make(chan struct{}, 2*workers),
	}
	for i := range e.shards {
		e.shards[i] = &ingestShard{keys: make(map[string]*keyState), wmStart: math.MinInt64}
		e.shards[i].maxStart.Store(math.MinInt64)
	}
	e.retireTTL = sopts.RetireTTL
	e.sweepEvery = sopts.RetireSweepOps
	if e.sweepEvery <= 0 {
		e.sweepEvery = DefaultRetireSweepOps
	}
	e.epochLen = sopts.EpochLength
	e.epochT.retain = retainedEpochs
	if sopts.Pool != nil {
		e.vpool = sopts.Pool
	} else {
		e.vpool = core.NewPool(workers)
		e.ownPool = true
	}
	return e
}

// drain finalizes the ingest side (Session.Flush, holding every shard lock):
// it marks ingest done and — unless the session already erred — commits every
// open window and dispatches everything still held.
func (e *engine) drain(err error) error {
	e.parseDone.Store(true)
	if err == nil {
		for _, sh := range e.shards {
			for _, ks := range sh.keys {
				if ferr := e.flush(ks); ferr != nil && err == nil {
					err = ferr
				}
			}
		}
	}
	return err
}

// finish waits for every segment this engine dispatched and, when the engine
// owns its pool, releases the workers. Borrowed pools stay open for their
// other users.
func (e *engine) finish() {
	e.wg.Wait()
	if e.ownPool {
		e.vpool.Close()
	}
}

// add admits one operation under its key, which may be a string or a view
// into a read buffer; the caller holds sh.mu. The map lookup copies neither,
// so the hot path allocates nothing, and only a key's first sighting clones a
// view.
func add[K string | []byte](e *engine, sh *ingestShard, key K, op history.Operation) error {
	ks := sh.keys[string(key)]
	if ks == nil {
		ks = e.newKey(sh, string(key))
	}
	return e.addOp(ks, op)
}

func (e *engine) newKey(sh *ingestShard, key string) *keyState {
	ks := &keyState{
		key:               key,
		sh:                sh,
		maxClosedFinish:   math.MinInt64,
		dispatchedThrough: -1,
	}
	if rk, ok := sh.retired[key]; ok {
		// Re-admission: the retired record seeds the new lifetime's verdict
		// accumulators and committed cut (see lifecycle.go).
		delete(sh.retired, key)
		e.readmit(ks, rk)
	} else {
		e.keyCount.Add(1)
	}
	sh.keys[key] = ks
	return ks
}

// addOp admits one operation to its key; the caller holds the key's shard
// lock. It writes nothing another core reads: the counters it owes go to the
// shard's plain fields, which publish settles before the lock is released.
func (e *engine) addOp(ks *keyState, op history.Operation) error {
	sh := ks.sh
	ks.ops++
	sh.pendOps++
	sh.wmStart = max(sh.wmStart, op.Start)
	if ks.retiring {
		// A retirement sweep flushed this key but an operation landed before
		// finalization: the key is live again.
		ks.retiring = false
	}
	if op.Finish < op.Start {
		// Normalization repairs zero-length operations but not truly
		// inverted ones; report incrementally, since the operation may
		// later be dropped as a cross-boundary stale read and so never
		// reach a segment verifier.
		seq := ks.seq
		e.settle(ks, func() {
			if ks.err == nil || seq < ks.errSeq {
				ks.err = fmt.Errorf("core: %w (op %q on key %q)",
					history.ErrInvertedInterval, op.String(), ks.key)
				ks.errSeq = seq
			}
		})
	}
	if ks.closedAny && op.Start <= ks.maxClosedFinish {
		return fmt.Errorf("%w (key %q, op %q, cut at %d)", ErrOutOfOrder, ks.key, op.String(), ks.maxClosedFinish)
	}
	if ks.open.Len() >= e.minSeg && zone.Quiescent(ks.openMaxFinish, op.Start) {
		if err := e.closeOpen(ks); err != nil {
			return err
		}
	}
	if e.buf.Push(&ks.open.ops, &op) {
		sh.pendBytes += opbuf.ChunkBytes
	}
	if ks.open.Len() == 1 || op.Finish > ks.openMaxFinish {
		ks.openMaxFinish = op.Finish
	}
	if op.IsWrite() {
		ks.openWrites++
	}
	sh.openMax = max(sh.openMax, int64(ks.open.Len()))
	sh.pendLive++
	return nil
}

// duplicateWrite charges the key's closing window with its first write, in
// operation order, that the value index did not store: one whose value an
// earlier segment wrote, or an earlier write of this window. Every write's
// value is in the index by now, so the two read apart by their segment.
func (e *engine) duplicateWrite(ks *keyState, ops []history.Operation) {
	seen := map[int64]bool{}
	for i := range ops {
		op := &ops[i]
		if !op.IsWrite() {
			continue
		}
		if s, _ := ks.values.Get(op.Value); int(s) != ks.seq || seen[op.Value] {
			e.settle(ks, func() {
				if ks.err == nil || ks.seq < ks.errSeq {
					ks.err = fmt.Errorf("core: %w (value %d written twice on key %q)",
						history.ErrDuplicateValue, op.Value, ks.key)
					ks.errSeq = ks.seq
				}
			})
			return
		}
		seen[op.Value] = true
	}
}

// maxOpenAll folds the per-shard open-window maxima.
func (e *engine) maxOpenAll() int64 {
	var m int64
	for _, sh := range e.shards {
		if v := sh.maxOpen.Load(); v > m {
			m = v
		}
	}
	return m
}

// closeOpen commits the quiescent cut before the arriving operation: enters
// the closing segment's writes in the value index, classifies its reads
// against it, merges back any deque segments a read refers into, records the
// close in the cumulative write counts, and dispatches every deque segment
// that now has at least `threshold` writes closed behind it. Spilled
// operations (the window's own prefix, and any deque segment being merged or
// dispatched) are reloaded here — the only points that need them; an error
// is a spill I/O failure and poisons the stream.
func (e *engine) closeOpen(ks *keyState) error {
	sh := ks.sh
	e.publish(sh) // before anything below subtracts from the live count
	if err := e.load(ks, &ks.open); err != nil {
		return err
	}
	// The one decode of the window: both passes below read it in the shard's
	// buffer, and the packed list goes on to the deque as it is.
	ops, writes := e.unpack(sh, &ks.open.ops), ks.openWrites
	merged := closedSeg{loSeq: ks.seq, hiSeq: ks.seq, held: ks.open, writes: writes, cutAt: ks.openMaxFinish}
	ks.open, ks.openWrites = held{}, 0
	ks.maxClosedFinish = ks.openMaxFinish
	ks.closedAny = true

	// The value index learns a window's writes here, in one call while the
	// key's index is warm, not one cold probe per write as they arrive: reads
	// are only ever classified at a close, against closed segments and this
	// one. A value some earlier write (of any segment) stored is an anomaly.
	vals := sh.values[:0]
	for i := range ops {
		if ops[i].IsWrite() {
			vals = append(vals, ops[i].Value)
		}
	}
	sh.values = vals
	if ks.values.Add(vals, int32(ks.seq)) < len(vals) {
		e.duplicateWrite(ks, ops)
	}

	// Classify reads: in-segment (seq match), deque (merge back), or
	// dispatched (cross-boundary staleness; drop the read — its verdict
	// contribution is recorded here, and leaving it would misreport a
	// dangling read).
	mergeFrom := -1
	var dropped []history.Operation
	var droppedSeq []int
	kept := ops[:0]
	for i := range ops {
		op := &ops[i]
		if op.IsRead() {
			if s, ok := ks.values.Get(op.Value); ok && int(s) != ks.seq {
				if int(s) > ks.dispatchedThrough {
					if mergeFrom < 0 || int(s) < mergeFrom {
						mergeFrom = int(s)
					}
				} else {
					dropped = append(dropped, *op)
					droppedSeq = append(droppedSeq, int(s))
					continue
				}
			}
		}
		kept = append(kept, *op)
	}
	if len(dropped) > 0 {
		e.foldStaleReads(ks, kept, dropped, droppedSeq)
		// The segment is the window without the dropped reads: packed again
		// from what was kept, the live counts settled once for all of them.
		was := merged.ops.Bytes()
		e.buf.Free(&merged.ops)
		for i := range kept {
			e.buf.Push(&merged.ops, &kept[i])
		}
		e.unbuffer(sh, len(dropped), was-merged.ops.Bytes())
	}

	if mergeFrom >= 0 {
		j := 0
		for j < len(ks.deque) && ks.deque[j].hiSeq < mergeFrom {
			j++
		}
		// Splice deque[j:] and the closing segment, in time order, onto
		// deque[j]'s chunks.
		base := ks.deque[j]
		if err := e.load(ks, &base.held); err != nil {
			return err
		}
		for si := j + 1; si < len(ks.deque); si++ {
			seg := ks.deque[si]
			if err := e.load(ks, &seg.held); err != nil {
				return err
			}
			e.buf.Splice(&base.ops, &seg.ops)
			base.writes += seg.writes
			e.merges.Add(1)
		}
		e.buf.Splice(&base.ops, &merged.ops)
		base.writes += writes
		base.hiSeq = ks.seq
		base.cutAt = ks.maxClosedFinish
		e.merges.Add(1) // the entry the read reached into
		ks.deque = ks.deque[:j]
		merged = base
	}

	ks.totalClosed += int64(writes)
	ks.cumWrites = append(ks.cumWrites, ks.totalClosed)           // index == ks.seq
	ks.cumMaxFinish = append(ks.cumMaxFinish, ks.maxClosedFinish) // index == ks.seq
	if merged.Len() > 0 {
		ks.deque = append(ks.deque, merged)
		ks.dequeWrites += writes
	}
	ks.seq++
	return e.dispatchDue(ks, e.threshold)
}

// dispatchDue dispatches the deque's oldest segments while at least horizon
// writes have closed behind them — every segment at horizon 0 — popping each
// as it goes, so a failed load leaves only undispatched segments held.
func (e *engine) dispatchDue(ks *keyState, horizon int) error {
	for len(ks.deque) > 0 && ks.dequeWrites-ks.deque[0].writes >= horizon {
		seg := &ks.deque[0]
		if err := e.load(ks, &seg.held); err != nil {
			return err
		}
		e.dispatch(ks, *seg)
		ks.dequeWrites -= seg.writes
		ks.deque = ks.deque[1:]
	}
	return nil
}

// foldStaleReads records the closing window's cross-boundary stale reads
// (values from already-dispatched segments). At least `threshold` writes
// closed between each read's dictating segment and this window, all forced
// between the dictating write and the read in every valid total order; the
// reads never reach a segment verifier, so each enabled property makes a
// verdict of the evidence gathered here instead, which folds into the key
// and the read's epoch like a segment's (for fixed-k checks the k verdict is
// definitive: forced >= threshold == k means staleness >= k+1). Runs before
// the close is recorded, so cumWrites and cumMaxFinish still end at the
// previous close — exactly the segments behind the dropped reads.
func (e *engine) foldStaleReads(ks *keyState, kept, dropped []history.Operation, droppedSeq []int) {
	e.staleReads.Add(int64(len(dropped)))
	evs := make([]staleReadEvidence, len(dropped))
	for i, op := range dropped {
		vs := droppedSeq[i]
		evs[i].forcedWrites = int(ks.totalClosed - ks.cumWrites[vs])
		if e.sopts.Properties.Has(PropertyDelta) && evs[i].forcedWrites > 0 {
			// First write-bearing segment after the value's holds the
			// earliest writes forced between the dictating write and the
			// read. All its operations finish by cumMaxFinish[s], so the
			// read's relaxed start must reach at least that far back before
			// any forced write stops preceding it: a sound smallest-Δ floor.
			s := vs + 1 + sort.Search(len(ks.cumWrites)-vs-1, func(j int) bool {
				return ks.cumWrites[vs+1+j] > ks.cumWrites[vs]
			})
			evs[i].deltaFloor = op.Start - ks.cumMaxFinish[s]
		}
	}
	if e.sopts.Properties.Has(PropertyRegularity) {
		safe := staleReadSafety(kept, dropped)
		for i := range evs {
			evs[i].safe = safe[i]
		}
	}
	for i := range evs {
		evs[i].verdict = e.staleVerdict(evs[i])
	}
	e.settle(ks, func() {
		wasSat := ks.verdict.Saturated
		for i := range evs {
			ks.verdict.Fold(evs[i].verdict)
		}
		if !wasSat && ks.verdict.Saturated {
			e.saturatedKeys.Add(1)
		}
	})
	if e.epochLen > 0 {
		for i, op := range dropped {
			es := EpochStats{Epoch: e.epochOf(op.Start), Ops: 1, StaleReads: 1}
			es.observe(evs[i].verdict)
			e.foldEpoch(es)
		}
	}
}

// settle applies a verdict mutation under the key's lock and updates the
// settled fast path. Ingest and workers both funnel through here, and every
// mutation is commutative (AND / max / min-seq), so the outcome is
// deterministic for any scheduling.
func (e *engine) settle(ks *keyState, apply func()) {
	ks.mu.Lock()
	apply()
	e.resettle(ks)
	ks.mu.Unlock()
}

// resettle recomputes the settled fast path from the key's verdict state
// (the caller holds ks.mu, or owns a key no worker can reach yet). An error
// dominates every property, so it always settles the key to anomaly-scan; a
// k-only fixed-k check also settles on a violation, but with extra properties
// enabled later segments still owe their Δ and regularity verdicts.
func (e *engine) resettle(ks *keyState) {
	settled := ks.err != nil
	if props := e.sopts.Properties; e.k > 0 && !props.Has(PropertyDelta) && !props.Has(PropertyRegularity) {
		settled = settled || ks.verdict.Violation
	}
	ks.settled.Store(settled)
}

func (e *engine) dispatch(ks *keyState, seg closedSeg) {
	ks.dispatchedThrough = seg.hiSeq
	e.segments.Add(1)
	ks.inflight.Add(1)
	j := job{ks: ks, seq: seg.loSeq, ops: seg.ops, scanOnly: ks.settled.Load(), cutAt: seg.cutAt}
	e.sem <- struct{}{}
	e.wg.Add(1)
	e.vpool.Submit(func(v *core.Verifier) {
		defer func() { <-e.sem; e.wg.Done() }()
		e.verifySegment(v, j)
	})
}

// flush closes the open window and dispatches everything still held; after
// end of input no future read can reach back, so the deque drains fully.
func (e *engine) flush(ks *keyState) error {
	if ks.open.Len() > 0 {
		if err := e.closeOpen(ks); err != nil {
			return err
		}
	}
	return e.dispatchDue(ks, 0)
}

// verifySegment is one segment unit on the pool, run on its worker's
// Verifier v. Large segments fork their chunk (and, for smallest-k, safe-cut
// segment) sub-units back onto the same pool through v, so idle workers steal
// intra-segment work instead of waiting for whole segments.
func (e *engine) verifySegment(v *core.Verifier, j job) {
	// The segment is unpacked into the worker's own buffer, IDs numbered, and
	// its chunks go back to the ingest side before the properties are checked.
	n, bytes := j.ops.Len(), j.ops.Bytes()
	h := v.Owned()
	h.Ops = e.buf.Decode(&j.ops, h.Ops)
	e.buf.Free(&j.ops)
	verdict := SegmentVerdict{Key: j.ks.key, Seq: j.seq, Ops: n, ScanOnly: j.scanOnly}
	// One normalize+prepare per dispatch, whatever is enabled: every property
	// reads the same prepared segment (and Δ the raw-scale cluster extremes
	// the prepare records before normalization rewrites the timestamps).
	p, err := v.PrepareOwned(h, !j.scanOnly && e.sopts.Properties.Has(PropertyDelta))
	verdict.Err = err
	switch {
	case j.scanOnly: // the prepare's error is all a settled key still owes
	case p == nil:
		// An anomalous segment has no verdicts, only the error, which
		// dominates every property; a fixed-k check counts it as a violation.
		verdict.Violation = e.k > 0
	default:
		verdict.Verdict, verdict.Err = e.checkSegment(v, p)
		e.settleLadder(v.TakeLadder())
	}
	e.settle(j.ks, func() {
		ks := j.ks
		if verdict.Err != nil {
			if ks.err == nil || j.seq < ks.errSeq {
				ks.err, ks.errSeq = verdict.Err, j.seq
			}
		} else {
			ks.verdict.Fold(verdict.Verdict)
		}
	})
	if e.epochLen > 0 {
		es := EpochStats{Epoch: e.epochOf(j.cutAt), Segments: 1, Ops: int64(n)}
		if verdict.Err != nil {
			es.Errors = 1
		}
		es.observe(verdict.Verdict)
		e.foldEpoch(es)
	}
	// The decrement must follow the settle fold: a retirement finalizer that
	// observes inflight == 0 reads verdict state that includes this segment.
	j.ks.inflight.Add(-1)
	e.unbuffer(j.ks.sh, n, bytes)
	// FirstVerdictOps documents the pipelining win, so only verdicts
	// landing before Flush count.
	if !e.parseDone.Load() {
		e.firstVerdict.CompareAndSwap(0, e.opsIngested())
	}
	if e.sopts.OnSegment != nil {
		e.sopts.OnSegment(verdict)
	}
}

// settleLadder adds one segment's ladder counts to the engine's. A segment
// moves one or two of them, so only those are touched.
func (e *engine) settleLadder(l core.Ladder) {
	for i, n := range [...]int{l.Zone, l.FZF, l.Climb, l.OracleProbes} {
		if n != 0 {
			e.ladder[i].Add(int64(n))
		}
	}
}

// eachShardLocked runs fn on every shard under that shard's lock, one shard
// at a time. The read paths (snapshots, summaries) use it so they can touch
// ingest-side key state while producers are appending.
func (e *engine) eachShardLocked(fn func(*ingestShard)) {
	for _, sh := range e.shards {
		sh.mu.Lock()
		fn(sh)
		sh.mu.Unlock()
	}
}

// finalStats assembles StreamStats entirely from atomics — no lock, so
// monitoring never queues behind a backpressured or batch-locked producer.
func (e *engine) finalStats() StreamStats {
	return StreamStats{
		Ops:             e.opsIngested(),
		Keys:            int(e.keyCount.Load()),
		Segments:        e.segments.Load(),
		Merges:          e.merges.Load(),
		MaxOpenOps:      int(e.maxOpenAll()),
		PeakBufferedOps: e.peakBuffered.Load(),
		StaleReads:      e.staleReads.Load(),
		SaturatedKeys:   int(e.saturatedKeys.Load()),
		FirstVerdictOps: e.firstVerdict.Load(),
		Spills:          e.spills.Load(),
		OpsSpilled:      e.opsSpilled.Load(),
		SpillLoads:      e.spillLoads.Load(),
		RetiredKeys:     e.retiredNow.Load(),
		Retirements:     e.retirements.Load(),
		Readmissions:    e.readmissions.Load(),
		Ladder: core.Ladder{Zone: int(e.ladder[0].Load()), FZF: int(e.ladder[1].Load()),
			Climb: int(e.ladder[2].Load()), OracleProbes: int(e.ladder[3].Load())},
	}
}

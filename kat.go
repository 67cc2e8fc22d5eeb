// Package kat verifies k-atomicity of read/write register histories.
//
// It is a complete implementation of "On the k-Atomicity-Verification
// Problem" (Golab, Hurwitz, Li; ICDCS 2013): the LBT and FZF 2-atomicity
// verification algorithms, the classical zone-based 1-atomicity
// (linearizability) test, an exact exponential decider for k >= 3, the
// weighted k-AV problem with its NP-completeness reduction from bin packing,
// and the supporting machinery — history model and normalization, workload
// generators, a quorum-replicated register simulator, staleness metrics, and
// counterexample minimization.
//
// A history is k-atomic iff there is a total order of its operations,
// consistent with their real-time intervals, in which every read returns one
// of the k freshest values. k=1 is atomicity/linearizability; k>=2 bounds
// the staleness that sloppy-quorum stores (Dynamo and its descendants) can
// exhibit.
//
// # Quick start
//
//	h := kat.MustParse("w 1 0 10; w 2 20 30; r 1 40 50")
//	rep, err := kat.Check(h, 2, kat.Options{}) // 2-atomic? (uses FZF)
//	k, err := kat.SmallestK(h, kat.Options{})  // smallest such k
//
// Histories are normalized automatically: timestamps are made distinct and
// writes shortened per the paper's Section II-C assumptions. True anomalies
// (a read without a matching write, or a read that finishes before its write
// starts) are reported as errors.
//
// # Throughput
//
// Batch callers should hold a Verifier: it owns the scratch arenas of the
// k=2 FZF hot path, which is allocation-free at steady state when reused
// across calls. Multi-register traces verify register by register
// (k-atomicity is local), and within a register segment by segment: a
// register is k-atomic iff each of its safe-cut segments is, for every k.
// CheckTraceParallel / SmallestKByKeyParallel cut every register at its safe
// cuts before anything is prepared and fan the runs of segments out over a
// worker pool — one Verifier per worker, whose scratch grows to the largest
// run, not to the hottest key — with results identical to the sequential
// forms. A cut is one of the operation set, so a register is cut whatever
// order it is listed in; one with an anomaly is checked whole.
//
// Parallelism does not stop there: every parallel entry point schedules its
// units on one shared pool: one queue, and a cursor per fork. A prepared
// history decomposes into independently verifiable chunks (Stage 1 of FZF)
// and safe-cut segments, so a run with no cut in it — or a single huge
// register checked via CheckPreparedParallel / SmallestKPreparedParallel —
// still saturates every worker: free workers claim chunk units instead of
// waiting for the run. It is one engine throughout: a standalone Verifier
// runs the same units inline, so verdicts do not depend on the worker count.
//
// # Streaming
//
// Traces too large to materialize verify straight from an io.Reader:
// StreamCheckTrace and StreamSmallestKByKey cut each register's history at
// safe cut points (real-time quiescence + value-closedness, under which
// per-segment verification is exact for every k) and dispatch closed
// segments to a verifier pool while parsing continues. Peak memory is
// bounded by the open windows — O(open segments), not O(trace) — verdicts
// start landing before the input is consumed, and the report matches
// CheckTraceParallel for any worker count. The input must arrive in
// nondecreasing start order per key (the natural order of an operation
// log); see trace.ErrOutOfOrder.
//
// # Online monitoring
//
// The engine has one driver, the OnlineSession: it accepts operations as
// they happen (NewOnlineCheckSession / NewOnlineSmallestKSession), exposes
// live per-key verdict state, and drains to final verdicts on Flush. The
// streaming functions above are that session opened, fed from the reader,
// and flushed. Sessions can share one verification Pool, which is how
// cmd/kavserve serves many ingest clients with a single set of workers.
//
// Per-key state stripes over StreamOptions.IngestShards independently
// locked shards, and operations enter in one of two shapes: Append, one
// operation under one shard lock, or a batch — AppendBatch (parsed KeyedOp
// slices), AppendTraceBatch (keyed text, zero-copy parsed in chunks),
// AppendWire (the binary frames of internal/wire, as
// WriteTraceWireArrivalOrder emits them) — which groups its operations by
// shard and takes each shard lock once per batch. Verdicts are identical
// for either shape, any shard count, batch boundaries, and codec.
package kat

import (
	"io"

	"kat/internal/core"
	"kat/internal/delta"
	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/metrics"
	"kat/internal/oracle"
	"kat/internal/quorum"
	"kat/internal/regularity"
	"kat/internal/render"
	"kat/internal/shrink"
	"kat/internal/trace"
	"kat/internal/wav"
)

// Core model types.
type (
	// Operation is a single read or write with a real-time interval.
	Operation = history.Operation
	// History is a collection of operations on one register.
	History = history.History
	// Kind distinguishes reads from writes.
	Kind = history.Kind
	// Prepared is a validated, sorted history with its dictating-write
	// index; witnesses reference operation indices within it.
	Prepared = history.Prepared
	// Stats summarizes structural properties of a history.
	Stats = history.Stats
)

// Operation kinds.
const (
	KindWrite = history.KindWrite
	KindRead  = history.KindRead
)

// Verification types.
type (
	// Options tunes verification (algorithm selection, search budgets).
	Options = core.Options
	// Report is a verification outcome with witness and diagnostics.
	Report = core.Report
	// Algorithm selects a specific verification algorithm.
	Algorithm = core.Algorithm
	// Verifier is a reusable verification engine whose scratch buffers
	// persist across Check/SmallestK calls, making the k=2 hot path
	// allocation-free at steady state. It is the engine the pool's workers
	// run, with every unit inline. Not safe for concurrent use; a Report's
	// Witness is valid only until the next call on the same Verifier.
	Verifier = core.Verifier
)

// NewVerifier returns a reusable verification engine (see Verifier).
func NewVerifier() *Verifier { return core.NewVerifier() }

// Memo is inert: the verdict cache behind it is gone and Options.Memo is
// ignored. It and NewMemo remain as a compile shim for bench/ until the next
// benchmark PR drops its use.
type Memo = core.Memo

// NewMemo returns an inert Memo (see the type).
func NewMemo() *Memo { return core.NewMemo() }

// CheckPreparedParallel is Verifier.CheckPrepared with chunk-level parallelism: the
// history's chunks (k=2) or safe-cut segments (k >= 3) verify
// concurrently on a pool of the given size (workers <= 0 uses
// GOMAXPROCS), so even a single register saturates multiple cores. Verdicts
// are identical to Verifier.CheckPrepared for any worker count; for k=2 the witness
// is byte-identical too.
func CheckPreparedParallel(p *Prepared, k int, opts Options, workers int) (Report, error) {
	return core.CheckPreparedParallel(p, k, opts, workers)
}

// SmallestKPreparedParallel is the smallest-k search run on a pool
// (workers <= 0 uses GOMAXPROCS): a big register's runs of safe-cut
// segments, and the segments that reach the oracle, spread over the workers.
// The result and the oracle probes equal SmallestKPrepared's.
func SmallestKPreparedParallel(p *Prepared, opts Options, workers int) (int, error) {
	return core.SmallestKPreparedParallel(p, opts, workers)
}

// Algorithm choices for Options.Algorithm.
const (
	AlgoAuto   = core.AlgoAuto
	AlgoZones  = core.AlgoZones
	AlgoLBT    = core.AlgoLBT
	AlgoFZF    = core.AlgoFZF
	AlgoOracle = core.AlgoOracle
)

// Workload tooling types.
type (
	// GenConfig parameterizes synthetic history generation.
	GenConfig = generator.Config
	// QuorumConfig parameterizes the replicated-register simulator.
	QuorumConfig = quorum.Config
	// QuorumStats summarizes a simulation run.
	QuorumStats = quorum.Stats
	// BinPacking is a bin-packing decision instance (Section V reduction).
	BinPacking = wav.BinPacking
	// Reduction is the Figure 5 bin-packing-to-k-WAV construction.
	Reduction = wav.Reduction
	// KDistribution is a smallest-k histogram over a corpus.
	KDistribution = metrics.KDistribution
)

// Parse reads a history from the compact text format: one operation per line
// or ';'-separated, "w <value> <start> <finish>" / "r <value> <start>
// <finish>", with optional "weight=N" and "client=N" attributes.
func Parse(text string) (*History, error) { return history.Parse(text) }

// MustParse is Parse that panics on malformed input (tests, examples).
func MustParse(text string) *History { return history.MustParse(text) }

// Normalize returns a copy of h satisfying the model assumptions that can be
// repaired without loss of generality: distinct timestamps and writes ending
// before their dictated reads. Check and SmallestK normalize internally;
// call this only when preparing histories manually.
func Normalize(h *History) *History { return history.Normalize(h) }

// Prepare validates and indexes a (normalized) history.
func Prepare(h *History) (*Prepared, error) { return history.Prepare(h) }

// Measure computes structural statistics (op counts, max write concurrency).
func Measure(h *History) Stats { return history.Measure(h) }

// Check decides whether h is k-atomic. k=1 uses the Gibbons–Korach zone
// test, k=2 the FZF algorithm (LBT via Options.Algorithm), and k>=3 the
// exact search. The history is normalized internally.
func Check(h *History, k int, opts Options) (Report, error) {
	return core.NewVerifier().Check(h, k, opts)
}

// SmallestK returns the least k for which h is k-atomic.
func SmallestK(h *History, opts Options) (int, error) {
	return core.NewVerifier().SmallestK(h, opts)
}

// CheckWeighted decides the weighted k-AV problem of Section V: for every
// read, the total weight of writes from its dictating write (inclusive) to
// the read must be at most bound. NP-complete in general; solved exactly.
func CheckWeighted(h *History, bound int64, opts Options) (Report, error) {
	return core.CheckWeighted(h, bound, opts)
}

// ReadStaleness reports each read's distance (in writes) from its dictating
// write under the given total order.
func ReadStaleness(p *Prepared, order []int) ([]int, error) {
	return metrics.ReadStaleness(p, order)
}

// GenerateKAtomic produces a history that is (cfg.StalenessDepth+1)-atomic
// by construction.
func GenerateKAtomic(cfg GenConfig) *History { return generator.KAtomic(cfg) }

// ZipfKeyCounts distributes total operations over keys with Zipfian skew of
// exponent s > 1 (key rank r gets ops proportional to 1/(r+1)^s) — the
// hot-key model kavgen's -zipf flag and the hot-key benchmarks use. The
// result is deterministic given the seed and sums to total.
func ZipfKeyCounts(seed int64, keys, total int, s float64) []int {
	return generator.ZipfCounts(seed, keys, total, s)
}

// GenerateRandom produces an unconstrained anomaly-free random history.
func GenerateRandom(cfg GenConfig) *History { return generator.Random(cfg) }

// ChurnConfig configures GenerateChurn; see generator.ChurnConfig.
type ChurnConfig = generator.ChurnConfig

// GenerateChurn produces the churning-keyspace workload: key lifetimes
// born at a fixed cadence that live briefly and quiesce forever (or, with
// NoQuiesce, never quiesce — the adversarial memory-pressure input).
// kavgen's -churn flag and the keyspace-lifecycle soak tests use it.
func GenerateChurn(cfg ChurnConfig) *Trace {
	tr := NewTrace()
	for _, ko := range generator.Churn(cfg) {
		tr.Add(ko.Key, ko.Op)
	}
	return tr
}

// GenerateLBTTrap builds the staircase construction that drives literal
// Figure 2 LBT (no iterative deepening, adversarial candidate order) into
// the pathological behavior Theorem 3.2's proof warns about.
func GenerateLBTTrap(chain, goods int) *History { return generator.LBTTrap(chain, goods) }

// InjectStaleness redirects a fraction of reads to older writes, deepening
// the history's smallest k.
func InjectStaleness(h *History, seed int64, fraction float64, extraDepth int) *History {
	return generator.InjectStaleness(h, seed, fraction, extraDepth)
}

// SimulateQuorum runs the Dynamo-style replicated-register simulator and
// returns the observed history.
func SimulateQuorum(cfg QuorumConfig) (*History, QuorumStats, error) {
	return quorum.Run(cfg)
}

// SmallestKDistribution computes the smallest-k histogram of a corpus.
func SmallestKDistribution(corpus []*History, opts Options) KDistribution {
	return metrics.SmallestKDistribution(corpus, opts)
}

// Minimize shrinks a failing history while pred holds (counterexample
// minimization; pred is typically "not 2-atomic").
func Minimize(h *History, pred func(*History) bool) *History {
	return shrink.Minimize(h, shrink.Predicate(pred))
}

// ReduceBinPacking builds the Figure 5 k-WAV instance for a bin-packing
// problem; the instance is weighted (Capacity+2)-atomic iff the packing is
// feasible (Theorem 5.1).
func ReduceBinPacking(bp BinPacking) (*Reduction, error) { return wav.Reduce(bp) }

// SolveBinPackingViaReduction decides a bin-packing instance through the
// k-WAV reduction (validates Theorem 5.1 empirically).
func SolveBinPackingViaReduction(bp BinPacking) (bool, error) {
	return wav.SolveViaReduction(bp, oracle.Options{})
}

// Multi-register and time-staleness types.
type (
	// Trace is a multi-register history; verification is per key
	// (k-atomicity is local, Section II-B).
	Trace = trace.Trace
	// TraceReport aggregates per-key verification outcomes.
	TraceReport = trace.Report
	// RenderOptions controls ASCII timeline rendering.
	RenderOptions = render.Options
)

// Pool is a shared verification worker pool — one queue, and a cursor per
// fork — that every parallel entry point schedules its (key, chunk) units
// on. Hand one to StreamOptions.Pool so any number of concurrent streams and
// online sessions share a single set of workers (and their warm scratch
// arenas) instead of each spinning up its own; Close releases the workers.
type Pool = core.Pool

// NewPool starts a verification pool (workers <= 0 uses GOMAXPROCS).
func NewPool(workers int) *Pool { return core.NewPool(workers) }

// Online (push-driven) verification types.
type (
	// OnlineSession drives the streaming engine: operations are appended
	// one at a time (from any number of goroutines) or in shard-grouped
	// batches (AppendBatch / AppendWire / AppendTraceBatch, which take each
	// ingest-shard lock once per batch), per-key verdict state is
	// observable live, and Flush is the graceful drain that makes the
	// verdicts final. StreamCheckTrace / StreamSmallestKByKey /
	// StreamVerdictsByKey are a session fed from their reader and flushed.
	OnlineSession = trace.Session
	// OnlineKeyVerdict is one key's live state in an OnlineSession
	// snapshot: its operation counts, error, and the embedded Verdict folded
	// over everything verified so far.
	OnlineKeyVerdict = trace.KeyVerdict
	// KeyedOp pairs a register name with one operation — the element of
	// OnlineSession.AppendBatch.
	KeyedOp = trace.KeyedOp
)

// NewOnlineCheckSession opens a session verifying every key at bound k (what
// StreamCheckTrace feeds from its reader).
func NewOnlineCheckSession(k int, opts Options, sopts StreamOptions) (*OnlineSession, error) {
	return trace.NewCheckSession(k, opts, sopts)
}

// NewOnlineSmallestKSession opens a session computing each key's smallest k
// (what StreamSmallestKByKey feeds from its reader, same horizon semantics).
func NewOnlineSmallestKSession(opts Options, sopts StreamOptions) *OnlineSession {
	return trace.NewSmallestKSession(opts, sopts)
}

// Streaming verification types.
type (
	// StreamOptions tunes the streaming engine (pool, horizon, segment size,
	// shards, spill store, callback, properties, retirement, epochs).
	StreamOptions = trace.StreamOptions
	// StreamStats describes a finished streaming run: segments, merges,
	// peak buffered operations, first-verdict position.
	StreamStats = trace.StreamStats
	// SegmentVerdict is the outcome of one verified segment — its Verdict, or
	// its anomaly — delivered to StreamOptions.OnSegment.
	SegmentVerdict = trace.SegmentVerdict
	// Property identifies one consistency property the streaming engine can
	// verify (k-atomicity, Δ-atomicity, regularity/safety).
	Property = trace.Property
	// PropertySet selects the properties verified over one ingest pass
	// (StreamOptions.Properties); the zero value is k-atomicity only.
	PropertySet = trace.PropertySet
	// Verdict is every enabled property's verdict in one flat record — of a
	// segment (SegmentVerdict), or folded over a key (OnlineKeyVerdict). Its
	// zero value says nothing and Verdict.Fold, commutative, is the one way
	// verdicts combine.
	Verdict = trace.Verdict
)

// Property identifiers and property-set masks (see StreamOptions.Properties).
const (
	PropertyDelta = trace.PropertyDelta

	PropertySetK          = trace.PropertySetK
	PropertySetDelta      = trace.PropertySetDelta
	PropertySetRegularity = trace.PropertySetRegularity
	PropertySetAll        = trace.PropertySetAll
)

// ParseProperties parses a -properties flag value ("k,delta,regularity",
// case-insensitive, k implied) into a PropertySet.
func ParseProperties(list string) (PropertySet, error) {
	return trace.ParseProperties(list)
}

// NewTrace returns an empty multi-register trace.
func NewTrace() *Trace { return trace.New() }

// ParseTrace reads a keyed multi-register trace:
// "w <key> <value> <start> <finish>" per line.
func ParseTrace(text string) (*Trace, error) { return trace.Parse(text) }

// ParseReader reads a single-register history from r, scanning each block of
// lines once as it is read, so memory is proportional to the operations rather
// than the raw text.
func ParseReader(r io.Reader) (*History, error) { return history.ParseReader(r) }

// ParseTraceReader is ParseTrace over an io.Reader, its blocks of lines scanned
// in parallel; the trace and any error are those of a serial read.
func ParseTraceReader(r io.Reader) (*Trace, error) { return trace.ParseReader(r) }

// WriteTraceArrivalOrder renders the trace in the keyed text format ordered
// by operation start time — the arrival order the streaming engine requires
// of its input.
func WriteTraceArrivalOrder(w io.Writer, t *Trace) error {
	return trace.WriteArrivalOrder(w, t)
}

// WriteTraceWireArrivalOrder renders the trace as a binary wire stream
// (frames of frameOps operations sharing one key dictionary; frameOps <= 0
// picks a sensible default, compress DEFLATEs frame payloads) in the same
// arrival order as WriteTraceArrivalOrder. The streaming readers
// (StreamCheckTrace, StreamSmallestKByKey, kavcheck -stream) sniff the
// format automatically, and OnlineSession.AppendWire and kavserve's binary
// /ingest accept it directly.
func WriteTraceWireArrivalOrder(w io.Writer, t *Trace, frameOps int, compress bool) error {
	return trace.WriteWireArrivalOrder(w, t, frameOps, compress)
}

// StreamCheckTrace verifies a multi-register trace read from r (keyed text
// or wire frames, sniffed) at bound k with parse, segmentation, and
// verification overlapped: memory stays bounded by the open segment windows
// and the report matches CheckTraceParallel on the same input (which must
// arrive in nondecreasing start order per key). It is an OnlineSession fed
// from r and flushed; an input error ends the run with the operations before
// it still reported.
func StreamCheckTrace(r io.Reader, k int, opts Options, sopts StreamOptions) (TraceReport, StreamStats, error) {
	return trace.StreamCheck(r, k, opts, sopts)
}

// StreamSmallestKByKey computes each register's smallest k from a streamed
// trace (the maximum per-segment smallest k; exact up to
// StreamOptions.Horizon — deeper-stale keys report a lower bound and are
// counted in StreamStats.SaturatedKeys).
func StreamSmallestKByKey(r io.Reader, opts Options, sopts StreamOptions) (map[string]int, StreamStats, error) {
	return trace.StreamSmallestKByKey(r, opts, sopts)
}

// StreamVerdictsByKey computes every enabled property's per-key verdict
// (sopts.Properties; k-atomicity in smallest-k form is always included) from
// a streamed trace in one parse/cut/schedule pass. Key-sorted, in the shape
// OnlineSession.Snapshot produces.
func StreamVerdictsByKey(r io.Reader, opts Options, sopts StreamOptions) ([]OnlineKeyVerdict, StreamStats, error) {
	return trace.StreamVerdictsByKey(r, opts, sopts)
}

// CheckTrace verifies every register in the trace at bound k.
func CheckTrace(t *Trace, k int, opts Options) TraceReport {
	return trace.Check(t, k, opts)
}

// CheckTraceParallel is CheckTrace with verification fanned out over a
// bounded worker pool (workers <= 0 uses GOMAXPROCS), one unit per run of a
// register's safe-cut segments, whatever order the register is listed in; a
// register with an anomaly is one unit checked whole. The report is identical
// to CheckTrace's for any worker count.
func CheckTraceParallel(t *Trace, k int, opts Options, workers int) TraceReport {
	return trace.CheckParallel(t, k, opts, workers)
}

// SmallestKByKey computes the smallest k per register (0 marks keys whose
// verification failed).
func SmallestKByKey(t *Trace, opts Options) map[string]int {
	return trace.SmallestKByKey(t, opts)
}

// SmallestKByKeyParallel is SmallestKByKey over a bounded worker pool
// (workers <= 0 uses GOMAXPROCS); results are identical to the sequential
// form.
func SmallestKByKeyParallel(t *Trace, opts Options, workers int) map[string]int {
	return trace.SmallestKByKeyParallel(t, opts, workers)
}

// WorstK returns the largest per-key smallest-k in the trace and the key
// exhibiting it.
func WorstK(t *Trace, opts Options) (k int, key string, ok bool) {
	return trace.WorstK(t, opts)
}

// CheckDelta reports whether the history is Δ-atomic for the given time
// bound: atomic once every read may be up to d time units stale (the
// time-based staleness measure of Golab, Li, Shah, PODC 2011 — the paper's
// reference [10]). d is on h's own time scale; h must be anomaly-free and is
// not modified. Costs one normalize+prepare (the anomaly scan) and one probe
// of the per-cluster summary the verdict depends on.
func CheckDelta(h *History, d int64) (bool, error) { return delta.Check(h, d) }

// SmallestDelta returns the least Δ, on h's own time scale, for which the
// history is Δ-atomic (0 iff it is atomic). h must be anomaly-free and is not
// modified. Costs one normalize+prepare plus a binary search over the
// per-cluster summary — no probe touches the operations again.
func SmallestDelta(h *History) (int64, error) { return delta.Smallest(h) }

// RenderTimeline draws the history as an ASCII Gantt chart, optionally
// annotated with a witness order.
func RenderTimeline(w io.Writer, p *Prepared, opts RenderOptions) error {
	return render.Timeline(w, p, opts)
}

// CheckProperties classifies every read of the prepared history under the
// classical weak register properties of Section I: Lamport's safety and
// regularity (per-read checks, weaker than 1-atomicity, incomparable with
// k-atomicity for k >= 2).
func CheckProperties(p *Prepared) regularity.Verdict { return regularity.Check(p) }

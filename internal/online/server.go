// Package online is the continuous-verification service behind cmd/kavserve:
// a long-running HTTP node that routes operation streams from many
// concurrent clients into push-driven smallest-k sessions (trace.Session),
// one per tenant, on a shared verification pool, and serves the live per-key
// verdict state back out. Multi is the node and lists its endpoints; Server
// is one tenant.
//
// Ingest takes the keyed trace format, newline-delimited, or binary wire
// frames when the request carries Content-Type: application/x-kav-wire
// (chunked bodies fine either way), and answers {"ingested": n} or an
// IngestReject whose code, status and meaning are a row of the table in
// reject.go. Both codecs feed the session's batch-granular path: grouped by
// ingest shard, one shard-lock take per chunk or frame.
//
// Verdict semantics: the session runs in smallest-k mode, so each key's
// SmallestK is the maximum over its verified segments — a lower bound that
// only grows while operations are still buffered, and exact after drain (up
// to the staleness horizon; see trace.StreamSmallestKByKey). The fixed-k
// status at the configured bound K is derived from it: a key whose smallest
// k exceeds K is violating, by the segment-equivalence lemma. The first
// violating segment per key is retained as the violation witness.
package online

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kat/internal/checkpoint"
	"kat/internal/core"
	"kat/internal/metrics"
	"kat/internal/trace"
	"kat/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// K is the staleness bound keys are judged against in the verdict
	// status field; <= 0 defaults to 2 (the paper's headline case).
	K int
	// Opts tunes verification.
	Opts core.Options
	// Stream tunes the underlying session; Stream.Properties adds
	// Δ-atomicity and regularity/safety verdicts to the same pass.
	Stream trace.StreamOptions
	// MemoryBudget, when > 0, bounds the bytes the session buffers
	// operations in (trace.Session.BufferedBytes); each tenant of a Multi
	// counts its own. At half of it /ingest relieves memory now instead of at
	// the next sweep cadence (Session.Relieve down to half the budget: keys
	// idle past Stream.RetireTTL retire, and with a blob store the largest held
	// runs spill), at most every 250 ms. At the budget, after that relief,
	// /ingest sheds with RejectOverload before reading the body. A request
	// admitted under the budget may overshoot it by its own size.
	MemoryBudget int64
}

// Violation is the retained evidence for a key's first violating segment.
type Violation struct {
	// Seq is the first segment sequence number covered by the verdict, or
	// -1 when no segment witness is held: the violation was established by a
	// cross-boundary stale read (a read returning a value from an
	// already-dispatched segment), which never passes through a segment
	// verdict, or its segment was verified before the last restart.
	Seq int `json:"seq"`
	// Ops is the segment length.
	Ops int `json:"ops"`
	// K is the segment's smallest k (what pushed the key over the bound),
	// 0 when the segment failed with an anomaly instead.
	K int `json:"k,omitempty"`
	// Err is the segment's anomaly, if any.
	Err string `json:"error,omitempty"`
}

// KeyStatus is one key's entry in the verdict document.
type KeyStatus struct {
	Key string `json:"key"`
	// Ops counts ingested operations; PendingOps counts those not yet
	// dispatched for verification (0 after drain).
	Ops        int `json:"ops"`
	PendingOps int `json:"pendingOps,omitempty"`
	// SmallestK is the largest verified per-segment smallest k — a lower
	// bound until drained, then exact (horizon caveat: see Saturated).
	SmallestK int `json:"smallestK"`
	// Saturated marks a read staler than the configured horizon;
	// SmallestK is then only the horizon floor even after drain.
	Saturated bool `json:"saturated,omitempty"`
	// Status is "ok" (within bound so far), "violating" (smallest k exceeds
	// the bound — sound even when saturated, the floor being a lower bound),
	// "indeterminate" (saturated with the floor within the bound: raise the
	// horizon for a definite verdict), or "error" (anomaly).
	Status    string     `json:"status"`
	Err       string     `json:"error,omitempty"`
	Violation *Violation `json:"violation,omitempty"`
	// Retired marks a key folded into a compact retired record after
	// quiescing past the retirement TTL; its verdict fields are final floors
	// that carry forward if the key is re-admitted.
	Retired bool `json:"retired,omitempty"`
	// Delta and Regularity carry the extra per-property verdicts when the
	// session verifies them (Config.Stream.Properties).
	Delta      *DeltaStatus      `json:"delta,omitempty"`
	Regularity *RegularityStatus `json:"regularity,omitempty"`
}

// DeltaStatus is the Δ-atomicity (time-staleness) portion of a key's
// verdict.
type DeltaStatus struct {
	// SmallestDelta is the largest verified per-segment smallest Δ — like
	// SmallestK, a lower bound until drained, then exact up to the
	// staleness horizon.
	SmallestDelta int64 `json:"smallestDelta"`
	// Saturated marks a read staler than the configured horizon;
	// SmallestDelta is then only a floor even after drain.
	Saturated bool `json:"saturated,omitempty"`
}

// RegularityStatus is the Lamport safety/regularity portion of a key's
// verdict. Offending-read counts are exact even across the staleness
// horizon (a read reaching past already-dispatched segments is definitively
// irregular), so Regular and Safe are final after drain with no saturation
// caveat.
type RegularityStatus struct {
	// Regular and Safe report zero offending reads so far.
	Regular bool `json:"regular"`
	Safe    bool `json:"safe"`
	// IrregularReads counts reads violating regularity (neither the
	// freshest forced value nor one written concurrently); UnsafeReads
	// counts the subset also violating safety (not even excused by
	// concurrency with a write).
	IrregularReads int `json:"irregularReads,omitempty"`
	UnsafeReads    int `json:"unsafeReads,omitempty"`
}

// verdict is ks's per-property verdict as one trace.Verdict, the inverse
// of render.
func (ks KeyStatus) verdict() trace.Verdict {
	v := trace.Verdict{SmallestK: ks.SmallestK, Saturated: ks.Saturated}
	if ks.Delta != nil {
		v.SmallestDelta, v.DeltaSaturated = ks.Delta.SmallestDelta, ks.Delta.Saturated
	}
	if ks.Regularity != nil {
		v.UnsafeReads, v.IrregularReads = ks.Regularity.UnsafeReads, ks.Regularity.IrregularReads
	}
	return v
}

// render sets ks's verdict fields from v — Delta and Regularity in place,
// where ks carries them — and its Status under bound k, given Err. final
// marks a complete verdict: a fully verified key is then at least 1-atomic,
// as SmallestKByKey reports.
func (ks *KeyStatus) render(k int, v trace.Verdict, final bool) {
	ks.SmallestK, ks.Saturated = v.SmallestK, v.Saturated
	if final && ks.Err == "" {
		ks.SmallestK = max(ks.SmallestK, 1)
	}
	if ks.Delta != nil {
		*ks.Delta = DeltaStatus{SmallestDelta: v.SmallestDelta, Saturated: v.DeltaSaturated}
	}
	if ks.Regularity != nil {
		*ks.Regularity = RegularityStatus{Regular: v.IrregularReads == 0, Safe: v.UnsafeReads == 0,
			IrregularReads: v.IrregularReads, UnsafeReads: v.UnsafeReads}
	}
	switch {
	case ks.Err != "":
		ks.Status = "error"
	case ks.SmallestK > k:
		ks.Status = "violating"
	case v.Saturated:
		// The floor is within the bound but a read out-reached the
		// horizon, so a definite "ok" would be unsound.
		ks.Status = "indeterminate"
	default:
		ks.Status = "ok"
	}
}

// Fold merges o, another copy of the same key's entry (a key re-ingested on
// a second node), into ks under bound k: the verdicts fold through
// trace.Verdict.Fold and Status is re-rendered from the result, operation
// counts sum, and the entry is Retired only if both copies are. Of two
// error texts or two witnesses it keeps the smaller (the lower-Seq
// violation), so the fold is commutative.
func (ks *KeyStatus) Fold(o KeyStatus, k int) {
	v := ks.verdict()
	v.Fold(o.verdict())
	ks.Ops += o.Ops
	ks.PendingOps += o.PendingOps
	ks.Retired = ks.Retired && o.Retired
	if o.Err != "" && (ks.Err == "" || o.Err < ks.Err) {
		ks.Err = o.Err
	}
	if o.Violation != nil && (ks.Violation == nil || o.Violation.less(*ks.Violation)) {
		ks.Violation = o.Violation
	}
	// Fresh objects for render to fill: the copies' pointers are shared with
	// the documents they came from.
	if ks.Delta != nil || o.Delta != nil {
		ks.Delta = new(DeltaStatus)
	}
	if ks.Regularity != nil || o.Regularity != nil {
		ks.Regularity = new(RegularityStatus)
	}
	ks.render(k, v, false)
}

// less orders witnesses by Seq, then by every other field, so the earliest
// violating segment wins a fold and ties break the same in either order.
func (v Violation) less(o Violation) bool {
	return cmp.Or(cmp.Compare(v.Seq, o.Seq), cmp.Compare(v.Ops, o.Ops),
		cmp.Compare(v.K, o.K), strings.Compare(v.Err, o.Err)) < 0
}

// Line renders the key's one-line text summary (see VerdictDoc.WriteText).
func (ks KeyStatus) Line() string {
	line := fmt.Sprintf("key %-12s %6d ops  smallest k: %d", ks.Key, ks.Ops, ks.SmallestK)
	if ks.Delta != nil {
		line += fmt.Sprintf("  smallest Δ: %d", ks.Delta.SmallestDelta)
	}
	if ks.Regularity != nil {
		line += fmt.Sprintf("  irregular: %d  unsafe: %d", ks.Regularity.IrregularReads, ks.Regularity.UnsafeReads)
	}
	line += fmt.Sprintf("  [%s]", ks.Status)
	if ks.Err != "" {
		line += "  " + ks.Err
	}
	return line
}

// VerdictDoc is the /verdict response.
type VerdictDoc struct {
	// K is the bound statuses are judged against.
	K int `json:"k"`
	// Properties names the verified property set ("k,delta,regularity");
	// empty for k-only sessions, keeping the legacy document unchanged.
	Properties string `json:"properties,omitempty"`
	// Drained reports that verdicts are final.
	Drained bool `json:"drained"`
	// Keys holds one entry per seen key, key-sorted.
	Keys []KeyStatus `json:"keys"`
	// Stats is the session's streaming statistics.
	Stats trace.StreamStats `json:"stats"`
	// Retired summarizes the keys whose state was folded into compact
	// retired records (counts plus worst-case per-property floors over
	// all retired keys); present once any retirement has happened.
	Retired *trace.RetiredSummary `json:"retired,omitempty"`
	// Epochs carries the per-epoch verdict windows when the session
	// rotates them (Stream.EpochLength > 0): the folded aggregate of
	// evicted epochs first, then retained epochs in ascending order.
	Epochs []trace.EpochStats `json:"epochs,omitempty"`
}

// EpochDoc is the /verdict?epoch=N response: the k-atomicity verdict
// over one bounded window of trace time, answering "was the store
// k-atomic over that hour" without waiting for a drain.
type EpochDoc struct {
	// Epoch identifies the window: floor(trace time / epoch length).
	Epoch int64 `json:"epoch"`
	// Current marks the still-open window, whose stats are floors.
	Current bool `json:"current,omitempty"`
	// Folded marks a window folded into the aggregate of evicted epochs;
	// Stats then covers every evicted window.
	Folded bool `json:"folded,omitempty"`
	// K is the bound KAtomic judges the window's MaxK against.
	K int `json:"k"`
	// KAtomic reports that every segment settled in the window verified
	// within the bound with no anomalies: false is definite (MaxK is a lower
	// bound), true final once the window's keys are drained or retired.
	KAtomic bool `json:"kAtomic"`
	// Stats is the window's verdict aggregate.
	Stats trace.EpochStats `json:"stats"`
}

// WriteText renders the per-key verdict lines and a one-line summary under
// the given label ("kavserve: final", "server: live", ...). kavserve's
// shutdown printout and kavgen -replay both use it, so their logs read alike.
func (d VerdictDoc) WriteText(w io.Writer, label string) {
	for _, ks := range d.Keys {
		fmt.Fprintln(w, ks.Line())
	}
	fmt.Fprintf(w, "%s verdicts for %d key(s), %d ops, %d segments\n",
		label, len(d.Keys), d.Stats.Ops, d.Stats.Segments)
}

// Server is the continuous verification service. Create with New (purely
// in-memory) or NewDurable (write-ahead logged and checkpointed); it is
// ready immediately and safe for any number of concurrent requests.
type Server struct {
	cfg  Config
	sess *trace.Session
	reg  *metrics.Registry
	mgr  *checkpoint.Manager // nil for in-memory servers
	// quotas is the tenant's admission table (setQuotas), nil when it has
	// no quota.
	quotas []quota

	opsIngested    *metrics.Counter
	ingestReqs     *metrics.Counter
	ingestErrors   *metrics.Counter
	sheds          map[string]*metrics.Counter // by code, one per Shed row of the reject table
	segmentsClosed *metrics.Counter
	violations     *metrics.Counter
	reliefs        *metrics.Counter

	// reliefAt gates relief to once per reliefInterval, CAS-gated so
	// concurrent ingest handlers never stack sweeps.
	reliefAt atomic.Int64
	// ingestSizes counts clean requests per ingestSizeBuckets class — the
	// batching signal an operator tunes producers against.
	ingestSizes []*metrics.Counter
	// Per-codec ingest accounting, text then wire: body bytes read and wall
	// time spent decoding+feeding, so the binary pipeline's win is visible
	// straight off /metrics.
	codecs [2]struct {
		bytes *metrics.Counter
		nanos atomic.Int64
	}
	// Per-property families, fed from segment verdicts in the OnSegment
	// chain. kSegments counts every segment, extraSegments (one per enabled
	// extra property) only those verified rather than scanned for anomalies;
	// the max gauges track the worst per-segment verdict (the final worst
	// key's, up to cross-boundary stale-read floors, which land only in
	// /verdict).
	kSegments      *metrics.Counter
	extraSegments  []*metrics.Counter
	irregularReads *metrics.Counter // nil unless regularity is enabled, like unsafeReads
	unsafeReads    *metrics.Counter
	maxSegK        atomic.Int64
	maxSegDelta    atomic.Int64

	mu         sync.Mutex
	firstViols map[string]Violation

	drainOnce sync.Once
	draining  sync.Once // distinct from drainOnce so 503s start immediately
	drainGate chan struct{}
	drainErr  error
	drained   chan struct{}
}

// New builds a purely in-memory Server from cfg and opens its session.
func New(cfg Config) *Server {
	s, _, err := NewDurable(cfg, nil)
	if err != nil {
		panic(err) // unreachable: only recovery can fail
	}
	return s
}

// NewDurable builds a Server whose session is write-ahead logged,
// checkpointed, and spill-backed by mgr's data directory (nil: in memory).
// Recovery — newest checkpoint restored, WAL tail replayed — runs before it
// returns; a directory whose final checkpoint was a drain comes back
// drained. The caller starts mgr's ticker and closes mgr (Multi does both);
// Drain seals the drained state in a terminal checkpoint itself.
func NewDurable(cfg Config, mgr *checkpoint.Manager) (*Server, checkpoint.RecoveryStats, error) {
	if cfg.K <= 0 {
		cfg.K = 2
	}
	if mgr != nil && cfg.Stream.Store == nil {
		cfg.Stream.Store = mgr.Store()
	}
	s := &Server{
		cfg:        cfg,
		reg:        metrics.NewRegistry(),
		mgr:        mgr,
		firstViols: make(map[string]Violation),
		drainGate:  make(chan struct{}),
		drained:    make(chan struct{}),
	}
	s.opsIngested = s.reg.Counter("kavserve_ops_ingested_total", "Operations accepted by /ingest.")
	s.ingestReqs = s.reg.Counter("kavserve_ingest_requests_total", "Requests to /ingest.")
	s.ingestErrors = s.reg.Counter("kavserve_ingest_errors_total", "Failed /ingest requests.")
	s.sheds = make(map[string]*metrics.Counter)
	for _, row := range Rejects {
		if row.Shed {
			s.sheds[row.Code] = s.reg.CounterL("kavserve_ingest_rejected_total",
				"Ingest requests shed before reading the body, by reason.", `reason="`+row.Code+`"`)
		}
	}
	s.segmentsClosed = s.reg.Counter("kavserve_segments_closed_total", "Segments verified.")
	s.violations = s.reg.Counter("kavserve_violations_total", "Violating segment verdicts.")
	for _, bucket := range ingestSizeBuckets {
		s.ingestSizes = append(s.ingestSizes, s.reg.CounterL("kavserve_ingest_requests_by_size_total",
			"Clean ingest requests, classified by operations accepted per request (size classes, not a cumulative histogram).",
			`bucket="`+bucket.label+`"`))
	}
	for i, codec := range []string{`codec="text"`, `codec="wire"`} {
		c := &s.codecs[i]
		c.bytes = s.reg.CounterL("kavserve_ingest_bytes_total", "Request-body bytes read by /ingest, by codec.", codec)
		s.reg.CounterFuncL("kavserve_ingest_decode_seconds_total", "Cumulative wall time decoding and feeding /ingest bodies, by codec.",
			codec, func() float64 { return float64(c.nanos.Load()) / 1e9 })
	}

	// Per-property families exist only for enabled properties, so a k-only
	// server's exposition is unchanged.
	props := cfg.Stream.Properties
	const segmentsHelp = "Segment verdicts carrying each property's result."
	s.kSegments = s.reg.CounterL("kavserve_property_segments_total", segmentsHelp, `property="k"`)
	s.reg.Gauge("kavserve_segment_smallest_k_max",
		"Largest per-segment smallest k observed (lower bound on the worst key's final k).",
		func() float64 { return float64(s.maxSegK.Load()) })
	if props.Has(trace.PropertyDelta) {
		s.extraSegments = append(s.extraSegments,
			s.reg.CounterL("kavserve_property_segments_total", segmentsHelp, `property="delta"`))
		s.reg.Gauge("kavserve_segment_smallest_delta_max",
			"Largest per-segment smallest Δ observed (lower bound on the worst key's final Δ).",
			func() float64 { return float64(s.maxSegDelta.Load()) })
	}
	if props.Has(trace.PropertyRegularity) {
		s.extraSegments = append(s.extraSegments,
			s.reg.CounterL("kavserve_property_segments_total", segmentsHelp, `property="regularity"`))
		s.irregularReads = s.reg.Counter("kavserve_irregular_reads_total",
			"Reads violating regularity, from segment verdicts (cross-boundary stale reads are folded into /verdict directly).")
		s.unsafeReads = s.reg.Counter("kavserve_unsafe_reads_total",
			"Reads violating Lamport safety, from segment verdicts (cross-boundary stale reads are folded into /verdict directly).")
	}

	cfg.Stream.OnSegment = func(v trace.SegmentVerdict) {
		s.segmentsClosed.Inc()
		s.kSegments.Inc()
		if !v.ScanOnly {
			for _, c := range s.extraSegments {
				c.Inc()
			}
		}
		// Fields of a property that is off, or of a scan-only segment, are
		// zero: they lift no maximum and add nothing.
		atomicMax(&s.maxSegK, int64(v.SmallestK))
		atomicMax(&s.maxSegDelta, v.SmallestDelta)
		if s.irregularReads != nil {
			s.irregularReads.Add(int64(v.IrregularReads))
			s.unsafeReads.Add(int64(v.UnsafeReads))
		}
		if bad := v.Err != nil || v.SmallestK > s.cfg.K; bad {
			s.violations.Inc()
			s.recordViolation(v)
		}
	}
	s.sess = trace.NewSmallestKSession(cfg.Opts, cfg.Stream)

	// Every session-backed gauge below is lock-free, so /metrics stays
	// scrapeable even while ingest is blocked on verification backpressure
	// — exactly when an operator most needs to see these numbers.
	s.reg.Gauge("kavserve_open_window_ops", "Live operations buffered (open windows + held + in-flight segments).",
		func() float64 { return float64(s.sess.BufferedOps()) })
	s.reg.Gauge("kavserve_buffered_bytes", "Memory those operations are held in: chunk bytes of open windows, held and in-flight segments.",
		func() float64 { return float64(s.sess.BufferedBytes()) })
	s.reg.Gauge("kavserve_verify_backlog_ops", "Operations dispatched to verification whose verdicts have not landed.",
		func() float64 { return float64(s.sess.BacklogOps()) })
	s.reg.CounterFunc("kavserve_verify_backlog_waits_total", "Segment dispatches that waited for room in the verification backlog.",
		func() float64 { return float64(s.sess.BacklogWaits()) })
	s.reg.Gauge("kavserve_ingest_shards", "Configured ingest shard count.",
		func() float64 { return float64(s.sess.Shards()) })
	s.reg.CounterFunc("kavserve_ingest_lock_acquisitions_total",
		"Ingest-path shard-lock acquisitions (with batch ingest, per-op cost is this over ops ingested).",
		func() float64 { return float64(s.sess.IngestLockAcquisitions()) })
	for i := 0; i < s.sess.Shards(); i++ {
		labels := `shard="` + strconv.Itoa(i) + `"`
		s.reg.CounterFuncL("kavserve_shard_ingested_ops_total", "Operations routed into each ingest shard (key-hash balance).",
			labels, func() float64 { return float64(s.sess.ShardIngestedOps(i)) })
		s.reg.GaugeL("kavserve_shard_open_window_ops", "Live buffered operations owned by each ingest shard's keys.",
			labels, func() float64 { return float64(s.sess.ShardBufferedOps(i)) })
	}
	s.reg.Gauge("kavserve_keys", "Distinct keys seen.",
		func() float64 { return float64(s.sess.Keys()) })
	s.reg.Gauge("kavserve_peak_buffered_ops", "Peak live operations observed.",
		func() float64 { return float64(s.sess.PeakBufferedOps()) })
	// Lifecycle families exist only on servers that retire keys, so plain
	// servers' exposition is unchanged. All of them read lock-free session
	// atomics.
	if cfg.Stream.RetireTTL > 0 {
		s.reg.Gauge("kavserve_retired_keys", "Keys currently folded into compact retired records.",
			func() float64 { return float64(s.sess.RetiredKeys()) })
		s.reg.CounterFunc("kavserve_retirements_total", "Lifetime quiescent-key retirements.",
			func() float64 { return float64(s.sess.Stats().Retirements) })
		s.reg.CounterFunc("kavserve_readmissions_total", "Retired keys re-admitted by later operations (floors carried forward).",
			func() float64 { return float64(s.sess.Stats().Readmissions) })
	}
	if cfg.Stream.EpochLength > 0 {
		s.reg.Gauge("kavserve_current_epoch", "Epoch window the ingest watermark currently falls in.",
			func() float64 { ep, _ := s.sess.CurrentEpoch(); return float64(ep) })
	}
	if cfg.MemoryBudget > 0 {
		s.reliefs = s.reg.Counter("kavserve_memory_reliefs_total",
			"Memory-budget reliefs (retirement + spill ahead of the cadence) run by the ingest path at half the budget.")
	}
	// Spill gauges read lock-free session atomics; they sit at zero for
	// sessions without a blob store.
	s.reg.Gauge("kavserve_spilled_ops", "Operations currently resident in the spill store instead of memory.",
		func() float64 { return float64(s.sess.SpilledOps()) })
	s.reg.CounterFunc("kavserve_spills_total", "Segment spills to the blob store.",
		func() float64 { return float64(s.sess.Stats().Spills) })
	s.reg.CounterFunc("kavserve_spill_loads_total", "Spilled segments reloaded for close, merge, or dispatch.",
		func() float64 { return float64(s.sess.Stats().SpillLoads) })
	s.reg.CounterFunc("kavserve_stale_reads_total", "Reads that crossed already-dispatched segments (staleness-floor evidence).",
		func() float64 { return float64(s.sess.Stats().StaleReads) })
	s.reg.Gauge("kavserve_saturated_keys", "Keys whose k (and Δ) verdicts are horizon floors rather than exact values.",
		func() float64 { return float64(s.sess.Stats().SaturatedKeys) })
	const ladderHelp = "Smallest-k units decided at each ladder rung: zone test (k = 1), FZF (k = 2), staleness bracket or oracle climb (k >= 3)."
	s.reg.CounterFuncL("kavserve_ladder_decided_total", ladderHelp, `rung="zone"`,
		func() float64 { return float64(s.sess.Stats().Ladder.Zone) })
	s.reg.CounterFuncL("kavserve_ladder_decided_total", ladderHelp, `rung="fzf"`,
		func() float64 { return float64(s.sess.Stats().Ladder.FZF) })
	s.reg.CounterFuncL("kavserve_ladder_decided_total", ladderHelp, `rung="climb"`,
		func() float64 { return float64(s.sess.Stats().Ladder.Climb) })
	s.reg.CounterFunc("kavserve_oracle_probes_total", "Exact-oracle calls made by the smallest-k climbs.",
		func() float64 { return float64(s.sess.Stats().Ladder.OracleProbes) })

	var rs checkpoint.RecoveryStats
	if mgr != nil {
		var err error
		rs, err = mgr.Recover(s.sess)
		if err != nil {
			return nil, rs, err
		}
		if s.sess.Flushed() {
			// The directory's final checkpoint was a drain: come back up
			// already terminal, serving the final verdicts.
			s.draining.Do(func() { close(s.drainGate) })
			s.drainOnce.Do(func() { close(s.drained) })
		}
		s.reg.CounterFunc("kavserve_wal_fsyncs_total", "WAL fsync calls that hit the disk.",
			func() float64 { return float64(mgr.Stats().WAL.Fsyncs) })
		s.reg.CounterFunc("kavserve_wal_fsync_seconds_total", "Cumulative wall time inside WAL fsyncs.",
			func() float64 { return float64(mgr.Stats().WAL.FsyncNanos) / 1e9 })
		s.reg.CounterFunc("kavserve_wal_appended_records_total", "Batch records appended to the WAL.",
			func() float64 { return float64(mgr.Stats().WAL.Records) })
		s.reg.CounterFunc("kavserve_wal_appended_bytes_total", "Bytes appended to the WAL (framing included).",
			func() float64 { return float64(mgr.Stats().WAL.Bytes) })
		s.reg.CounterFunc("kavserve_wal_rotations_total", "WAL epoch rotations (one per checkpoint).",
			func() float64 { return float64(mgr.Stats().WAL.Rotations) })
		s.reg.CounterFunc("kavserve_checkpoints_total", "Checkpoints durably published.",
			func() float64 { return float64(mgr.Stats().Checkpoints) })
		s.reg.CounterFunc("kavserve_checkpoint_failures_total", "Checkpoint attempts that failed (previous recovery line kept).",
			func() float64 { return float64(mgr.Stats().CheckpointFailures) })
		s.reg.Gauge("kavserve_checkpoint_last_bytes", "Size of the newest published checkpoint.",
			func() float64 { return float64(mgr.Stats().LastCheckpointBytes) })
		s.reg.Gauge("kavserve_recovery_replayed_ops_total", "Operations replayed from the WAL at startup.",
			func() float64 { return float64(mgr.Stats().Recovery.ReplayedOps) })
		s.reg.Gauge("kavserve_recovery_replayed_records_total", "WAL records replayed at startup.",
			func() float64 { return float64(mgr.Stats().Recovery.ReplayedRecords) })
		s.reg.Gauge("kavserve_recovery_torn_bytes_total", "Torn WAL tail bytes discarded at startup.",
			func() float64 { return float64(mgr.Stats().Recovery.TornBytes) })
	}
	return s, rs, nil
}

// reliefInterval bounds how often a sustained stay above half the memory
// budget re-runs relief, which takes every shard lock at least once.
const reliefInterval = 250 * time.Millisecond

// relieve runs one rate-limited Session.Relieve down to half the memory
// budget. Errors are sticky in the session; the next ingest surfaces them.
func (s *Server) relieve() {
	now := time.Now().UnixNano()
	last := s.reliefAt.Load()
	if now-last < int64(reliefInterval) || !s.reliefAt.CompareAndSwap(last, now) {
		return
	}
	s.sess.Relieve(s.cfg.MemoryBudget / 2)
	s.reliefs.Inc()
}

// atomicMax lifts a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

// recordViolation retains the earliest (lowest-Seq) violating segment per
// key. Verdicts land in any order from concurrent pool workers, so
// first-to-arrive would make the witness nondeterministic; min-Seq makes it
// reproducible across runs and worker counts.
func (s *Server) recordViolation(v trace.SegmentVerdict) {
	s.mu.Lock()
	if cur, seen := s.firstViols[v.Key]; !seen || v.Seq < cur.Seq {
		viol := Violation{Seq: v.Seq, Ops: v.Ops, K: v.SmallestK}
		if v.Err != nil {
			viol.Err = v.Err.Error()
		}
		s.firstViols[v.Key] = viol
	}
	s.mu.Unlock()
}

// Handler returns the service's HTTP handler: a one-tenant Multi's, with
// this server as its root tenant.
func (s *Server) Handler() http.Handler {
	return (&Multi{tenants: map[string]*Server{"": s}, root: s}).Handler()
}

// Health is the /healthz document: liveness plus what a cluster router's
// probe wants without a /verdict fetch — whether the node still accepts
// ingest (Status "ok", or "draining" with Draining set once Drain started),
// and how loaded it is.
type Health struct {
	Status      string `json:"status"`
	Draining    bool   `json:"draining"`
	BufferedOps int64  `json:"bufferedOps"`
	Keys        int64  `json:"keys"`
	RetiredKeys int64  `json:"retiredKeys,omitempty"`
}

// health builds the /healthz document.
func (s *Server) health() Health {
	h := Health{Status: "ok", BufferedOps: s.sess.BufferedOps(), Keys: s.sess.Keys(),
		RetiredKeys: s.sess.RetiredKeys()}
	if s.Draining() {
		h.Status, h.Draining = "draining", true
	}
	return h
}

// Drain flushes the session to final verdicts: open windows are committed,
// every held segment verifies, and /verdict afterwards reports exactly what
// the offline checkers report on the merged trace. A durable server seals
// the drained state in a terminal checkpoint before Drain returns, so a
// drain is durable when it is acknowledged: a restart serves the final
// verdicts with no WAL replay. Idempotent; concurrent callers all wait for
// the one flush. New ingests are rejected from the moment Drain is called.
func (s *Server) Drain() error {
	s.draining.Do(func() { close(s.drainGate) })
	s.drainOnce.Do(func() {
		s.drainErr = s.sess.Flush()
		if s.mgr != nil {
			s.drainErr = errors.Join(s.drainErr, s.mgr.Checkpoint())
		}
		close(s.drained)
	})
	<-s.drained
	return s.drainErr
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return closed(s.drainGate) }

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// ingestSizeBuckets classifies /ingest requests by operations accepted, a
// coarse batching histogram (size classes, not cumulative le-buckets).
var ingestSizeBuckets = []struct {
	max   int64
	label string
}{
	{16, "le16"},
	{256, "le256"},
	{4096, "le4096"},
	{1<<63 - 1, "inf"},
}

func (s *Server) recordIngestSize(n int64) {
	for i, b := range ingestSizeBuckets {
		if n <= b.max {
			s.ingestSizes[i].Inc()
			return
		}
	}
}

// reject answers a failed /ingest with its table row: n operations of the
// request were accepted before err.
func (s *Server) reject(w http.ResponseWriter, row Reject, n int64, err error, offset *int64) {
	s.ingestErrors.Inc()
	WriteReject(w, row, IngestReject{Code: row.Code, Error: err.Error(), Ingested: n, Offset: offset})
}

// shed turns a request away before its body is read — the producer resends
// the whole batch, so nothing is half-accepted — and counts it by code.
func (s *Server) shed(w http.ResponseWriter, row Reject, err error) {
	s.sheds[row.Code].Inc()
	s.reject(w, row, 0, err, nil)
}

// countingReader counts the bytes an ingest body delivered.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// WantsWire reports whether the request negotiated the binary wire codec
// via Content-Type (parameters after ';' are ignored; text stays the
// default for everything else).
func WantsWire(r *http.Request) bool {
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	return strings.TrimSpace(ct) == wire.ContentType
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.ingestReqs.Inc()
	if !s.admitQuotas(w) {
		return
	}
	if s.Draining() {
		s.shed(w, RejectDraining, errors.New("draining: ingest is closed"))
		return
	}
	if budget := s.cfg.MemoryBudget; budget > 0 {
		if s.sess.BufferedBytes() >= budget/2 {
			s.relieve()
		}
		if b := s.sess.BufferedBytes(); b >= budget {
			s.shed(w, RejectOverload, fmt.Errorf("overloaded: %d bytes buffered (budget %d)", b, budget))
			return
		}
	}
	// Batch-granular ingest, codec by Content-Type (see the package doc).
	c, feed := &s.codecs[0], s.sess.AppendTraceBatch
	if WantsWire(r) {
		c, feed = &s.codecs[1], s.sess.AppendWire
	}
	body := countingReader{r: r.Body}
	start := time.Now()
	n, err := feed(&body)
	c.nanos.Add(int64(time.Since(start)))
	c.bytes.Add(body.n)
	s.opsIngested.Add(n)
	if err != nil {
		row, offset := RejectMalformed, (*int64)(nil)
		var derr *trace.DurabilityError
		var werr *wire.DecodeError
		switch {
		case errors.Is(err, trace.ErrSessionFlushed):
			row = RejectDraining
		case errors.Is(err, trace.ErrOutOfOrder):
			row = RejectOutOfOrder
		case errors.As(err, &derr):
			row = RejectDurability
		case errors.As(err, &werr):
			offset = &werr.Offset
		}
		s.reject(w, row, n, err, offset)
		return
	}
	// Only clean requests feed the batching-size signal: an error storm of
	// rejected requests must not masquerade as tiny producer batches.
	s.recordIngestSize(n)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"ingested\": %d}\n", n)
}

// Verdict assembles the current verdict document (final once drained).
func (s *Server) Verdict() VerdictDoc {
	drained := closed(s.drained)
	doc := VerdictDoc{K: s.cfg.K, Drained: drained, Stats: s.sess.Stats()}
	if p := s.cfg.Stream.Properties; p != 0 && p != trace.PropertySetK {
		doc.Properties = p.String()
	}
	for _, kv := range s.sess.Snapshot() {
		doc.Keys = append(doc.Keys, s.keyStatus(kv, drained))
	}
	if doc.Stats.Retirements > 0 {
		rs := s.sess.RetiredSummary()
		doc.Retired = &rs
	}
	if s.sess.EpochLength() > 0 {
		doc.Epochs = s.sess.Epochs()
	}
	return doc
}

func (s *Server) keyStatus(kv trace.KeyVerdict, drained bool) KeyStatus {
	ks := KeyStatus{Key: kv.Key, Ops: kv.Ops, PendingOps: kv.PendingOps, Retired: kv.Retired}
	if kv.Err != nil {
		ks.Err = kv.Err.Error()
	}
	if kv.Properties.Has(trace.PropertyDelta) {
		ks.Delta = new(DeltaStatus)
	}
	if kv.Properties.Has(trace.PropertyRegularity) {
		ks.Regularity = new(RegularityStatus)
	}
	// A retired key's verdict is final for its retired lifetime even while
	// the server is still live.
	ks.render(s.cfg.K, kv.Verdict, drained || kv.Retired)
	s.mu.Lock()
	v, ok := s.firstViols[kv.Key]
	s.mu.Unlock()
	switch {
	case ok:
		ks.Violation = &v
	case ks.Status == "violating":
		// No segment witness is held, so synthesize one: "violating" always
		// carries evidence. Segment witnesses live in memory only, so the
		// violating segment was verified before the session was restored
		// from its data directory — unless a cross-boundary stale read
		// established the violation, which never passes through a segment
		// verdict and, in a smallest-k session, always saturates the key.
		err := "violating segment verified before the last restart; its witness was not kept"
		if kv.Saturated {
			err = "read returned a value from an already-dispatched segment (staleness floor)"
		}
		ks.Violation = &Violation{Seq: -1, K: ks.SmallestK, Err: err}
	}
	return ks
}

func (s *Server) handleVerdict(w http.ResponseWriter, r *http.Request) {
	if arg := r.URL.Query().Get("epoch"); arg != "" {
		s.handleVerdictEpoch(w, arg)
		return
	}
	WriteJSON(w, http.StatusOK, s.Verdict())
}

// handleVerdictEpoch serves /verdict?epoch=N (or ?epoch=current): the
// verdict window for one epoch.
func (s *Server) handleVerdictEpoch(w http.ResponseWriter, arg string) {
	if s.sess.EpochLength() <= 0 {
		http.Error(w, "epoch windows are not enabled (start kavserve with -epoch)", http.StatusBadRequest)
		return
	}
	cur, haveCur := s.sess.CurrentEpoch()
	var ep int64
	if arg == "current" {
		if !haveCur {
			http.Error(w, "no operations ingested yet", http.StatusNotFound)
			return
		}
		ep = cur
	} else {
		var err error
		if ep, err = strconv.ParseInt(arg, 10, 64); err != nil {
			http.Error(w, fmt.Sprintf("bad epoch %q (want an integer or \"current\")", arg), http.StatusBadRequest)
			return
		}
	}
	es, ok := s.sess.EpochSummary(ep)
	if !ok {
		http.Error(w, fmt.Sprintf("no verdicts recorded for epoch %d", ep), http.StatusNotFound)
		return
	}
	WriteJSON(w, http.StatusOK, EpochDoc{
		Epoch:   es.Epoch,
		Current: haveCur && !es.Folded && es.Epoch == cur && !closed(s.drained),
		Folded:  es.Folded,
		K:       s.cfg.K,
		KAtomic: es.Errors == 0 && es.Violations == 0 && es.MaxK <= s.cfg.K,
		Stats:   es,
	})
}

func (s *Server) handleVerdictKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	kv, ok := s.sess.SnapshotKey(key)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown key %q", key), http.StatusNotFound)
		return
	}
	WriteJSON(w, http.StatusOK, s.keyStatus(kv, closed(s.drained)))
}

func (s *Server) handleDrain(w http.ResponseWriter, _ *http.Request) {
	if err := s.Drain(); err != nil {
		// The flush still drained what it could; report both.
		w.Header().Set("X-Kavserve-Drain-Error", err.Error())
	}
	WriteJSON(w, http.StatusOK, s.Verdict())
}

// WriteJSON answers a request with v as indented JSON under status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

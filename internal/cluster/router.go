package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kat/internal/history"
	"kat/internal/metrics"
	"kat/internal/online"
	"kat/internal/trace"
	"kat/internal/wire"
)

// Config parameterizes a Router.
type Config struct {
	// Nodes are the member base URLs ("http://host:port"), in partition
	// order: node i owns slot range i of the partition. Order matters —
	// clients that pre-route (kavgen -replay with a node list) must pass
	// the same order to land on the same members.
	Nodes []string
	// Slots is the partition granularity (0 selects DefaultSlots).
	Slots int
	// HopTimeout bounds each forwarded request (0: 5s).
	HopTimeout time.Duration
	// DrainTimeout bounds each member's coordinated drain (0: 60s) —
	// drains flush verification pipelines and legitimately outlive hops.
	DrainTimeout time.Duration
	// ProbeInterval spaces health probes per member (0: 1s).
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive-failure trip count (0: 3).
	BreakerThreshold int
	// BreakerCooldown is the open-state dwell before a half-open trial
	// (0: 3s).
	BreakerCooldown time.Duration
	// ForwardRetries caps retry attempts per forwarded sub-batch beyond
	// the first (0: 6).
	ForwardRetries int
	// Client overrides the forwarding HTTP client (tests inject one wired
	// to httptest servers). Per-hop deadlines come from request contexts,
	// so the client needs no timeout of its own.
	Client *http.Client
	// Logf, when set, receives router event lines (probe transitions,
	// degraded requests).
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	d := *c
	if d.Slots <= 0 {
		d.Slots = DefaultSlots
	}
	if d.HopTimeout <= 0 {
		d.HopTimeout = 5 * time.Second
	}
	if d.DrainTimeout <= 0 {
		d.DrainTimeout = 60 * time.Second
	}
	if d.ProbeInterval <= 0 {
		d.ProbeInterval = time.Second
	}
	if d.BreakerThreshold <= 0 {
		d.BreakerThreshold = 3
	}
	if d.BreakerCooldown <= 0 {
		d.BreakerCooldown = 3 * time.Second
	}
	if d.ForwardRetries <= 0 {
		d.ForwardRetries = 6
	}
	if d.Client == nil {
		d.Client = &http.Client{}
	}
	if d.Logf == nil {
		d.Logf = func(string, ...any) {}
	}
	return d
}

// Retry pacing for forwarded sub-batches; variables so tests shrink them.
var (
	routerRetryBase = 50 * time.Millisecond
	routerRetryMax  = 2 * time.Second
)

// Router is the cluster-mode ingress: it owns no verification state of its
// own, only the partition map, per-member circuit breakers, and per-member
// acked-operation counts used to reconcile ambiguous forwards.
//
// Contract: the router is the sole ingress to its members. Per-member
// forwarding is serialized, and after any ambiguous transport failure the
// member's authoritative /verdict counts tell the router exactly which
// leading per-key operations already landed — sound only if nobody else
// writes to the member concurrently. (kavgen -replay's node-list mode
// bypasses the router entirely and applies the same reconcile logic per
// node itself; mixing both ingress paths at once is unsupported.)
type Router struct {
	cfg     Config
	part    *Partition
	members []*member
	reg     *metrics.Registry

	ingestReqs       *metrics.Counter
	degradedIngests  *metrics.Counter
	degradedVerdicts *metrics.Counter

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// member is one node: its address, breaker, forwarding serialization, and
// the acked per-key counts backing reconciliation.
type member struct {
	idx     int
	base    string
	label   string // metrics label value: host:port
	breaker *Breaker

	// fwdMu serializes forwarding (and reconciliation) to this member,
	// which is what makes the acked-count arithmetic sound.
	fwdMu sync.Mutex
	acked map[string]int64
	// needBaseline asks the next forward to refresh acked from the
	// member's /verdict — set at construction and on breaker re-admission
	// (the member may have restarted with recovered or empty state).
	needBaseline atomic.Bool

	fwdBatches    *metrics.Counter
	fwdOps        *metrics.Counter
	fwdBytes      *metrics.Counter
	fwdRetries    *metrics.Counter
	reconciles    *metrics.Counter
	probeFailures *metrics.Counter
	hopNanos      atomic.Int64
}

// NewRouter builds a Router over the given members. Call Start to launch
// health probes and Close to stop them.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no member nodes")
	}
	part, err := NewPartition(len(cfg.Nodes), cfg.Slots)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:  cfg,
		part: part,
		reg:  metrics.NewRegistry(),
		stop: make(chan struct{}),
	}
	rt.reg.Gauge("kavserve_router_nodes", "Cluster member count.",
		func() float64 { return float64(len(cfg.Nodes)) })
	rt.ingestReqs = rt.reg.Counter("kavserve_router_ingest_requests_total",
		"Ingest requests accepted for routing.")
	rt.degradedIngests = rt.reg.Counter("kavserve_router_degraded_ingests_total",
		"Ingest requests answered degraded (at least one member slice unreachable).")
	rt.degradedVerdicts = rt.reg.Counter("kavserve_router_degraded_verdicts_total",
		"Verdict requests answered partial (at least one member unreachable).")
	for i, base := range cfg.Nodes {
		base = strings.TrimRight(base, "/")
		m := &member{
			idx:     i,
			base:    base,
			label:   strings.TrimPrefix(strings.TrimPrefix(base, "https://"), "http://"),
			breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
			acked:   map[string]int64{},
		}
		m.needBaseline.Store(true)
		lbl := `node="` + m.label + `"`
		m.fwdBatches = rt.reg.CounterL("kavserve_router_forward_batches_total",
			"Sub-batches forwarded cleanly, per member.", lbl)
		m.fwdOps = rt.reg.CounterL("kavserve_router_forward_ops_total",
			"Operations forwarded and acknowledged, per member.", lbl)
		m.fwdBytes = rt.reg.CounterL("kavserve_router_forward_bytes_total",
			"Request-body bytes forwarded, per member (includes retries).", lbl)
		m.fwdRetries = rt.reg.CounterL("kavserve_router_forward_retries_total",
			"Forward attempts beyond the first, per member.", lbl)
		m.reconciles = rt.reg.CounterL("kavserve_router_reconciles_total",
			"Ambiguous forwards reconciled against the member's /verdict, per member.", lbl)
		m.probeFailures = rt.reg.CounterL("kavserve_router_probe_failures_total",
			"Failed health probes, per member.", lbl)
		rt.reg.GaugeL("kavserve_router_breaker_state",
			"Member circuit breaker state (0 closed, 1 half-open, 2 open).", lbl,
			func() float64 { return float64(m.breaker.State()) })
		rt.reg.CounterFuncL("kavserve_router_hop_seconds_total",
			"Cumulative wall time spent on forwarded hops, per member.", lbl,
			func() float64 { return float64(m.hopNanos.Load()) / 1e9 })
		rt.members = append(rt.members, m)
	}
	return rt, nil
}

// Partition exposes the router's key→node map (kavserve's router mode logs
// the slot layout at startup).
func (rt *Router) Partition() *Partition { return rt.part }

// Start launches one health-probe goroutine per member.
func (rt *Router) Start() {
	for _, m := range rt.members {
		rt.wg.Add(1)
		go rt.probeLoop(m)
	}
}

// Close stops the probes. Safe to call more than once.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

func (rt *Router) probeLoop(m *member) {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		before := m.breaker.State()
		if err := rt.probe(m); err != nil {
			m.probeFailures.Inc()
			m.breaker.Failure()
			if before == BreakerClosed && m.breaker.State() == BreakerOpen {
				rt.cfg.Logf("cluster: node %d (%s) unhealthy, breaker open: %v", m.idx, m.base, err)
			}
			continue
		}
		m.breaker.Success()
		if before != BreakerClosed {
			// Re-admission: the member may have restarted with recovered or
			// empty state, so the acked baseline must be refreshed before
			// the next forward trims anything.
			m.needBaseline.Store(true)
			rt.cfg.Logf("cluster: node %d (%s) healthy again, breaker closed", m.idx, m.base)
		}
	}
}

func (rt *Router) probe(m *member) error {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HopTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// Handler returns the router's HTTP surface — the same endpoint shapes a
// single kavserve node serves, so clients need not know they talk to a
// cluster until a degraded response names unreachable slices.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", rt.handleIngest)
	mux.HandleFunc("GET /verdict", rt.handleVerdict)
	mux.HandleFunc("GET /verdict/{key}", rt.handleVerdictKey)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("POST /drain", rt.handleDrain)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return mux
}

// DegradedReject is the router's /ingest failure body: the single-node
// IngestReject shape plus the unreachable keyspace slices. Code "degraded"
// breaks one single-node invariant on purpose — Ingested counts operations
// accepted across ALL members and is NOT a prefix of the request, because
// the batch was split per owner. Clients must reconcile per key against
// /verdict rather than prefix-trim.
type DegradedReject struct {
	online.IngestReject
	Unreachable []string        `json:"unreachable,omitempty"`
	Slices      []DegradedSlice `json:"slices,omitempty"`
}

// DegradedSlice details one failed member slice of a degraded ingest. Code
// is the member's own reject code ("" when the failure was transport-level
// or breaker-gated), preserved so clients keep the per-slice diagnostic the
// top-level code would otherwise mask.
type DegradedSlice struct {
	Slice string `json:"slice"`
	Code  string `json:"code,omitempty"`
	Error string `json:"error"`
}

// stickyRejectCodes are member reject codes a blind retry of the same batch
// cannot cure (see online.IngestReject); the router omits Retry-After when
// every failed slice is sticky so clients stop instead of burning attempts.
var stickyRejectCodes = map[string]bool{
	"draining":     true,
	"out_of_order": true,
	"buffer_limit": true,
	"durability":   true,
	"malformed":    true,
}

// rejectStatus maps a member reject code to the HTTP status the single-node
// server uses for it, so a uniform typed failure round-trips the cluster
// with unchanged semantics.
func rejectStatus(code string) int {
	switch code {
	case "draining", "out_of_order":
		return http.StatusConflict
	case "malformed":
		return http.StatusBadRequest
	case "durability":
		return http.StatusInternalServerError
	default: // buffer_limit, overload, degraded
		return http.StatusServiceUnavailable
	}
}

// slice names a member's keyspace slice for degradation reports.
func (rt *Router) slice(m *member) string {
	return fmt.Sprintf("node %d (%s): %s", m.idx, m.base, rt.part.Range(m.idx))
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	rt.ingestReqs.Inc()
	ops, isWire, off, err := decodeBatch(r)
	if err != nil {
		// Decode-fully-before-forwarding means a malformed batch rejects
		// atomically: nothing was forwarded, Ingested is genuinely 0.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(online.IngestReject{
			Code: "malformed", Error: err.Error(), Offset: off,
		})
		return
	}
	// Split by owner, preserving input order inside each sub-batch — a
	// key maps to exactly one node, so per-key operation order survives
	// the split exactly.
	sub := make([][]wire.Op, len(rt.members))
	for _, op := range ops {
		n := rt.part.OwnerString(op.Key)
		sub[n] = append(sub[n], op)
	}
	type fwdResult struct {
		m     *member
		acked int64
		err   *forwardError
	}
	var wg sync.WaitGroup
	results := make([]fwdResult, 0, len(rt.members))
	var mu sync.Mutex
	for n, batch := range sub {
		if len(batch) == 0 {
			continue
		}
		m := rt.members[n]
		wg.Add(1)
		go func(m *member, batch []wire.Op) {
			defer wg.Done()
			acked, ferr := rt.forward(r.Context(), m, batch, isWire)
			mu.Lock()
			results = append(results, fwdResult{m, acked, ferr})
			mu.Unlock()
		}(m, batch)
	}
	wg.Wait()

	var total int64
	var failed []fwdResult
	for _, res := range results {
		total += res.acked
		if res.err != nil {
			failed = append(failed, res)
		}
	}
	if len(failed) == 0 {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"ingested\": %d}\n", total)
		return
	}
	// Degraded: healthy slices kept ingesting; name the failed ones, each
	// with its member's own reject code so the machine-readable diagnostic
	// survives the merge. When every failed slice rejected with the same
	// typed code the router surfaces that code (and its status) instead of
	// the generic "degraded", and Retry-After is set only if at least one
	// failure is retryable — sticky member rejects (draining, out_of_order,
	// buffer_limit, durability) cannot be cured by resending the same batch.
	sort.Slice(failed, func(a, b int) bool { return failed[a].m.idx < failed[b].m.idx })
	reject := DegradedReject{IngestReject: online.IngestReject{Code: "degraded", Ingested: total}}
	common := failed[0].err.code
	anyRetryable := false
	var msgs []string
	for _, res := range failed {
		if res.err.code != common {
			common = ""
		}
		if !stickyRejectCodes[res.err.code] {
			anyRetryable = true
		}
		slice := rt.slice(res.m)
		reject.Unreachable = append(reject.Unreachable, slice)
		reject.Slices = append(reject.Slices, DegradedSlice{
			Slice: slice, Code: res.err.code, Error: res.err.err.Error(),
		})
		msgs = append(msgs, fmt.Sprintf("%s: %v", slice, res.err.err))
	}
	reject.Error = "degraded: " + strings.Join(msgs, "; ")
	status := http.StatusServiceUnavailable
	if common != "" {
		reject.Code = common
		status = rejectStatus(common)
	}
	if anyRetryable {
		w.Header().Set("Retry-After", "1")
	}
	rt.degradedIngests.Inc()
	rt.cfg.Logf("cluster: degraded ingest (%d/%d ops accepted): %s", total, len(ops), reject.Error)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(reject)
}

// decodeBatch reads the whole request body into keyed operations, codec by
// Content-Type, before anything is forwarded.
func decodeBatch(r *http.Request) (ops []wire.Op, isWire bool, off *int64, err error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, false, nil, fmt.Errorf("reading body: %w", err)
	}
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	if strings.TrimSpace(ct) == wire.ContentType {
		dec := wire.NewDecoder(bytes.NewReader(body))
		for {
			batch, err := dec.Next()
			if err == io.EOF {
				return ops, true, nil, nil
			}
			if err != nil {
				var werr *wire.DecodeError
				if errors.As(err, &werr) {
					return nil, true, &werr.Offset, err
				}
				return nil, true, nil, err
			}
			ops = append(ops, batch...)
		}
	}
	err = trace.ParseStreamBytes(bytes.NewReader(body), func(key []byte, op history.Operation) error {
		ops = append(ops, wire.Op{Key: string(key), Op: op})
		return nil
	})
	if err != nil {
		return nil, false, nil, err
	}
	return ops, false, nil, nil
}

// forwardError is a sub-batch forwarding failure with its protocol code
// ("" when the failure was transport-level or breaker-gated).
type forwardError struct {
	code string
	err  error
}

// forward delivers batch to m with retry/backoff, reconciling ambiguous
// transport failures against the member's /verdict. It returns how many of
// batch's operations the member accepted (under failure this may be any
// per-key-prefix subset — deliberately not a batch prefix).
func (rt *Router) forward(ctx context.Context, m *member, batch []wire.Op, isWire bool) (int64, *forwardError) {
	m.fwdMu.Lock()
	defer m.fwdMu.Unlock()

	var acked int64
	remaining := batch
	// ambiguous marks an in-flight post whose fate is unknown: the member
	// may hold operations m.acked does not credit. While it is set nothing
	// may be resent — only a reconcile against the member's authoritative
	// counts clears it. And if forward exits with it still set (retries
	// exhausted, breaker fail-fast, ctx canceled), the acked baseline is
	// stale-low, so it must be refreshed from /verdict before any later
	// forward trusts count deltas — a stale baseline would make that
	// forward's reconcile trim NEW operations as "already applied".
	ambiguous := false
	defer func() {
		if ambiguous {
			m.needBaseline.Store(true)
		}
	}()
	for attempt := 0; ; attempt++ {
		if len(remaining) == 0 {
			m.fwdBatches.Inc()
			return acked, nil
		}
		if attempt > rt.cfg.ForwardRetries {
			return acked, &forwardError{err: fmt.Errorf("gave up after %d attempts", attempt)}
		}
		if attempt > 0 {
			m.fwdRetries.Inc()
			if !sleepCtx(ctx, backoffDelay(attempt)) {
				return acked, &forwardError{err: ctx.Err()}
			}
		}
		if !m.breaker.Allow() {
			return acked, &forwardError{err: fmt.Errorf("circuit breaker %s", m.breaker.State())}
		}
		if ambiguous {
			// Resolve the in-flight post before anything else touches the
			// wire: the member may have applied none, part, or all of it,
			// and a blind resend would double-ingest whatever landed.
			left, applied, rerr := rt.reconcile(ctx, m, remaining)
			if rerr != nil {
				// Member unreachable for reconcile too; retry the loop (the
				// breaker will gate if this keeps up).
				m.breaker.Failure()
				continue
			}
			m.reconciles.Inc()
			m.breaker.Success() // /verdict answered: the node is alive
			ambiguous = false
			acked += applied
			m.fwdOps.Add(applied)
			remaining = left
			if len(remaining) == 0 {
				m.fwdBatches.Inc()
				return acked, nil
			}
			// Resolved: fall through and resend the trimmed remainder in
			// this same attempt, so one injected fault still costs one
			// attempt of the retry budget.
		}
		if m.needBaseline.Load() {
			counts, err := rt.fetchCounts(ctx, m)
			if err != nil {
				m.breaker.Failure()
				continue
			}
			m.acked = counts
			m.needBaseline.Store(false)
		}
		body, err := renderBatch(remaining, isWire)
		if err != nil {
			// Re-encoding cannot fail for operations that decoded; treat as
			// a terminal routing defect rather than retrying.
			m.breaker.Success()
			return acked, &forwardError{code: "malformed", err: err}
		}
		n, ferr := rt.postOnce(ctx, m, body, isWire)
		if ferr == nil {
			addAcked(m.acked, remaining, len(remaining))
			acked += int64(len(remaining))
			m.fwdOps.Add(int64(len(remaining)))
			m.fwdBatches.Inc()
			m.breaker.Success()
			return acked, nil
		}
		switch {
		case ferr.code == "overload":
			// Transient shed: the member applied nothing; resend as-is.
			m.breaker.Success()
			continue
		case ferr.code != "":
			// Typed terminal reject. The member accepted a prefix of the
			// sub-batch (single-node prefix semantics); account for it.
			addAcked(m.acked, remaining, int(n))
			acked += n
			m.fwdOps.Add(n)
			m.breaker.Success()
			return acked, ferr
		default:
			// Transport-level: timeout, refused, torn response. The batch's
			// fate is unknown; mark it ambiguous so the next attempt
			// reconciles before any resend.
			m.breaker.Failure()
			ambiguous = true
			continue
		}
	}
}

// postOnce performs one /ingest hop. A nil error means the whole body was
// accepted. Protocol rejects carry their code; transport failures carry
// code "".
func (rt *Router) postOnce(ctx context.Context, m *member, body []byte, isWire bool) (int64, *forwardError) {
	hctx, cancel := context.WithTimeout(ctx, rt.cfg.HopTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodPost, m.base+"/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, &forwardError{err: err}
	}
	if isWire {
		req.Header.Set("Content-Type", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "text/plain")
	}
	m.fwdBytes.Add(int64(len(body)))
	start := time.Now()
	resp, err := rt.cfg.Client.Do(req)
	m.hopNanos.Add(int64(time.Since(start)))
	if err != nil {
		return 0, &forwardError{err: err}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		// Accepted status but torn body: ambiguous, same as a dead hop.
		return 0, &forwardError{err: fmt.Errorf("reading member response: %w", err)}
	}
	if resp.StatusCode == http.StatusOK {
		return 0, nil
	}
	var reject online.IngestReject
	if jerr := json.Unmarshal(payload, &reject); jerr != nil || reject.Code == "" {
		return 0, &forwardError{err: fmt.Errorf("member %s: %s: %.200s", m.base, resp.Status, payload)}
	}
	return reject.Ingested, &forwardError{
		code: reject.Code,
		err:  fmt.Errorf("member %s: %s (%s)", m.base, reject.Code, reject.Error),
	}
}

// reconcile refreshes m.acked from the member's /verdict and trims the
// leading per-key operations of remaining that the member already holds.
// Sound because the router serializes forwarding per member and is the
// sole ingress: any count growth since the last acked snapshot is exactly
// the prefix of in-flight operations that landed.
func (rt *Router) reconcile(ctx context.Context, m *member, remaining []wire.Op) ([]wire.Op, int64, error) {
	counts, err := rt.fetchCounts(ctx, m)
	if err != nil {
		return remaining, 0, err
	}
	skip := map[string]int64{}
	for key, have := range counts {
		if d := have - m.acked[key]; d > 0 {
			skip[key] = d
		}
	}
	var left []wire.Op
	var applied int64
	for _, op := range remaining {
		if skip[op.Key] > 0 {
			skip[op.Key]--
			applied++
			continue
		}
		left = append(left, op)
	}
	m.acked = counts
	return left, applied, nil
}

// fetchCounts reads the member's authoritative per-key ingested-operation
// counts off /verdict.
func (rt *Router) fetchCounts(ctx context.Context, m *member) (map[string]int64, error) {
	doc, err := rt.fetchVerdict(ctx, m, rt.cfg.HopTimeout)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int64, len(doc.Keys))
	for _, ks := range doc.Keys {
		counts[ks.Key] = int64(ks.Ops)
	}
	return counts, nil
}

func (rt *Router) fetchVerdict(ctx context.Context, m *member, timeout time.Duration) (online.VerdictDoc, error) {
	return rt.memberDoc(ctx, m, http.MethodGet, "/verdict", timeout)
}

func (rt *Router) memberDoc(ctx context.Context, m *member, method, path string, timeout time.Duration) (online.VerdictDoc, error) {
	var doc online.VerdictDoc
	hctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, method, m.base+path, nil)
	if err != nil {
		return doc, err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return doc, fmt.Errorf("member %s: %s %s: %s: %.200s", m.base, method, path, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, fmt.Errorf("member %s: decoding %s: %w", m.base, path, err)
	}
	return doc, nil
}

// addAcked credits the first n operations of batch to the per-key acked
// counts.
func addAcked(acked map[string]int64, batch []wire.Op, n int) {
	for i := 0; i < n && i < len(batch); i++ {
		acked[batch[i].Key]++
	}
}

// renderBatch re-encodes operations in the inbound codec: the router
// forwards wire as wire (self-contained frames) and text as text, so each
// member's codec metrics still reflect what producers actually sent.
func renderBatch(ops []wire.Op, isWire bool) ([]byte, error) {
	if isWire {
		return wire.EncodeSelfContained(nil, ops, false)
	}
	var buf []byte
	for _, op := range ops {
		buf = trace.AppendKeyedOpText(buf, op.Key, op.Op)
	}
	return buf, nil
}

// backoffDelay is the jittered exponential backoff before attempt n (>=1).
func backoffDelay(attempt int) time.Duration {
	d := routerRetryBase << (attempt - 1)
	if d > routerRetryMax || d <= 0 {
		d = routerRetryMax
	}
	// Full jitter in [d/2, d): desynchronizes concurrent retriers.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// NodeVerdict is one member's entry in a ClusterVerdict.
type NodeVerdict struct {
	Node    string `json:"node"`
	Index   int    `json:"index"`
	Slots   string `json:"slots"`
	Breaker string `json:"breaker"`
	Keys    int    `json:"keys"`
	Ops     int64  `json:"ops"`
	Err     string `json:"error,omitempty"`
}

// ClusterVerdict is the router's /verdict (and /drain) response: the
// single-node document shape — keys merged across members, stats summed —
// plus cluster topology and degradation detail. Partial marks at least one
// member unreachable; its keyspace slices are named in Unreachable and its
// keys are absent from Keys, and the response goes out 206.
type ClusterVerdict struct {
	online.VerdictDoc
	Cluster     bool          `json:"cluster"`
	Partial     bool          `json:"partial,omitempty"`
	Nodes       []NodeVerdict `json:"nodes"`
	Unreachable []string      `json:"unreachable,omitempty"`
}

func (rt *Router) handleVerdict(w http.ResponseWriter, r *http.Request) {
	rt.clusterDoc(w, r, http.MethodGet, "/verdict", rt.cfg.HopTimeout)
}

func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	// Coordinated drain: every member flushes and finalizes; the merged
	// document is final iff every member answered drained.
	rt.clusterDoc(w, r, http.MethodPost, "/drain", rt.cfg.DrainTimeout)
}

func (rt *Router) clusterDoc(w http.ResponseWriter, r *http.Request, method, path string, timeout time.Duration) {
	type memberDoc struct {
		doc online.VerdictDoc
		err error
	}
	docs := make([]memberDoc, len(rt.members))
	var wg sync.WaitGroup
	for i, m := range rt.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			doc, err := rt.memberDoc(r.Context(), m, method, path, timeout)
			docs[i] = memberDoc{doc, err}
		}(i, m)
	}
	wg.Wait()

	out := ClusterVerdict{Cluster: true}
	var reachable []online.VerdictDoc
	for i, md := range docs {
		m := rt.members[i]
		nv := NodeVerdict{
			Node:    m.base,
			Index:   i,
			Slots:   rt.part.Range(i).String(),
			Breaker: m.breaker.State().String(),
		}
		if md.err != nil {
			nv.Err = md.err.Error()
			out.Partial = true
			out.Unreachable = append(out.Unreachable, rt.slice(m))
		} else {
			nv.Keys = len(md.doc.Keys)
			nv.Ops = md.doc.Stats.Ops
			reachable = append(reachable, md.doc)
		}
		out.Nodes = append(out.Nodes, nv)
	}
	out.VerdictDoc = MergeDocs(reachable)
	out.Drained = out.Drained && !out.Partial
	if len(reachable) == 0 {
		rt.degradedVerdicts.Inc()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(out)
		return
	}
	status := http.StatusOK
	if out.Partial {
		rt.degradedVerdicts.Inc()
		status = http.StatusPartialContent
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// MergeDocs merges per-member verdict documents into one cluster-wide
// document: keys key-sorted and folded (disjoint by the routing invariant,
// but duplicates — e.g. a key re-ingested on a second node across separate
// runs — fold commutatively per property), stats folded, K and Properties
// taken from the first document carrying them, Drained the conjunction.
// kavgen -replay's node-list mode uses it to print one final cluster
// verdict after a coordinated member-by-member drain.
func MergeDocs(docs []online.VerdictDoc) online.VerdictDoc {
	var out online.VerdictDoc
	out.Drained = len(docs) > 0
	for _, d := range docs {
		if out.K == 0 {
			out.K = d.K
		}
		if out.Properties == "" {
			out.Properties = d.Properties
		}
		out.Drained = out.Drained && d.Drained
		out.Keys = append(out.Keys, d.Keys...)
		mergeStats(&out.Stats, d.Stats)
		if d.Retired != nil {
			if out.Retired == nil {
				out.Retired = new(trace.RetiredSummary)
			}
			out.Retired.Fold(*d.Retired)
		}
		out.Epochs = append(out.Epochs, d.Epochs...)
	}
	out.Keys = foldKeys(out.Keys)
	out.Epochs = foldEpochs(out.Epochs)
	return out
}

// foldEpochs merges per-member epoch windows by epoch number (epochs are
// trace-time indices, so the same epoch on different nodes is the same
// window over different keys). Members' folded aggregates — already
// multi-epoch — merge into one, keeping the highest folded index. Every
// fold is commutative (sums and maxes), so the result is node-order
// independent, like foldKeys.
func foldEpochs(all []trace.EpochStats) []trace.EpochStats {
	if len(all) == 0 {
		return nil
	}
	byEpoch := make(map[int64]*trace.EpochStats)
	var folded *trace.EpochStats
	for _, es := range all {
		es := es
		if es.Folded {
			if folded == nil {
				folded = &es
			} else {
				folded.Fold(es)
			}
			continue
		}
		if cur, ok := byEpoch[es.Epoch]; ok {
			cur.Fold(es)
		} else {
			byEpoch[es.Epoch] = &es
		}
	}
	out := make([]trace.EpochStats, 0, len(byEpoch)+1)
	if folded != nil {
		out = append(out, *folded)
	}
	eps := make([]int64, 0, len(byEpoch))
	for ep := range byEpoch {
		eps = append(eps, ep)
	}
	sort.Slice(eps, func(a, b int) bool { return eps[a] < eps[b] })
	for _, ep := range eps {
		out = append(out, *byEpoch[ep])
	}
	return out
}

// foldKeys key-sorts the concatenated per-member entries and folds
// duplicates of the same key into one entry. Every per-property fold is
// commutative — max for the k and Δ lower bounds, disjunction for
// saturation, sums for operation and offending-read counts — so the merged
// entry is node-order independent.
func foldKeys(keys []online.KeyStatus) []online.KeyStatus {
	sort.Slice(keys, func(a, b int) bool { return keys[a].Key < keys[b].Key })
	folded := keys[:0]
	for _, ks := range keys {
		if n := len(folded); n > 0 && folded[n-1].Key == ks.Key {
			mergeKeyStatus(&folded[n-1], ks)
			continue
		}
		folded = append(folded, ks)
	}
	return folded
}

// statusRank orders verdict statuses by severity for the duplicate-key fold.
func statusRank(status string) int {
	switch status {
	case "error":
		return 3
	case "violating":
		return 2
	case "indeterminate":
		return 1
	default:
		return 0
	}
}

// mergeKeyStatus folds a duplicate entry for the same key into dst.
func mergeKeyStatus(dst *online.KeyStatus, src online.KeyStatus) {
	dst.Ops += src.Ops
	dst.PendingOps += src.PendingOps
	dst.SmallestK = max(dst.SmallestK, src.SmallestK)
	dst.Saturated = dst.Saturated || src.Saturated
	// A merged entry is only "retired" (verdict final pre-drain) if every
	// copy is.
	dst.Retired = dst.Retired && src.Retired
	if statusRank(src.Status) > statusRank(dst.Status) {
		dst.Status = src.Status
	}
	if dst.Err == "" {
		dst.Err = src.Err
	}
	if src.Violation != nil && (dst.Violation == nil || src.Violation.Seq < dst.Violation.Seq) {
		v := *src.Violation
		dst.Violation = &v
	}
	// Clone before mutating: the pointers are shared with the source
	// documents, which the caller may still hold.
	if src.Delta != nil {
		d := *src.Delta
		if dst.Delta != nil {
			d.SmallestDelta = max(dst.Delta.SmallestDelta, src.Delta.SmallestDelta)
			d.Saturated = dst.Delta.Saturated || src.Delta.Saturated
		}
		dst.Delta = &d
	}
	if src.Regularity != nil {
		r := *src.Regularity
		if dst.Regularity != nil {
			r.IrregularReads += dst.Regularity.IrregularReads
			r.UnsafeReads += dst.Regularity.UnsafeReads
		}
		r.Regular = r.IrregularReads == 0
		r.Safe = r.UnsafeReads == 0
		dst.Regularity = &r
	}
}

// mergeStats folds one member's stream statistics into the cluster total.
// Counters sum; MaxOpenOps is a per-window maximum so it takes the max;
// FirstVerdictOps is meaningless across nodes and stays zero.
func mergeStats(dst *trace.StreamStats, s trace.StreamStats) {
	dst.Ops += s.Ops
	dst.Keys += s.Keys
	dst.Segments += s.Segments
	dst.Merges += s.Merges
	dst.StaleReads += s.StaleReads
	dst.SaturatedKeys += s.SaturatedKeys
	dst.PeakBufferedOps += s.PeakBufferedOps
	dst.Spills += s.Spills
	dst.OpsSpilled += s.OpsSpilled
	dst.SpillLoads += s.SpillLoads
	dst.RetiredKeys += s.RetiredKeys
	dst.Retirements += s.Retirements
	dst.Readmissions += s.Readmissions
	if s.MaxOpenOps > dst.MaxOpenOps {
		dst.MaxOpenOps = s.MaxOpenOps
	}
}

func (rt *Router) handleVerdictKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	m := rt.members[rt.part.OwnerString(key)]
	hctx, cancel := context.WithTimeout(r.Context(), rt.cfg.HopTimeout)
	defer cancel()
	// PathValue decoded the segment; re-escape it for the member URL so
	// keys containing reserved bytes ('%', '?', '#') survive the hop.
	req, err := http.NewRequestWithContext(hctx, http.MethodGet, m.base+"/verdict/"+url.PathEscape(key), nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.degradedVerdicts.Inc()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(DegradedReject{
			IngestReject: online.IngestReject{
				Code:  "degraded",
				Error: fmt.Sprintf("key %q owner unreachable: %v", key, err),
			},
			Unreachable: []string{rt.slice(m)},
		})
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.reg.WriteTo(w)
	// Relabeled member expositions follow the router's own: one exposition,
	// every member sample tagged with its node label, HELP/TYPE headers
	// deduplicated across members.
	seen := map[string]bool{}
	for _, m := range rt.members {
		hctx, cancel := context.WithTimeout(r.Context(), rt.cfg.HopTimeout)
		req, err := http.NewRequestWithContext(hctx, http.MethodGet, m.base+"/metrics", nil)
		var resp *http.Response
		if err == nil {
			resp, err = rt.cfg.Client.Do(req)
		}
		if err != nil {
			cancel()
			fmt.Fprintf(w, "# node %s unreachable: %s\n", m.label, strings.ReplaceAll(err.Error(), "\n", " "))
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		cancel()
		if rerr != nil {
			fmt.Fprintf(w, "# node %s unreachable: %s\n", m.label, strings.ReplaceAll(rerr.Error(), "\n", " "))
			continue
		}
		metrics.WriteRelabeled(w, body, `node="`+m.label+`"`, seen)
	}
}

// NodeHealth is one member's entry in the router's /healthz document.
type NodeHealth struct {
	Node    string `json:"node"`
	Index   int    `json:"index"`
	Slots   string `json:"slots"`
	Breaker string `json:"breaker"`
}

// RouterHealth is the router-mode /healthz body.
type RouterHealth struct {
	Status string       `json:"status"` // "ok" | "degraded"
	Mode   string       `json:"mode"`   // always "router"
	Nodes  []NodeHealth `json:"nodes"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := RouterHealth{Status: "ok", Mode: "router"}
	for i, m := range rt.members {
		state := m.breaker.State()
		if state != BreakerClosed {
			h.Status = "degraded"
		}
		h.Nodes = append(h.Nodes, NodeHealth{
			Node: m.base, Index: i, Slots: rt.part.Range(i).String(), Breaker: state.String(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h)
}

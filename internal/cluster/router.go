package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
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
	// HopTimeout bounds each forwarded request (0: DefaultHopTimeout).
	HopTimeout time.Duration
	// ProbeInterval spaces health probes per member (0:
	// DefaultProbeInterval).
	ProbeInterval time.Duration
	// ForwardRetries caps retry attempts per forwarded sub-batch beyond
	// the first (0: DefaultForwardRetries).
	ForwardRetries int
	// Client overrides the forwarding HTTP client (tests inject one wired
	// to httptest servers). Per-hop deadlines come from request contexts,
	// so the client needs no timeout of its own.
	Client *http.Client
	// Logf, when set, receives router event lines (probe transitions,
	// degraded requests).
	Logf func(format string, args ...any)
}

// The router's defaults, each stated once: withDefaults and kavserve's
// -route flags both read them. The hop and drain deadlines also bound what
// kavgen -replay fetches; a drain flushes every member's verification
// pipeline, so it legitimately outlives a hop.
const (
	DefaultHopTimeout     = 5 * time.Second
	DefaultDrainTimeout   = 60 * time.Second
	DefaultProbeInterval  = time.Second
	DefaultForwardRetries = 6
)

func (c *Config) withDefaults() Config {
	d := *c
	if d.HopTimeout <= 0 {
		d.HopTimeout = DefaultHopTimeout
	}
	if d.ProbeInterval <= 0 {
		d.ProbeInterval = DefaultProbeInterval
	}
	if d.ForwardRetries <= 0 {
		d.ForwardRetries = DefaultForwardRetries
	}
	if d.Client == nil {
		d.Client = &http.Client{}
	}
	if d.Logf == nil {
		d.Logf = func(string, ...any) {}
	}
	return d
}

// Retry pacing for forwarded sub-batches, and each member's circuit
// breaker: it opens after routerBreakerThreshold consecutive failures and
// lets one trial through after routerBreakerCooldown. Variables so tests
// shrink them.
var (
	routerRetryBase        = 50 * time.Millisecond
	routerRetryMax         = 2 * time.Second
	routerBreakerThreshold = 3
	routerBreakerCooldown  = 3 * time.Second
)

// Router is the cluster-mode ingress: it owns no verification state of its
// own, only the partition map and, per member, a circuit breaker and the
// Sender that delivers that member's share of every batch exactly once. The
// router must be the sole ingress to its members (see Sender's contract).
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

// member is one node: its place in the partition and the Sender (with the
// breaker and the forwarding counters hanging off it) that reaches it.
type member struct {
	*Sender
	idx           int
	label         string // metrics label value: host:port
	probeFailures *metrics.Counter
}

// NewRouter builds a Router over the given members. Call Start to launch
// health probes and Close to stop them.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no member nodes")
	}
	part, err := NewPartition(len(cfg.Nodes))
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
			// What the member holds already is unknown (nil): it is read off
			// its /verdict before the first forward.
			Sender: NewSender(base, cfg.Client, cfg.ForwardRetries+1, nil),
			idx:    i,
			label:  strings.TrimPrefix(strings.TrimPrefix(base, "https://"), "http://"),
		}
		m.HopTimeout = cfg.HopTimeout
		m.RetryBase, m.RetryMax = routerRetryBase, routerRetryMax
		m.Breaker = NewBreaker(routerBreakerThreshold, routerBreakerCooldown)
		lbl := `node="` + m.label + `"`
		m.Batches = rt.reg.CounterL("kavserve_router_forward_batches_total",
			"Sub-batches forwarded cleanly, per member.", lbl)
		m.Ops = rt.reg.CounterL("kavserve_router_forward_ops_total",
			"Operations forwarded and acknowledged, per member.", lbl)
		m.Bytes = rt.reg.CounterL("kavserve_router_forward_bytes_total",
			"Request-body bytes forwarded, per member (includes retries).", lbl)
		m.Retries = rt.reg.CounterL("kavserve_router_forward_retries_total",
			"Forward attempts beyond the first, per member.", lbl)
		m.Reconciles = rt.reg.CounterL("kavserve_router_reconciles_total",
			"Ambiguous forwards reconciled against the member's /verdict, per member.", lbl)
		m.probeFailures = rt.reg.CounterL("kavserve_router_probe_failures_total",
			"Failed health probes, per member.", lbl)
		rt.reg.GaugeL("kavserve_router_breaker_state",
			"Member circuit breaker state (0 closed, 1 half-open, 2 open).", lbl,
			func() float64 { return float64(m.Breaker.State()) })
		rt.reg.CounterFuncL("kavserve_router_hop_seconds_total",
			"Cumulative wall time spent on forwarded hops, per member.", lbl,
			func() float64 { return float64(m.hopNanos.Load()) / 1e9 })
		rt.members = append(rt.members, m)
	}
	return rt, nil
}

// Partition exposes the router's key→node map (kavserve's router mode logs
// the slot layout at startup). It is NewPartition(len(Config.Nodes)), the map
// kavgen -replay pre-routes a node list with.
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
		before := m.Breaker.State()
		if err := rt.probe(m); err != nil {
			m.probeFailures.Inc()
			m.Breaker.Failure()
			if before == BreakerClosed && m.Breaker.State() == BreakerOpen {
				rt.cfg.Logf("cluster: node %d (%s) unhealthy, breaker open: %v", m.idx, m.Base, err)
			}
			continue
		}
		m.Breaker.Success()
		if before != BreakerClosed {
			// Re-admission: the member may have restarted with recovered or
			// empty state, so the acked baseline must be refreshed before
			// the next forward trims anything.
			m.stale.Store(true)
			rt.cfg.Logf("cluster: node %d (%s) healthy again, breaker closed", m.idx, m.Base)
		}
	}
}

func (rt *Router) probe(m *member) error {
	return m.do(context.Background(), rt.cfg.HopTimeout, http.MethodGet, "/healthz", "", nil, func(resp *http.Response) error {
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz: %s", resp.Status)
		}
		return nil
	})
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
// IngestReject shape plus the failed keyspace slices. Carrying Slices breaks
// one single-node invariant on purpose — Ingested then counts operations
// accepted across ALL members and is NOT a prefix of the request, because
// the batch was split per owner. That one rule is keyed on the field, never
// on the code: a client that sees Slices must reconcile per key against
// /verdict rather than prefix-trim (Sender does).
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

// slice names a member's keyspace slice for degradation reports.
func (rt *Router) slice(m *member) string {
	return fmt.Sprintf("node %d (%s): %s", m.idx, m.Base, rt.part.Range(m.idx))
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	rt.ingestReqs.Inc()
	ops, isWire, off, err := decodeBatch(r)
	if err != nil {
		// Decode-fully-before-forwarding means a malformed batch rejects
		// atomically: nothing was forwarded, Ingested is genuinely 0.
		row := online.RejectMalformed
		online.WriteReject(w, row, online.IngestReject{Code: row.Code, Error: err.Error(), Offset: off})
		return
	}
	sub := rt.part.Split(ops)
	results := make([]struct {
		acked int64
		row   online.Reject
		err   error
	}, len(rt.members))
	var wg sync.WaitGroup
	for n, batch := range sub {
		if len(batch) == 0 {
			continue
		}
		wg.Add(1)
		go func(n int, batch []wire.Op) {
			defer wg.Done()
			res := &results[n]
			res.acked, res.row, res.err = rt.members[n].Send(r.Context(), batch, isWire)
		}(n, batch)
	}
	wg.Wait()

	// Degraded: healthy slices kept ingesting; name the failed ones, each
	// with its member's own reject code so the machine-readable diagnostic
	// survives the merge. When every failed slice gave the same row the
	// router passes that row on (code and status) instead of the generic
	// degraded one. Retry-After is set only if some failed slice may clear:
	// a row that reaches this point is one Send would not resend — it retries
	// the others itself — while a failure without a row (transport, breaker,
	// attempts spent) may well succeed next time.
	var reject DegradedReject
	var row online.Reject
	var msgs []string
	mayClear := false
	for n, res := range results {
		reject.Ingested += res.acked
		if res.err == nil {
			continue
		}
		if len(msgs) == 0 {
			row = res.row
		} else if res.row != row {
			row = online.RejectDegraded
		}
		mayClear = mayClear || res.row.Code == ""
		slice := rt.slice(rt.members[n])
		reject.Unreachable = append(reject.Unreachable, slice)
		reject.Slices = append(reject.Slices, DegradedSlice{Slice: slice, Code: res.row.Code, Error: res.err.Error()})
		msgs = append(msgs, fmt.Sprintf("%s: %v", slice, res.err))
	}
	if len(msgs) == 0 {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"ingested\": %d}\n", reject.Ingested)
		return
	}
	if row.Code == "" {
		row = online.RejectDegraded
	}
	row.RetryAfter = mayClear
	reject.Code = row.Code
	reject.Error = "degraded: " + strings.Join(msgs, "; ")
	rt.degradedIngests.Inc()
	rt.cfg.Logf("cluster: degraded ingest (%d/%d ops accepted): %s", reject.Ingested, len(ops), reject.Error)
	online.WriteReject(w, row, reject)
}

// decodeBatch reads the whole request body into keyed operations, codec by
// Content-Type, before anything is forwarded.
func decodeBatch(r *http.Request) (ops []wire.Op, isWire bool, off *int64, err error) {
	if online.WantsWire(r) {
		dec := wire.NewDecoder(r.Body)
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
	ops, err = ParseText(r.Body)
	return ops, false, nil, err
}

// ParseText reads the keyed text trace format into operations, one element
// per operation however they were grouped into lines (the grammar allows
// ';'-separated multi-op lines that mix keys, and routing is per key).
func ParseText(r io.Reader) ([]wire.Op, error) {
	var ops []wire.Op
	err := trace.ParseStreamBytes(r, func(key []byte, op history.Operation) error {
		ops = append(ops, wire.Op{Key: string(key), Op: op})
		return nil
	})
	return ops, err
}

// NodeVerdict is one member's entry in a ClusterVerdict.
type NodeVerdict struct {
	NodeHealth
	Keys int    `json:"keys"`
	Ops  int64  `json:"ops"`
	Err  string `json:"error,omitempty"`
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
	rt.clusterDoc(w, r, http.MethodPost, "/drain", DefaultDrainTimeout)
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
			doc, err := m.Doc(r.Context(), method, path, timeout)
			docs[i] = memberDoc{doc, err}
		}(i, m)
	}
	wg.Wait()

	out := ClusterVerdict{Cluster: true}
	var reachable []online.VerdictDoc
	for i, md := range docs {
		nv := NodeVerdict{NodeHealth: rt.nodeHealth(i)}
		if md.err != nil {
			nv.Err = md.err.Error()
			out.Partial = true
			out.Unreachable = append(out.Unreachable, rt.slice(rt.members[i]))
		} else {
			nv.Keys = len(md.doc.Keys)
			nv.Ops = md.doc.Stats.Ops
			reachable = append(reachable, md.doc)
		}
		out.Nodes = append(out.Nodes, nv)
	}
	out.VerdictDoc = MergeDocs(reachable)
	out.Drained = out.Drained && !out.Partial
	status := http.StatusOK
	if out.Partial {
		rt.degradedVerdicts.Inc()
		status = http.StatusPartialContent
		if len(reachable) == 0 {
			status = http.StatusServiceUnavailable
		}
	}
	online.WriteJSON(w, status, out)
}

// MergeDocs merges per-member verdict documents into one cluster-wide
// document: keys key-sorted and folded (disjoint by the routing invariant,
// but duplicates — e.g. a key re-ingested on a second node across separate
// runs — fold through KeyStatus.Fold), stats folded, epoch windows folded
// through one trace.EpochWindows, K and Properties taken from the first
// document carrying them, Drained the conjunction.
// kavgen -replay's node-list mode uses it to print one final cluster
// verdict after a coordinated member-by-member drain.
func MergeDocs(docs []online.VerdictDoc) online.VerdictDoc {
	var out online.VerdictDoc
	var epochs trace.EpochWindows
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
		out.Stats.Fold(d.Stats)
		if d.Retired != nil {
			if out.Retired == nil {
				out.Retired = new(trace.RetiredSummary)
			}
			out.Retired.Fold(*d.Retired)
		}
		for _, es := range d.Epochs {
			epochs.Fold(es)
		}
	}
	out.Keys = foldKeys(out.Keys, out.K)
	out.Epochs = epochs.List()
	return out
}

// foldKeys key-sorts the concatenated per-member entries and folds
// duplicates of the same key into one entry through KeyStatus.Fold, which is
// commutative, so the merged entry is node-order independent.
func foldKeys(keys []online.KeyStatus, k int) []online.KeyStatus {
	sort.Slice(keys, func(a, b int) bool { return keys[a].Key < keys[b].Key })
	folded := keys[:0]
	for _, ks := range keys {
		if n := len(folded); n > 0 && folded[n-1].Key == ks.Key {
			folded[n-1].Fold(ks, k)
			continue
		}
		folded = append(folded, ks)
	}
	return folded
}

func (rt *Router) handleVerdictKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	m := rt.members[rt.part.OwnerString(key)]
	// PathValue decoded the segment; re-escape it for the member URL so
	// keys containing reserved bytes ('%', '?', '#') survive the hop.
	err := m.do(r.Context(), rt.cfg.HopTimeout, http.MethodGet, "/verdict/"+url.PathEscape(key), "", nil, func(resp *http.Response) error {
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return nil
	})
	if err != nil {
		rt.degradedVerdicts.Inc()
		online.WriteJSON(w, http.StatusServiceUnavailable, DegradedReject{
			IngestReject: online.IngestReject{
				Code:  online.RejectDegraded.Code,
				Error: fmt.Sprintf("key %q owner unreachable: %v", key, err),
			},
			Unreachable: []string{rt.slice(m)},
		})
	}
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.reg.WriteTo(w)
	// Relabeled member expositions follow the router's own: one exposition,
	// every member sample tagged with its node label, HELP/TYPE headers
	// deduplicated across members.
	seen := map[string]bool{}
	for _, m := range rt.members {
		err := m.do(r.Context(), rt.cfg.HopTimeout, http.MethodGet, "/metrics", "", nil, func(resp *http.Response) error {
			body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
			if err == nil {
				metrics.WriteRelabeled(w, body, `node="`+m.label+`"`, seen)
			}
			return err
		})
		if err != nil {
			fmt.Fprintf(w, "# node %s unreachable: %s\n", m.label, strings.ReplaceAll(err.Error(), "\n", " "))
		}
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

func (rt *Router) nodeHealth(i int) NodeHealth {
	m := rt.members[i]
	return NodeHealth{Node: m.Base, Index: i, Slots: rt.part.Range(i).String(), Breaker: m.Breaker.State().String()}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := RouterHealth{Status: "ok", Mode: "router"}
	for i := range rt.members {
		nh := rt.nodeHealth(i)
		if nh.Breaker != BreakerClosed.String() {
			h.Status = "degraded"
		}
		h.Nodes = append(h.Nodes, nh)
	}
	online.WriteJSON(w, http.StatusOK, h)
}

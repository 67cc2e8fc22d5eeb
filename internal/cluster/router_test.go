package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kat"
	"kat/internal/chaosproxy"
	"kat/internal/history"
	"kat/internal/online"
	"kat/internal/trace"
	"kat/internal/wire"
)

func fastRouterRetries(t *testing.T) {
	t.Helper()
	base, max := routerRetryBase, routerRetryMax
	routerRetryBase, routerRetryMax = time.Millisecond, 5*time.Millisecond
	t.Cleanup(func() { routerRetryBase, routerRetryMax = base, max })
}

// setRouterBreaker builds the routers of one test with the given breaker
// tuning.
func setRouterBreaker(t *testing.T, threshold int, cooldown time.Duration) {
	t.Helper()
	th, cd := routerBreakerThreshold, routerBreakerCooldown
	routerBreakerThreshold, routerBreakerCooldown = threshold, cooldown
	t.Cleanup(func() { routerBreakerThreshold, routerBreakerCooldown = th, cd })
}

// testCluster is N online members behind httptest servers plus a router
// fronting them (probes not started; tests that need them call Start).
type testCluster struct {
	router   *Router
	rts      *httptest.Server
	members  []*online.Server
	backends []*httptest.Server
}

func newTestCluster(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler, cfg Config) *testCluster {
	return newTestClusterMembers(t, n, wrap, cfg, online.Config{K: 2})
}

// newTestClusterMembers is newTestCluster with an explicit member
// configuration (per-property sessions, horizons, ...).
func newTestClusterMembers(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler, cfg Config, mcfg online.Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		srv := online.New(mcfg)
		h := http.Handler(srv.Handler())
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		tc.members = append(tc.members, srv)
		tc.backends = append(tc.backends, ts)
		cfg.Nodes = append(cfg.Nodes, ts.URL)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	tc.router = rt
	tc.rts = httptest.NewServer(rt.Handler())
	t.Cleanup(tc.rts.Close)
	return tc
}

// clusterTrace builds writes over `keys` keys, `opsPerKey` each,
// interleaved, and the per-key count map.
func clusterTrace(keys, opsPerKey int) (string, map[string]int) {
	var b strings.Builder
	want := map[string]int{}
	for i := 0; i < opsPerKey; i++ {
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("k%d", k)
			fmt.Fprintf(&b, "w %s %d %d %d\n", key, i+1, 2*i, 2*i+1)
			want[key]++
		}
	}
	return b.String(), want
}

func postIngestText(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, payload
}

func getClusterVerdict(t *testing.T, url, path string, wantStatus int) ClusterVerdict {
	t.Helper()
	var resp *http.Response
	var err error
	if path == "/drain" {
		resp, err = http.Post(url+path, "", nil)
	} else {
		resp, err = http.Get(url + path)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: %s (want %d): %.300s", path, resp.Status, wantStatus, body)
	}
	var doc ClusterVerdict
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("%s: decoding: %v: %.300s", path, err, body)
	}
	return doc
}

// TestRouterSplitsByOwnerAndMergesVerdicts is the core routing invariant:
// a mixed-key batch splits so every key lands wholly on its partition
// owner, and the merged cluster verdict covers every key exactly once.
func TestRouterSplitsByOwnerAndMergesVerdicts(t *testing.T) {
	fastRouterRetries(t)
	tc := newTestCluster(t, 3, nil, Config{})
	text, want := clusterTrace(12, 10)
	resp, payload := postIngestText(t, tc.rts.URL, text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, payload)
	}
	if !strings.Contains(string(payload), `"ingested": 120`) {
		t.Fatalf("ingest ack = %s, want 120", payload)
	}

	doc := getClusterVerdict(t, tc.rts.URL, "/drain", http.StatusOK)
	if !doc.Cluster || !doc.Drained || doc.Partial {
		t.Fatalf("drain doc: cluster=%v drained=%v partial=%v", doc.Cluster, doc.Drained, doc.Partial)
	}
	if doc.K != 2 {
		t.Fatalf("merged K = %d, want 2", doc.K)
	}
	got := map[string]int{}
	for _, ks := range doc.Keys {
		if _, dup := got[ks.Key]; dup {
			t.Fatalf("key %s appears twice in merged verdict", ks.Key)
		}
		got[ks.Key] = ks.Ops
	}
	for key, n := range want {
		if got[key] != n {
			t.Fatalf("key %s: %d ops, want %d (all: %v)", key, got[key], n, got)
		}
	}
	if doc.Stats.Ops != 120 {
		t.Fatalf("merged stats ops = %d, want 120", doc.Stats.Ops)
	}

	// Placement: every key sits wholly on its owner, nowhere else.
	for i, srv := range tc.members {
		for _, ks := range srv.Verdict().Keys {
			if owner := tc.router.Partition().OwnerString(ks.Key); owner != i {
				t.Fatalf("key %s on node %d, owner is %d", ks.Key, i, owner)
			}
			if ks.Ops != want[ks.Key] {
				t.Fatalf("key %s on node %d has %d ops, want %d", ks.Key, i, ks.Ops, want[ks.Key])
			}
		}
	}
}

// TestRouterWireCodecPreserved: a wire-encoded batch splits and forwards
// as wire frames (member wire-codec byte counters move, text stays 0).
func TestRouterWireCodecPreserved(t *testing.T) {
	fastRouterRetries(t)
	tc := newTestCluster(t, 2, nil, Config{})
	text, want := clusterTrace(6, 8)
	var ops []wire.Op
	if err := trace.ParseStreamBytes(strings.NewReader(text), func(key []byte, op history.Operation) error {
		ops = append(ops, wire.Op{Key: string(key), Op: op})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	body, err := wire.EncodeSelfContained(nil, ops, false)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.rts.URL+"/ingest", wire.ContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wire ingest: %s: %s", resp.Status, payload)
	}
	doc := getClusterVerdict(t, tc.rts.URL, "/drain", http.StatusOK)
	got := map[string]int{}
	for _, ks := range doc.Keys {
		got[ks.Key] = ks.Ops
	}
	for key, n := range want {
		if got[key] != n {
			t.Fatalf("key %s: %d ops, want %d", key, got[key], n)
		}
	}
	// Codec preserved end to end: members saw wire bytes, not text.
	for i, ts := range tc.backends {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		exposition, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(exposition), `kavserve_ingest_bytes_total{codec="text"} 0`) == false {
			t.Fatalf("node %d ingested text bytes for a wire batch:\n%s", i, exposition)
		}
	}
}

// TestRouterBreakerDefaults: with no test tuning, every member's breaker
// opens after 3 consecutive failures and admits a trial 3 s later.
func TestRouterBreakerDefaults(t *testing.T) {
	rt, err := NewRouter(Config{Nodes: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i, m := range rt.members {
		if b := m.Breaker; b.threshold != 3 || b.cooldown != 3*time.Second {
			t.Errorf("member %d breaker: threshold %d, cooldown %v; want 3, 3s", i, b.threshold, b.cooldown)
		}
	}
}

// TestRouterDegradedIngest: with one member down, healthy slices keep
// ingesting and the reject is typed "degraded" naming the dead slice, with
// Ingested counting cross-node accepted ops (not a prefix).
func TestRouterDegradedIngest(t *testing.T) {
	fastRouterRetries(t)
	setRouterBreaker(t, 2, routerBreakerCooldown)
	tc := newTestCluster(t, 3, nil, Config{ForwardRetries: 1, HopTimeout: 2 * time.Second})
	tc.backends[1].Close() // node 1 is gone

	text, want := clusterTrace(12, 5)
	resp, payload := postIngestText(t, tc.rts.URL, text)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest: %s (want 503): %s", resp.Status, payload)
	}
	var reject DegradedReject
	if err := json.Unmarshal(payload, &reject); err != nil {
		t.Fatalf("decoding reject: %v: %s", err, payload)
	}
	if reject.Code != "degraded" {
		t.Fatalf("reject code = %q, want degraded", reject.Code)
	}
	if len(reject.Unreachable) != 1 || !strings.Contains(reject.Unreachable[0], "node 1") {
		t.Fatalf("unreachable = %v, want node 1's slice", reject.Unreachable)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded reject without Retry-After")
	}

	// Healthy nodes hold exactly their slices' ops; the dead node's keys
	// account for the shortfall reported in Ingested.
	part := tc.router.Partition()
	var healthyOps int64
	for key, n := range want {
		if part.OwnerString(key) != 1 {
			healthyOps += int64(n)
		}
	}
	if reject.Ingested != healthyOps {
		t.Fatalf("reject.Ingested = %d, want %d (healthy slices only)", reject.Ingested, healthyOps)
	}

	// The partial verdict is typed: 206, Partial, dead slice named, and
	// only healthy keys present.
	doc := getClusterVerdict(t, tc.rts.URL, "/verdict", http.StatusPartialContent)
	if !doc.Partial || len(doc.Unreachable) != 1 {
		t.Fatalf("partial=%v unreachable=%v, want partial with one slice", doc.Partial, doc.Unreachable)
	}
	for _, ks := range doc.Keys {
		if part.OwnerString(ks.Key) == 1 {
			t.Fatalf("dead node's key %s present in partial verdict", ks.Key)
		}
	}
	var deadKey, liveKey string
	for key := range want {
		if part.OwnerString(key) == 1 {
			deadKey = key
		} else {
			liveKey = key
		}
	}
	// Per-key lookups: owner down → typed 503; healthy owner → proxied 200.
	resp2, err := http.Get(tc.rts.URL + "/verdict/" + deadKey)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body2), "degraded") {
		t.Fatalf("dead key lookup: %s: %s", resp2.Status, body2)
	}
	resp3, err := http.Get(tc.rts.URL + "/verdict/" + liveKey)
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK || !strings.Contains(string(body3), `"key"`) {
		t.Fatalf("live key lookup: %s: %s", resp3.Status, body3)
	}
}

// TestRouterChaosForwardingIsExact drives batches through a router whose
// middle member sits behind a chaos proxy injecting every ambiguity class.
// The router's retry+reconcile machinery must absorb all of it: clients
// see clean 200s and per-key counts come out exact (nothing lost, nothing
// double-ingested).
func TestRouterChaosForwardingIsExact(t *testing.T) {
	fastRouterRetries(t)
	var proxy *chaosproxy.Proxy
	tc := newTestCluster(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		proxy = chaosproxy.New(h, chaosproxy.Faults{Shed503: 2, Reset: 2, Drop: 2, Torn: 2})
		return proxy
	}, Config{})

	text, want := clusterTrace(9, 8)
	lines := strings.SplitAfter(strings.TrimSuffix(text, "\n"), "\n")
	const batches = 6
	per := (len(lines) + batches - 1) / batches
	for off := 0; off < len(lines); off += per {
		end := min(off+per, len(lines))
		resp, payload := postIngestText(t, tc.rts.URL, strings.Join(lines[off:end], ""))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch at %d: %s: %s", off, resp.Status, payload)
		}
	}
	if proxy.InjectedTotal() == 0 {
		t.Fatal("chaos proxy injected nothing; test proves nothing")
	}
	doc := getClusterVerdict(t, tc.rts.URL, "/drain", http.StatusOK)
	got := map[string]int{}
	for _, ks := range doc.Keys {
		got[ks.Key] = ks.Ops
	}
	for key, n := range want {
		if got[key] != n {
			t.Fatalf("key %s: %d ops, want exactly %d (chaos broke exactness; injected %d faults)",
				key, got[key], n, proxy.InjectedTotal())
		}
	}
	m := tc.router.members[1]
	if m.Retries.Value() == 0 {
		t.Fatal("no forward retries recorded despite chaos")
	}
	if m.Reconciles.Value() == 0 {
		t.Fatal("no reconciles recorded despite drop/torn faults")
	}
}

// TestRouterAmbiguousForwardInvalidatesBaseline reproduces the stale-acked
// hazard: a forward whose in-flight batch lands on the member but whose
// reconcile never resolves (the member's /verdict stays down until the
// retry budget is spent) must invalidate the router's acked baseline.
// Otherwise a later forward's reconcile computes its skip from counts that
// include the orphaned batch and silently trims the NEW batch's leading
// ops as "already applied", losing them.
func TestRouterAmbiguousForwardInvalidatesBaseline(t *testing.T) {
	fastRouterRetries(t)
	setRouterBreaker(t, 100, routerBreakerCooldown)
	var mode atomic.Int32 // 0: normal; 1: ingest applies then dies + verdict 500s; 2: one pre-apply reset
	tc := newTestCluster(t, 1, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case mode.Load() == 1 && r.URL.Path == "/ingest":
				// Apply the batch, then kill the connection: a transport
				// failure on operations that actually landed.
				h.ServeHTTP(httptest.NewRecorder(), r)
				if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
					conn.Close()
				}
			case mode.Load() == 1 && r.URL.Path == "/verdict":
				http.Error(w, "verdict down", http.StatusInternalServerError)
			case mode.Load() == 2 && r.URL.Path == "/ingest":
				// One connection reset before the member sees anything,
				// forcing the next forward through its reconcile path.
				mode.Store(0)
				if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
					conn.Close()
				}
			default:
				h.ServeHTTP(w, r)
			}
		})
	}, Config{ForwardRetries: 2})

	// Warm-up establishes a clean acked baseline.
	if resp, payload := postIngestText(t, tc.rts.URL, "w k 1 0 1\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up ingest: %s: %s", resp.Status, payload)
	}
	// B1 lands but every reconcile fails: the router gives up with the
	// batch's fate unresolved and must not trust its acked counts again
	// until it re-reads /verdict.
	mode.Store(1)
	if resp, payload := postIngestText(t, tc.rts.URL, "w k 2 2 3\nw k 3 4 5\n"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ambiguous give-up: %s (want 503): %s", resp.Status, payload)
	}
	// B2 hits one pre-apply reset, forcing a reconcile. A stale baseline
	// would attribute B1's two orphaned ops to B2 and drop B2 entirely; the
	// refreshed baseline must deliver B2 exactly.
	mode.Store(2)
	if resp, payload := postIngestText(t, tc.rts.URL, "w k 4 6 7\nw k 5 8 9\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery ingest: %s: %s", resp.Status, payload)
	}
	doc := getClusterVerdict(t, tc.rts.URL, "/drain", http.StatusOK)
	if len(doc.Keys) != 1 || doc.Keys[0].Ops != 5 {
		t.Fatalf("drained keys = %+v, want k with exactly 5 ops (1 warm-up + 2 orphaned + 2 retried)", doc.Keys)
	}
}

// TestRouterStickyMemberRejectSurfacesCode: a typed sticky member reject
// (out_of_order here) must keep its code and status through the router —
// not be relabeled "degraded" with a Retry-After inviting useless retries.
func TestRouterStickyMemberRejectSurfacesCode(t *testing.T) {
	fastRouterRetries(t)
	// MinSegmentOps 1 commits a cut at every quiescent instant, making the
	// out-of-order arrival below detectable (mirrors TestIngestErrors).
	srv := online.New(online.Config{K: 2, Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	rt, err := NewRouter(Config{Nodes: []string{ts.URL}, ForwardRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	for _, line := range []string{"w k 1 10 11\n", "w k 2 30 31\n"} {
		if resp, payload := postIngestText(t, rts.URL, line); resp.StatusCode != http.StatusOK {
			t.Fatalf("in-order ingest: %s: %s", resp.Status, payload)
		}
	}
	// Start regresses behind a committed cut: the member answers 409
	// out_of_order, which is sticky — resending the same batch cannot help.
	resp, payload := postIngestText(t, rts.URL, "w k 3 5 6\n")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("out-of-order ingest: %s (want 409): %s", resp.Status, payload)
	}
	var reject DegradedReject
	if err := json.Unmarshal(payload, &reject); err != nil {
		t.Fatalf("decoding reject: %v: %s", err, payload)
	}
	if reject.Code != "out_of_order" {
		t.Fatalf("reject code = %q, want out_of_order", reject.Code)
	}
	if len(reject.Slices) != 1 || reject.Slices[0].Code != "out_of_order" {
		t.Fatalf("slices = %+v, want one out_of_order slice", reject.Slices)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Fatal("sticky reject carried Retry-After")
	}
}

// TestRouterVerdictKeyEscaped: per-key lookups for keys containing URL
// reserved bytes must survive the router → member hop re-escaped.
func TestRouterVerdictKeyEscaped(t *testing.T) {
	fastRouterRetries(t)
	tc := newTestCluster(t, 2, nil, Config{})
	const key = "k%2?x"
	if resp, payload := postIngestText(t, tc.rts.URL, "w "+key+" 1 0 1\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, payload)
	}
	resp, err := http.Get(tc.rts.URL + "/verdict/" + url.PathEscape(key))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("escaped key lookup: %s: %s", resp.Status, body)
	}
	var status struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatalf("decoding key status: %v: %s", err, body)
	}
	if status.Key != key {
		t.Fatalf("key status for %q, want %q: %s", status.Key, key, body)
	}
}

// TestRouterMetricsMergesMembers: /metrics serves the router's own
// families plus every member's exposition relabeled with node="...", with
// HELP headers deduplicated.
func TestRouterMetricsMergesMembers(t *testing.T) {
	fastRouterRetries(t)
	tc := newTestCluster(t, 2, nil, Config{})
	text, _ := clusterTrace(4, 3)
	resp, payload := postIngestText(t, tc.rts.URL, text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, payload)
	}
	mresp, err := http.Get(tc.rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text = string(body)
	for _, wantSub := range []string{
		"kavserve_router_nodes 2",
		"kavserve_router_ingest_requests_total 1",
		`kavserve_router_forward_ops_total{node="`,
		`kavserve_router_breaker_state{node="`,
		`kavserve_ingest_requests_total{node="`,
	} {
		if !strings.Contains(text, wantSub) {
			t.Fatalf("metrics missing %q:\n%.2000s", wantSub, text)
		}
	}
	if n := strings.Count(text, "# HELP kavserve_ingest_requests_total "); n != 1 {
		t.Fatalf("member HELP header appears %d times, want 1 (dedup broken)", n)
	}
}

// TestRouterDrainingMembersSurfaceTerminalCode: once every member is
// draining, further ingest through the router answers 409 "draining" so
// clients stop rather than burn retries on a terminal condition.
func TestRouterDrainingMembersSurfaceTerminalCode(t *testing.T) {
	fastRouterRetries(t)
	tc := newTestCluster(t, 2, nil, Config{ForwardRetries: 1})
	text, _ := clusterTrace(4, 2)
	if resp, payload := postIngestText(t, tc.rts.URL, text); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, payload)
	}
	getClusterVerdict(t, tc.rts.URL, "/drain", http.StatusOK)
	resp, payload := postIngestText(t, tc.rts.URL, text)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-drain ingest: %s (want 409): %s", resp.Status, payload)
	}
	var reject DegradedReject
	if err := json.Unmarshal(payload, &reject); err != nil {
		t.Fatal(err)
	}
	if reject.Code != "draining" {
		t.Fatalf("post-drain code = %q, want draining", reject.Code)
	}
}

// TestRouterMalformedBatchRejectsAtomically: a batch that fails to decode
// forwards nothing anywhere — Ingested is genuinely zero.
func TestRouterMalformedBatchRejectsAtomically(t *testing.T) {
	tc := newTestCluster(t, 2, nil, Config{})
	resp, payload := postIngestText(t, tc.rts.URL, "w k0 1 0 1\nthis is not a trace line\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest: %s: %s", resp.Status, payload)
	}
	var reject online.IngestReject
	if err := json.Unmarshal(payload, &reject); err != nil {
		t.Fatal(err)
	}
	if reject.Code != "malformed" || reject.Ingested != 0 {
		t.Fatalf("reject = %+v, want malformed/0", reject)
	}
	for i, srv := range tc.members {
		if err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
		if keys := srv.Verdict().Keys; len(keys) != 0 {
			t.Fatalf("node %d ingested part of a malformed batch: %+v", i, keys)
		}
	}
}

// TestRouterHealthzReportsTopology: the router's own /healthz names every
// member, its slice, and its breaker state.
func TestRouterHealthzReportsTopology(t *testing.T) {
	tc := newTestCluster(t, 3, nil, Config{})
	resp, err := http.Get(tc.rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Mode != "router" || len(h.Nodes) != 3 {
		t.Fatalf("healthz = %+v", h)
	}
	for i, n := range h.Nodes {
		if n.Index != i || n.Breaker != "closed" || !strings.HasPrefix(n.Slots, "slots [") {
			t.Fatalf("node %d health = %+v", i, n)
		}
	}
}

// TestClusterPerPropertyVerdictMatchesSingleNode: a drained 3-node
// cluster's merged /verdict carries the same per-property verdicts
// (smallest k, smallest Δ, regularity/safety counts) as a single node fed
// the merged trace — the router's split/merge is invisible to every
// property, not just k.
func TestClusterPerPropertyVerdictMatchesSingleNode(t *testing.T) {
	fastRouterRetries(t)
	mcfg := online.Config{K: 2}
	mcfg.Stream = trace.StreamOptions{Workers: 2, MinSegmentOps: 1, Properties: trace.PropertySetAll}
	tc := newTestClusterMembers(t, 3, nil, Config{}, mcfg)

	tr := kat.NewTrace()
	for ki := 0; ki < 9; ki++ {
		gcfg := kat.GenConfig{Seed: int64(ki + 1), Ops: 60, Concurrency: 2, ReadFraction: 0.5}
		h := kat.GenerateKAtomic(gcfg)
		if ki%3 == 0 {
			h = kat.InjectStaleness(h, gcfg.Seed+100, 0.3, 2)
		}
		for _, op := range h.Ops {
			tr.Add(fmt.Sprintf("key-%03d", ki), op)
		}
	}
	var b strings.Builder
	if err := kat.WriteTraceArrivalOrder(&b, tr); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	resp, payload := postIngestText(t, tc.rts.URL, text)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, payload)
	}
	doc := getClusterVerdict(t, tc.rts.URL, "/drain", http.StatusOK)
	if !doc.Drained || doc.Partial {
		t.Fatalf("drain doc: drained=%v partial=%v", doc.Drained, doc.Partial)
	}
	if doc.Properties != "k,delta,regularity" {
		t.Fatalf("merged properties = %q", doc.Properties)
	}

	single := online.New(mcfg)
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	sresp, err := http.Post(sts.URL+"/ingest", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if err := single.Drain(); err != nil {
		t.Fatal(err)
	}
	want := single.Verdict()

	if len(doc.Keys) != len(want.Keys) {
		t.Fatalf("merged %d keys, single node %d", len(doc.Keys), len(want.Keys))
	}
	for i, ks := range doc.Keys {
		ws := want.Keys[i]
		if ks.Key != ws.Key || ks.Ops != ws.Ops || ks.SmallestK != ws.SmallestK ||
			ks.Saturated != ws.Saturated || ks.Status != ws.Status || ks.Err != ws.Err {
			t.Fatalf("key %s: cluster %+v, single node %+v", ks.Key, ks, ws)
		}
		if (ks.Delta == nil) != (ws.Delta == nil) || (ks.Delta != nil && *ks.Delta != *ws.Delta) {
			t.Fatalf("key %s: cluster Δ %+v, single node %+v", ks.Key, ks.Delta, ws.Delta)
		}
		if (ks.Regularity == nil) != (ws.Regularity == nil) || (ks.Regularity != nil && *ks.Regularity != *ws.Regularity) {
			t.Fatalf("key %s: cluster regularity %+v, single node %+v", ks.Key, ks.Regularity, ws.Regularity)
		}
	}
	if doc.Stats.Ops != want.Stats.Ops {
		t.Fatalf("merged ops %d, single node %d", doc.Stats.Ops, want.Stats.Ops)
	}
}

// TestRouterVerdictIsMergeDocs: the router's drained document is MergeDocs
// over its members' own documents — the retired summary and the epoch
// windows included, which an inline merge in the router used to drop.
func TestRouterVerdictIsMergeDocs(t *testing.T) {
	fastRouterRetries(t)
	mcfg := online.Config{K: 2}
	mcfg.Stream = trace.StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 1,
		EpochLength: 1000, RetireTTL: 100, RetireSweepOps: 1}
	tc := newTestClusterMembers(t, 3, nil, Config{}, mcfg)

	// Three arrival instants far apart: when the third lands, the first
	// one's keys have idled past the TTL on every member.
	for round := 0; round < 3; round++ {
		var b strings.Builder
		for k := 0; k < 12; k++ {
			fmt.Fprintf(&b, "w r%d-k%d 1 %d %d\n", round, k, 5000*round, 5000*round+10)
		}
		if resp, payload := postIngestText(t, tc.rts.URL, b.String()); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: %s: %s", resp.Status, payload)
		}
	}
	doc := getClusterVerdict(t, tc.rts.URL, "/drain", http.StatusOK)

	var docs []online.VerdictDoc
	for _, m := range tc.members {
		docs = append(docs, m.Verdict())
	}
	want := MergeDocs(docs)
	if want.Retired == nil || want.Retired.Retirements == 0 || len(want.Epochs) != 3 {
		t.Fatalf("members report no lifecycle to merge: retired %+v, epochs %+v", want.Retired, want.Epochs)
	}
	if !reflect.DeepEqual(doc.Retired, want.Retired) || !reflect.DeepEqual(doc.Epochs, want.Epochs) {
		t.Fatalf("router retired %+v epochs %+v, MergeDocs over the members %+v %+v",
			doc.Retired, doc.Epochs, want.Retired, want.Epochs)
	}
	if !reflect.DeepEqual(doc.VerdictDoc, want) {
		t.Fatalf("router document\n%+v\nMergeDocs over the members\n%+v", doc.VerdictDoc, want)
	}
}

// TestMergeDocsFoldsDuplicateKeys: duplicate entries for one key (a key
// re-ingested on a second node across separate runs) fold commutatively —
// max for the k/Δ lower bounds, disjunction for saturation, sums for
// counts, the status re-derived from the folded verdict, the smaller error
// text.
func TestMergeDocsFoldsDuplicateKeys(t *testing.T) {
	a := online.VerdictDoc{K: 2, Drained: true, Properties: "k,delta,regularity", Keys: []online.KeyStatus{{
		Key: "x", Ops: 10, SmallestK: 1, Status: "ok",
		Delta:      &online.DeltaStatus{SmallestDelta: 3},
		Regularity: &online.RegularityStatus{Regular: true, Safe: true},
	}}}
	b := online.VerdictDoc{K: 2, Drained: true, Keys: []online.KeyStatus{
		{
			Key: "x", Ops: 7, SmallestK: 4, Saturated: true, Status: "violating",
			Violation:  &online.Violation{Seq: 2, K: 4},
			Delta:      &online.DeltaStatus{SmallestDelta: 9, Saturated: true},
			Regularity: &online.RegularityStatus{IrregularReads: 2, UnsafeReads: 1},
		},
		{Key: "y", Ops: 5, SmallestK: 1, Status: "ok"},
	}}
	for _, docs := range [][]online.VerdictDoc{{a, b}, {b, a}} {
		m := MergeDocs(docs)
		if m.Properties != "k,delta,regularity" {
			t.Fatalf("merged properties = %q", m.Properties)
		}
		if len(m.Keys) != 2 || m.Keys[0].Key != "x" || m.Keys[1].Key != "y" {
			t.Fatalf("merged keys: %+v", m.Keys)
		}
		x := m.Keys[0]
		if x.Ops != 17 || x.SmallestK != 4 || !x.Saturated || x.Status != "violating" {
			t.Fatalf("folded x: %+v", x)
		}
		if x.Violation == nil || x.Violation.Seq != 2 {
			t.Fatalf("folded x violation: %+v", x.Violation)
		}
		if x.Delta == nil || x.Delta.SmallestDelta != 9 || !x.Delta.Saturated {
			t.Fatalf("folded x Δ: %+v", x.Delta)
		}
		if x.Regularity == nil || x.Regularity.IrregularReads != 2 || x.Regularity.UnsafeReads != 1 ||
			x.Regularity.Regular || x.Regularity.Safe {
			t.Fatalf("folded x regularity: %+v", x.Regularity)
		}
		if *a.Keys[0].Delta != (online.DeltaStatus{SmallestDelta: 3}) || b.Keys[0].Regularity.IrregularReads != 2 {
			t.Fatalf("the fold wrote through to a member document: %+v %+v", a.Keys[0].Delta, b.Keys[0].Regularity)
		}
	}
	// Two errored copies keep one error text whatever the member order.
	ea := online.VerdictDoc{K: 2, Keys: []online.KeyStatus{{Key: "e", Ops: 3, Status: "error", Err: "trace: duplicate value 7"}}}
	eb := online.VerdictDoc{K: 2, Keys: []online.KeyStatus{{Key: "e", Ops: 4, Status: "error", Err: "trace: dangling read of 9"}}}
	for _, docs := range [][]online.VerdictDoc{{ea, eb}, {eb, ea}} {
		m := MergeDocs(docs)
		if len(m.Keys) != 1 || m.Keys[0].Ops != 7 || m.Keys[0].Status != "error" || m.Keys[0].Err != "trace: dangling read of 9" {
			t.Fatalf("folded e: %+v", m.Keys)
		}
	}
}

// TestMergeDocsEpochBelowAggregate: a live epoch on one member at or below
// another member's folded aggregate joins that aggregate, as it would on a
// single node, instead of being listed after it.
func TestMergeDocsEpochBelowAggregate(t *testing.T) {
	a := online.VerdictDoc{K: 2, Epochs: []trace.EpochStats{
		{Epoch: 5, Folded: true, Ops: 10, MaxK: 1},
		{Epoch: 6, Ops: 2, MaxK: 1},
	}}
	b := online.VerdictDoc{K: 2, Epochs: []trace.EpochStats{
		{Epoch: 3, Ops: 4, MaxK: 3, Violations: 1},
		{Epoch: 6, Ops: 1, MaxK: 2},
	}}
	want := []trace.EpochStats{
		{Epoch: 5, Folded: true, Ops: 14, MaxK: 3, Violations: 1},
		{Epoch: 6, Ops: 3, MaxK: 2},
	}
	for _, docs := range [][]online.VerdictDoc{{a, b}, {b, a}} {
		if got := MergeDocs(docs).Epochs; !reflect.DeepEqual(got, want) {
			t.Fatalf("merged epochs %+v, want %+v", got, want)
		}
	}
}

// TestMergeDocsLifecycle: the keyspace-lifecycle additions merge node-order
// independently — retired summaries sum counts and max floors, epoch
// windows fold by epoch number with members' folded aggregates collapsing
// into one, a duplicate key is only "retired" when every copy is, and the
// lifecycle stream counters sum.
func TestMergeDocsLifecycle(t *testing.T) {
	a := online.VerdictDoc{K: 2, Drained: true,
		Keys: []online.KeyStatus{
			{Key: "x", Ops: 4, SmallestK: 1, Status: "ok", Retired: true},
			{Key: "y", Ops: 2, SmallestK: 1, Status: "ok", Retired: true},
		},
		Stats:   trace.StreamStats{Ops: 6, RetiredKeys: 2, Retirements: 3, Readmissions: 1},
		Retired: &trace.RetiredSummary{Keys: 2, Ops: 6, Retirements: 3, Readmissions: 1, MaxK: 2, MaxDelta: 5, Errors: 1},
		Epochs: []trace.EpochStats{
			{Epoch: 3, Folded: true, Ops: 10, MaxK: 1},
			{Epoch: 5, Ops: 4, MaxK: 2, Violations: 1},
			{Epoch: 6, Ops: 2, MaxK: 1},
		},
	}
	b := online.VerdictDoc{K: 2, Drained: true,
		Keys: []online.KeyStatus{
			{Key: "x", Ops: 3, SmallestK: 2, Status: "ok"}, // live on this node
			{Key: "z", Ops: 1, SmallestK: 1, Status: "ok"},
		},
		Stats:   trace.StreamStats{Ops: 4, RetiredKeys: 1, Retirements: 1},
		Retired: &trace.RetiredSummary{Keys: 1, Ops: 1, Retirements: 1, MaxK: 3, UnsafeReads: 2},
		Epochs: []trace.EpochStats{
			{Epoch: 4, Folded: true, Ops: 7, MaxDelta: 9},
			{Epoch: 5, Ops: 3, MaxK: 1},
		},
	}
	for _, docs := range [][]online.VerdictDoc{{a, b}, {b, a}} {
		m := MergeDocs(docs)
		if len(m.Keys) != 3 {
			t.Fatalf("merged keys: %+v", m.Keys)
		}
		x, y := m.Keys[0], m.Keys[1]
		if x.Retired {
			t.Fatalf("key x retired on one node only, merged entry must be live: %+v", x)
		}
		if !y.Retired {
			t.Fatalf("key y retired everywhere it appears: %+v", y)
		}
		r := m.Retired
		if r == nil || r.Keys != 3 || r.Ops != 7 || r.Retirements != 4 || r.Readmissions != 1 {
			t.Fatalf("merged retired summary: %+v", r)
		}
		if r.MaxK != 3 || r.MaxDelta != 5 || r.UnsafeReads != 2 || r.Errors != 1 {
			t.Fatalf("merged retired floors: %+v", r)
		}
		// Epochs: one folded aggregate first (indices 3 and 4 collapse,
		// keeping the highest), then 5 (merged across nodes) and 6.
		if len(m.Epochs) != 3 {
			t.Fatalf("merged epochs: %+v", m.Epochs)
		}
		f := m.Epochs[0]
		if !f.Folded || f.Epoch != 4 || f.Ops != 17 || f.MaxK != 1 || f.MaxDelta != 9 {
			t.Fatalf("merged folded aggregate: %+v", f)
		}
		e5 := m.Epochs[1]
		if e5.Folded || e5.Epoch != 5 || e5.Ops != 7 || e5.MaxK != 2 || e5.Violations != 1 {
			t.Fatalf("merged epoch 5: %+v", e5)
		}
		if m.Epochs[2].Epoch != 6 || m.Epochs[2].Ops != 2 {
			t.Fatalf("merged epoch 6: %+v", m.Epochs[2])
		}
		st := m.Stats
		if st.Ops != 10 || st.RetiredKeys != 3 || st.Retirements != 4 || st.Readmissions != 1 {
			t.Fatalf("merged lifecycle stats: %+v", st)
		}
	}
}

// TestRouterRetriesResendSafeSheds: a member shedding its first request with
// a row the reject table marks resend-safe is retried inside the forward —
// the client sees a plain 200 with the full count, never the member's shed.
// The router used to do this for overload only and gave a memory shed
// straight back under the member's code; overload is now the one shed row.
func TestRouterRetriesResendSafeSheds(t *testing.T) {
	fastRouterRetries(t)
	t.Run(online.RejectOverload.Code, func(t *testing.T) {
		wrap := func(i int, h http.Handler) http.Handler {
			if i != 1 {
				return h
			}
			return chaosproxy.New(h, chaosproxy.Faults{Shed503: 1})
		}
		tc := newTestClusterMembers(t, 2, wrap, Config{}, online.Config{})
		text, want := clusterTrace(8, 4)
		resp, payload := postIngestText(t, tc.rts.URL, text)
		if resp.StatusCode != http.StatusOK || string(payload) != "{\"ingested\": 32}\n" {
			t.Fatalf("ingest over a shedding member: %s: %s", resp.Status, payload)
		}
		var retries int64
		for _, m := range tc.router.members {
			retries += m.Retries.Value()
		}
		if retries == 0 {
			t.Fatal("no forward retried; nothing was shed and the test proves nothing")
		}
		doc := getClusterVerdict(t, tc.rts.URL, "/drain", http.StatusOK)
		for _, ks := range doc.Keys {
			if ks.Ops != want[ks.Key] || ks.Status != "ok" {
				t.Fatalf("key %s: %d ops [%s], want %d [ok]", ks.Key, ks.Ops, ks.Status, want[ks.Key])
			}
		}
		if len(doc.Keys) != len(want) {
			t.Fatalf("drained %d keys, want %d", len(doc.Keys), len(want))
		}
	})
}

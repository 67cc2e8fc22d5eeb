package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kat"
	"kat/internal/chaosproxy"
	"kat/internal/core"
	"kat/internal/online"
	"kat/internal/trace"
)

// buildClusterTrace generates a deterministic multi-key trace with injected
// staleness, returning both the parsed trace (for the offline reference)
// and its arrival-order text (for ingestion). Mirrors the single-node
// acceptance fixture in internal/online so the cluster result is comparable
// to the same oracle.
func buildClusterTrace(t *testing.T, keys, opsPerKey int, inject float64) (*kat.Trace, string) {
	t.Helper()
	tr := kat.NewTrace()
	for ki := 0; ki < keys; ki++ {
		cfg := kat.GenConfig{
			Seed:         int64(ki + 1),
			Ops:          opsPerKey,
			Concurrency:  2,
			ReadFraction: 0.5,
		}
		h := kat.GenerateKAtomic(cfg)
		if inject > 0 && ki%2 == 0 {
			h = kat.InjectStaleness(h, cfg.Seed+100, inject, 2)
		}
		for _, op := range h.Ops {
			tr.Add(fmt.Sprintf("key-%03d", ki), op)
		}
	}
	var b strings.Builder
	if err := kat.WriteTraceArrivalOrder(&b, tr); err != nil {
		t.Fatal(err)
	}
	return tr, b.String()
}

// TestHundredConcurrentReplayClientsCluster is the cluster acceptance
// check: the single-node hundred-client replay, scaled to three members
// behind the router with every member wrapped in a chaos proxy. 100
// concurrent clients replay a key-partitioned trace through the router
// while the proxies inject sheds, resets, half-forwarded drops, and torn
// responses between router and members. The router's retry+reconcile
// machinery must absorb all of it: clients see clean 200s, and after the
// coordinated drain the merged cluster verdict's per-key smallest-k must
// equal the offline checker on the merged trace — exactly what a single
// node reports, proving the partition is verdict-invariant under faults.
func TestHundredConcurrentReplayClientsCluster(t *testing.T) {
	fastRouterRetries(t)
	const clients = 100
	const nodes = 3
	keys, opsPerKey := 40, 60
	if testing.Short() {
		keys, opsPerKey = 12, 30
	}

	var proxies []*chaosproxy.Proxy
	// Forwarding is serialized per member, so one unlucky forward can eat a
	// member's whole fault budget back to back; give it retries to spare.
	cfg := Config{ForwardRetries: 24}
	for i := 0; i < nodes; i++ {
		pool := core.NewPool(2)
		defer pool.Close()
		srv := online.New(online.Config{K: 2, Stream: trace.StreamOptions{Pool: pool, MinSegmentOps: 4, Horizon: 64}})
		proxy := chaosproxy.New(srv.Handler(), chaosproxy.Faults{Shed503: 3, Reset: 2, Drop: 3, Torn: 2})
		ts := httptest.NewServer(proxy)
		defer ts.Close()
		proxies = append(proxies, proxy)
		cfg.Nodes = append(cfg.Nodes, ts.URL)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	tr, text := buildClusterTrace(t, keys, opsPerKey, 0.5)
	buckets := make([][]string, clients)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		f := strings.Fields(line)
		b := int(trace.KeyHash(f[1]) % clients)
		buckets[b] = append(buckets[b], line)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for _, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		wg.Add(1)
		go func(bucket []string) {
			defer wg.Done()
			body := strings.Join(bucket, "\n") + "\n"
			resp, err := http.Post(rts.URL+"/ingest", "text/plain", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("ingest: %s: %s", resp.Status, msg)
			}
		}(bucket)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	var injected int64
	for _, p := range proxies {
		injected += p.InjectedTotal()
	}
	if injected == 0 {
		t.Fatal("chaos proxies injected nothing; test proves nothing")
	}
	var retries, reconciles int64
	for _, m := range rt.members {
		retries += m.Retries.Value()
		reconciles += m.Reconciles.Value()
	}
	if retries == 0 {
		t.Fatalf("no forward retries despite %d injected faults", injected)
	}
	if reconciles == 0 {
		t.Fatalf("no reconciles despite %d injected faults", injected)
	}

	final := getClusterVerdict(t, rts.URL, "/drain", http.StatusOK)
	if !final.Cluster || !final.Drained || final.Partial {
		t.Fatalf("drain doc: cluster=%v drained=%v partial=%v", final.Cluster, final.Drained, final.Partial)
	}
	if int(final.Stats.Ops) != tr.Len() {
		t.Fatalf("cluster saw %d ops, trace has %d (chaos lost or duplicated ops)", final.Stats.Ops, tr.Len())
	}
	want := kat.SmallestKByKey(tr, kat.Options{})
	if len(final.Keys) != len(want) {
		t.Fatalf("cluster has %d keys, offline %d", len(final.Keys), len(want))
	}
	for _, ks := range final.Keys {
		if ks.Saturated {
			t.Fatalf("key %s saturated the horizon; raise Horizon in the test config", ks.Key)
		}
		if ks.SmallestK != want[ks.Key] {
			t.Fatalf("key %s: cluster smallest k=%d, offline kavcheck %d", ks.Key, ks.SmallestK, want[ks.Key])
		}
	}
}

// TestClusterFailoverAndReadmission kills one member abruptly mid-stream
// and walks the full degradation arc: typed degraded ingest naming the
// dead slice while healthy slices keep ingesting, a typed partial
// /verdict (never a hang), breaker open and half-open transitions
// observable while the node is down, then a restart on the same address
// followed by probe-driven re-admission, re-baselined forwarding, and a
// clean full-cluster drain.
func TestClusterFailoverAndReadmission(t *testing.T) {
	fastRouterRetries(t)
	setRouterBreaker(t, 2, 150*time.Millisecond)

	// Members run on real listeners (not httptest) so one can die and come
	// back on the same host:port, the way the router would see a restart.
	startMember := func(addr string) (*http.Server, string) {
		t.Helper()
		var ln net.Listener
		var err error
		for i := 0; i < 100; i++ {
			ln, err = net.Listen("tcp", addr)
			if err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		hs := &http.Server{Handler: online.New(online.Config{K: 2}).Handler()}
		go hs.Serve(ln)
		return hs, ln.Addr().String()
	}

	servers := make([]*http.Server, 3)
	addrs := make([]string, 3)
	var cfg Config
	for i := range servers {
		servers[i], addrs[i] = startMember("127.0.0.1:0")
		defer servers[i].Close()
		cfg.Nodes = append(cfg.Nodes, "http://"+addrs[i])
	}

	var logMu sync.Mutex
	var logs strings.Builder
	cfg.ProbeInterval = 20 * time.Millisecond
	cfg.HopTimeout = 2 * time.Second
	cfg.ForwardRetries = 2
	cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		fmt.Fprintf(&logs, format+"\n", args...)
		logMu.Unlock()
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	// phaseTrace writes a later-timestamped round per phase so per-key
	// arrival order stays valid across the whole scenario.
	const nkeys, perPhase = 12, 5
	phaseTrace := func(phase int) (string, map[string]int) {
		var b strings.Builder
		want := map[string]int{}
		base := phase * 1000
		for i := 0; i < perPhase; i++ {
			for k := 0; k < nkeys; k++ {
				key := fmt.Sprintf("k%d", k)
				fmt.Fprintf(&b, "w %s %d %d %d\n", key, base+i+1, base+2*i, base+2*i+1)
				want[key]++
			}
		}
		return b.String(), want
	}
	part := rt.Partition()
	waitState := func(want BreakerState) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for rt.members[1].Breaker.State() != want {
			if time.Now().After(deadline) {
				t.Fatalf("node 1 breaker never reached %s (now %s)", want, rt.members[1].Breaker.State())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 1: healthy cluster, full batch lands everywhere.
	text1, _ := phaseTrace(1)
	resp, payload := postIngestText(t, rts.URL, text1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: %s: %s", resp.Status, payload)
	}

	// Kill member 1 abruptly: listener and live connections die at once.
	servers[1].Close()

	// Phase 2: degraded ingest — healthy slices keep going, the reject is
	// typed and names the dead slice, and Ingested counts exactly the
	// healthy-slice operations.
	text2, want2 := phaseTrace(2)
	resp, payload = postIngestText(t, rts.URL, text2)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest: %s (want 503): %s", resp.Status, payload)
	}
	var reject DegradedReject
	if err := json.Unmarshal(payload, &reject); err != nil {
		t.Fatalf("decoding reject: %v: %s", err, payload)
	}
	if reject.Code != "degraded" || len(reject.Unreachable) != 1 || !strings.Contains(reject.Unreachable[0], "node 1") {
		t.Fatalf("reject = %+v, want degraded naming node 1", reject)
	}
	var healthy2 int64
	for key, n := range want2 {
		if part.OwnerString(key) != 1 {
			healthy2 += int64(n)
		}
	}
	if reject.Ingested != healthy2 {
		t.Fatalf("degraded Ingested = %d, want %d (healthy slices)", reject.Ingested, healthy2)
	}

	// The partial verdict is typed and prompt — 206 naming the slice.
	doc := getClusterVerdict(t, rts.URL, "/verdict", http.StatusPartialContent)
	if !doc.Partial || len(doc.Unreachable) != 1 || !strings.Contains(doc.Unreachable[0], "node 1") {
		t.Fatalf("partial verdict = partial=%v unreachable=%v", doc.Partial, doc.Unreachable)
	}

	// Probes trip the breaker open; after the cooldown it shows half-open
	// (trial would be admitted), and the still-dead node snaps it back
	// open — both transitions observable while the member is down.
	waitState(BreakerOpen)
	waitState(BreakerHalfOpen)
	hresp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var rh RouterHealth
	err = json.NewDecoder(hresp.Body).Decode(&rh)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rh.Status != "degraded" {
		t.Fatalf("router healthz status = %q, want degraded: %+v", rh.Status, rh)
	}

	// Restart on the same address (fresh empty state, as after a crash
	// without durability) and wait for probe-driven re-admission.
	servers[1], _ = startMember(addrs[1])
	defer servers[1].Close()
	waitState(BreakerClosed)
	logMu.Lock()
	logged := logs.String()
	logMu.Unlock()
	if !strings.Contains(logged, "breaker open") || !strings.Contains(logged, "healthy again") {
		t.Fatalf("router log missing breaker transitions:\n%s", logged)
	}

	// Phase 3: full batches land again — including on the restarted
	// member, which only works if re-admission re-baselined its acked
	// counts against the empty restarted state.
	text3, want3 := phaseTrace(3)
	resp, payload = postIngestText(t, rts.URL, text3)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery ingest: %s: %s", resp.Status, payload)
	}

	final := getClusterVerdict(t, rts.URL, "/drain", http.StatusOK)
	if !final.Drained || final.Partial {
		t.Fatalf("final drain: drained=%v partial=%v", final.Drained, final.Partial)
	}
	got := map[string]int{}
	for _, ks := range final.Keys {
		got[ks.Key] = ks.Ops
	}
	for key := range want3 {
		// Node 1's keys lost phases 1-2 with the crash (no durability
		// here); everyone else holds all three phases.
		want := 3 * perPhase
		if part.OwnerString(key) == 1 {
			want = perPhase
		}
		if got[key] != want {
			t.Fatalf("key %s (owner %d): %d ops after recovery, want %d (all: %v)",
				key, part.OwnerString(key), got[key], want, got)
		}
	}
}

package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kat/internal/chaosproxy"
	"kat/internal/cluster"
	"kat/internal/online"
)

// fakeClock drives a tokenBucket deterministically: now() returns the
// simulated time and sleep() advances it exactly, recording the total.
type fakeClock struct {
	t     time.Time
	slept time.Duration
}

func (c *fakeClock) install(tb *tokenBucket) {
	tb.now = func() time.Time { return c.t }
	tb.sleep = func(d time.Duration) bool {
		c.t = c.t.Add(d)
		c.slept += d
		return true
	}
	// Rebase the bucket on the fake clock.
	tb.last = c.t
}

// TestTokenBucketHonorsHighRate is the regression test for the saturating
// central-ticker pacer: at 1e6 ops/s the old design could dispense at most
// one token per ticker fire (~1ms floor), capping replay near 1k ops/s.
// The local bucket must pace 100k ops across ~0.1 simulated seconds.
func TestTokenBucketHonorsHighRate(t *testing.T) {
	const rate = 1e6
	grant := grantSize(rate)
	tb := newTokenBucket(rate, grant, nil)
	clk := &fakeClock{t: time.Unix(0, 0)}
	clk.install(tb)
	const ops = 100_000
	for off := 0; off < ops; off += grant {
		n := min(grant, ops-off)
		if !tb.take(n) {
			t.Fatal("take stopped")
		}
	}
	want := time.Duration(float64(ops-2*grant) / rate * float64(time.Second)) // burst goes out free
	// The millisecond sleep floor over-sleeps; the bucket credits it back,
	// so total elapsed stays within one grant of ideal.
	slack := time.Duration(float64(grant)/rate*float64(time.Second)) + 2*time.Millisecond
	if clk.slept < want-slack || clk.slept > want+slack {
		t.Fatalf("paced %d ops at %g/s in %v simulated, want ~%v", ops, float64(rate), clk.slept, want)
	}
}

// TestTokenBucketLowRateGrants checks the other end: at low rates the grant
// collapses to single operations and each op waits its full interval.
func TestTokenBucketLowRateGrants(t *testing.T) {
	const rate = 10.0
	grant := grantSize(rate)
	if grant != 1 {
		t.Fatalf("grant = %d at %g ops/s, want 1", grant, rate)
	}
	tb := newTokenBucket(rate, grant, nil)
	clk := &fakeClock{t: time.Unix(0, 0)}
	clk.install(tb)
	for i := 0; i < 50; i++ {
		if !tb.take(1) {
			t.Fatal("take stopped")
		}
	}
	// 50 ops at 10/s = 5s, minus the 2-token initial burst.
	want := 4800 * time.Millisecond
	if d := clk.slept; d < want-50*time.Millisecond || d > want+50*time.Millisecond {
		t.Fatalf("50 ops at 10/s slept %v, want ~%v", d, want)
	}
}

// TestTokenBucketStops checks a waiting take unblocks (returning false) when
// the pacer's stop channel closes — the writer-goroutine leak guard.
func TestTokenBucketStops(t *testing.T) {
	stop := make(chan struct{})
	tb := newTokenBucket(0.001, 1, stop) // effectively never refills
	tb.tokens = 0                        // burst drained
	done := make(chan bool, 1)
	go func() { done <- tb.take(1) }()
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("take succeeded after stop")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("take did not observe stop")
	}
}

// fastRetries shrinks the retry schedule for tests and restores it.
func fastRetries(t *testing.T) {
	t.Helper()
	base, cap := retryBaseDelay, retryMaxDelay
	retryBaseDelay, retryMaxDelay = time.Millisecond, 5*time.Millisecond
	t.Cleanup(func() { retryBaseDelay, retryMaxDelay = base, cap })
}

// writeTrace builds a small keyed all-writes trace: keys k0..k(keys-1),
// opsPerKey writes each, interleaved in arrival order.
func writeTrace(keys, opsPerKey int) (string, int) {
	var b strings.Builder
	for i := 0; i < opsPerKey; i++ {
		for k := 0; k < keys; k++ {
			fmt.Fprintf(&b, "w k%d %d %d %d\n", k, i+1, 2*i, 2*i+1)
		}
	}
	return b.String(), keys * opsPerKey
}

// replayAgainst runs runReplay at full tilt with small batches against h.
// Fault injection comes from internal/chaosproxy (the promoted form of the
// flakyProxy fixture that used to live here).
func replayAgainst(t *testing.T, h http.Handler, text string, batchOps int, resume bool) (string, error) {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	var out strings.Builder
	err := runReplay(ts.URL, []byte(text), replayOpts{
		clients: 2, drain: true, batchOps: batchOps, retries: 8, resume: resume,
	}, &out)
	return out.String(), err
}

// TestReplayRetriesTransient503 checks overload shedding is retried with
// backoff until the batch lands, and nothing is lost or duplicated.
func TestReplayRetriesTransient503(t *testing.T) {
	fastRetries(t)
	text, total := writeTrace(3, 20)
	srv := online.New(online.Config{K: 2})
	out, err := replayAgainst(t, chaosproxy.New(srv.Handler(), chaosproxy.Faults{Shed503: 3}), text, 16, false)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if want := fmt.Sprintf("replayed %d/%d ops", total, total); !strings.Contains(out, want) {
		t.Fatalf("missing %q:\n%s", want, out)
	}
	assertServerOps(t, srv, map[string]int{"k0": 20, "k1": 20, "k2": 20})
}

// TestReplayReconcilesAfterConnectionDrop kills the connection mid-batch
// after the server applied half of it: the client must reconcile against
// /verdict and resend exactly the unacknowledged suffix — final per-key
// counts are exact, no op ingested twice.
func TestReplayReconcilesAfterConnectionDrop(t *testing.T) {
	fastRetries(t)
	text, total := writeTrace(3, 20)
	srv := online.New(online.Config{K: 2})
	out, err := replayAgainst(t, chaosproxy.New(srv.Handler(), chaosproxy.Faults{Drop: 2}), text, 16, false)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if want := fmt.Sprintf("replayed %d/%d ops", total, total); !strings.Contains(out, want) {
		t.Fatalf("missing %q:\n%s", want, out)
	}
	assertServerOps(t, srv, map[string]int{"k0": 20, "k1": 20, "k2": 20})
}

// TestReplayReconcilesAfterTornResponse covers the worst ambiguity class:
// the server applied the whole batch but the response died on the wire. A
// blind resend would double-ingest; reconciliation must detect the batch
// already landed and move on.
func TestReplayReconcilesAfterTornResponse(t *testing.T) {
	fastRetries(t)
	text, total := writeTrace(3, 20)
	srv := online.New(online.Config{K: 2})
	out, err := replayAgainst(t, chaosproxy.New(srv.Handler(), chaosproxy.Faults{Torn: 2}), text, 16, false)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if want := fmt.Sprintf("replayed %d/%d ops", total, total); !strings.Contains(out, want) {
		t.Fatalf("missing %q:\n%s", want, out)
	}
	assertServerOps(t, srv, map[string]int{"k0": 20, "k1": 20, "k2": 20})
}

// TestReplayDrainingIsTerminal: a drained server must stop the replay with
// an error, not burn retries.
func TestReplayDrainingIsTerminal(t *testing.T) {
	fastRetries(t)
	srv := online.New(online.Config{K: 2})
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	text, _ := writeTrace(2, 4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var out strings.Builder
	err := runReplay(ts.URL, []byte(text), replayOpts{clients: 1, batchOps: 4, retries: 8}, &out)
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("replay against drained server: err=%v, want draining", err)
	}
}

// TestReplayResume pre-loads the server with a prefix of the trace, then
// replays the whole trace with -resume: only the missing suffix is sent.
func TestReplayResume(t *testing.T) {
	fastRetries(t)
	text, total := writeTrace(3, 20)
	srv := online.New(online.Config{K: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	lines := strings.SplitAfter(strings.TrimSuffix(text, "\n"), "\n")
	prefix := strings.Join(lines[:len(lines)/3], "")
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(prefix))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("preload: %s", resp.Status)
	}
	var out strings.Builder
	if err := runReplay(ts.URL, []byte(text), replayOpts{
		clients: 2, drain: true, batchOps: 16, retries: 8, resume: true,
	}, &out); err != nil {
		t.Fatalf("resume replay: %v\n%s", err, out.String())
	}
	preloaded := len(lines) / 3
	if want := fmt.Sprintf("server already holds %d", preloaded); !strings.Contains(out.String(), want) {
		t.Fatalf("missing %q:\n%s", want, out.String())
	}
	if want := fmt.Sprintf("replayed %d/%d ops", total-preloaded, total); !strings.Contains(out.String(), want) {
		t.Fatalf("missing %q:\n%s", want, out.String())
	}
	assertServerOps(t, srv, map[string]int{"k0": 20, "k1": 20, "k2": 20})
}

// TestReplayNodeListPreRoutes replays against a comma-separated node list:
// lines pre-route by the cluster key hash so every key lands wholly on its
// partition owner, the nodes drain together, and one merged cluster
// verdict is printed.
func TestReplayNodeListPreRoutes(t *testing.T) {
	fastRetries(t)
	text, total := writeTrace(9, 10)
	var servers []*online.Server
	var urls []string
	for i := 0; i < 3; i++ {
		srv := online.New(online.Config{K: 2})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		servers = append(servers, srv)
		urls = append(urls, ts.URL)
	}
	var out strings.Builder
	err := runReplay(strings.Join(urls, ","), []byte(text), replayOpts{
		clients: 6, drain: true, batchOps: 16, retries: 8,
	}, &out)
	if err != nil {
		t.Fatalf("cluster replay: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "cluster (3 nodes): final") {
		t.Fatalf("missing merged cluster verdict:\n%s", out.String())
	}
	part, err := cluster.NewPartition(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i, srv := range servers {
		for _, ks := range srv.Verdict().Keys {
			if owner := part.OwnerString(ks.Key); owner != i {
				t.Fatalf("key %s on node %d, owner is %d", ks.Key, i, owner)
			}
			if ks.Ops != 10 {
				t.Fatalf("key %s has %d ops, want 10", ks.Key, ks.Ops)
			}
			seen += ks.Ops
		}
	}
	if seen != total {
		t.Fatalf("cluster holds %d ops, want %d", seen, total)
	}
}

// TestReplayNodeListSplitsMultiOpLines: the trace grammar allows
// ';'-separated multi-op lines mixing keys. Pre-routing such a line whole
// would send every op to the first op's owner; the replay must split per
// operation so each op lands on its own key's partition owner.
func TestReplayNodeListSplitsMultiOpLines(t *testing.T) {
	fastRetries(t)
	part, err := cluster.NewPartition(3)
	if err != nil {
		t.Fatal(err)
	}
	// Pair two keys with different owners on every line, so whole-line
	// routing would provably misplace the second key's ops.
	keyA, keyB := "k0", ""
	for i := 1; i < 64 && keyB == ""; i++ {
		if k := fmt.Sprintf("k%d", i); part.OwnerString(k) != part.OwnerString(keyA) {
			keyB = k
		}
	}
	if keyB == "" {
		t.Fatal("no key in k1..k63 with a different owner than k0")
	}
	var b strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, "w %s %d %d %d; w %s %d %d %d\n", keyA, i+1, 2*i, 2*i+1, keyB, i+1, 2*i, 2*i+1)
	}
	var servers []*online.Server
	var urls []string
	for i := 0; i < 3; i++ {
		srv := online.New(online.Config{K: 2})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		servers = append(servers, srv)
		urls = append(urls, ts.URL)
	}
	var out strings.Builder
	if err := runReplay(strings.Join(urls, ","), []byte(b.String()), replayOpts{
		clients: 3, drain: true, batchOps: 8, retries: 8,
	}, &out); err != nil {
		t.Fatalf("cluster replay: %v\n%s", err, out.String())
	}
	got := map[string]int{}
	for i, srv := range servers {
		for _, ks := range srv.Verdict().Keys {
			if owner := part.OwnerString(ks.Key); owner != i {
				t.Fatalf("key %s on node %d, owner is %d", ks.Key, i, owner)
			}
			got[ks.Key] += ks.Ops
		}
	}
	if len(got) != 2 || got[keyA] != 10 || got[keyB] != 10 {
		t.Fatalf("per-key ops = %v, want %s:10 %s:10", got, keyA, keyB)
	}
}

// TestReplayMultiOpLinesReconcileExactly: multi-op lines also break the
// single-node path if routed whole — a key's ops could ride two connection
// buckets (ordering) and one line can hold several server-side ops (ack
// arithmetic). Normalized per-op routing must keep counts exact even when
// drops and torn responses force /verdict reconciles.
func TestReplayMultiOpLinesReconcileExactly(t *testing.T) {
	fastRetries(t)
	var b strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "w k0 %d %d %d; w k1 %d %d %d; w k0 %d %d %d\n",
			i+1, 4*i, 4*i+1, i+1, 4*i, 4*i+1, i+100, 4*i+2, 4*i+3)
	}
	srv := online.New(online.Config{K: 2})
	out, err := replayAgainst(t, chaosproxy.New(srv.Handler(), chaosproxy.Faults{Drop: 2, Torn: 2}), b.String(), 16, false)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if !strings.Contains(out, "replayed 60/60 ops") {
		t.Fatalf("missing exact op accounting:\n%s", out)
	}
	assertServerOps(t, srv, map[string]int{"k0": 40, "k1": 20})
}

// degradedOnce fronts an online server like a cluster router under partial
// failure: the first /ingest applies only the batch's even-keyed lines (a
// non-prefix subset, exactly what a per-node split produces) and answers
// 503 code "degraded" naming the failed slice, as a router does. A client
// that prefix-trimmed by Ingested would corrupt the stream; the reconcile
// path must resend exactly the odd-keyed lines.
type degradedOnce struct {
	backend http.Handler
	fired   atomic.Bool
}

func (p *degradedOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/ingest" || !p.fired.CompareAndSwap(false, true) {
		p.backend.ServeHTTP(w, r)
		return
	}
	body, _ := io.ReadAll(r.Body)
	var healthy []byte
	applied := 0
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[1][len(fields[1])-1]%2 == 0 {
			healthy = append(healthy, line...)
			healthy = append(healthy, '\n')
			applied++
		}
	}
	req := httptest.NewRequest("POST", "/ingest", strings.NewReader(string(healthy)))
	req.Header = r.Header.Clone()
	p.backend.ServeHTTP(httptest.NewRecorder(), req)
	w.Header().Set("Retry-After", "0")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, `{"code":"degraded","error":"test: slice down","ingested":%d,"slices":[{"slice":"odd keys","error":"down"}]}`, applied)
}

func TestReplayDegradedReconcilesWithoutPrefixTrim(t *testing.T) {
	fastRetries(t)
	text, total := writeTrace(4, 12) // keys k0..k3: k0/k2 "healthy", k1/k3 degraded
	srv := online.New(online.Config{K: 2})
	ts := httptest.NewServer(&degradedOnce{backend: srv.Handler()})
	defer ts.Close()
	// One connection, so the one batch mixes healthy and degraded keys: two
	// connections bucket k0/k2 apart from k1/k3 and the subset the proxy
	// applies is then all of a batch or none of it — a prefix after all.
	var sb strings.Builder
	err := runReplay(ts.URL, []byte(text), replayOpts{clients: 1, drain: true, batchOps: total, retries: 8}, &sb)
	out := sb.String()
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	assertServerOps(t, srv, map[string]int{"k0": 12, "k1": 12, "k2": 12, "k3": 12})
}

// assertServerOps drains srv and checks exact per-key ingested-op counts.
func assertServerOps(t *testing.T, srv *online.Server, want map[string]int) {
	t.Helper()
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	doc := srv.Verdict()
	got := map[string]int{}
	for _, ks := range doc.Keys {
		got[ks.Key] = ks.Ops
	}
	for key, n := range want {
		if got[key] != n {
			t.Fatalf("key %s has %d ops, want %d (all: %v)", key, got[key], n, got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("server has keys %v, want %v", got, want)
	}
}

func TestGrantSizeBounds(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want int
	}{{1, 1}, {49, 1}, {100, 2}, {1e6, 4096 * 5}, {5e5, 4096 * 2}} {
		got := grantSize(tc.rate)
		if tc.rate >= 2.5e5 {
			if got != 4096 {
				t.Fatalf("grantSize(%g) = %d, want clamp 4096", tc.rate, got)
			}
			continue
		}
		if got != tc.want {
			t.Fatalf("grantSize(%g) = %d, want %d", tc.rate, got, tc.want)
		}
	}
}

// TestReplayThroughRouterSurvivesMemberShed is the regression test for a
// corruption the router and the replay client used to produce together: one
// member sheds its first request (a memory shed then, the overload row now),
// which the router treated as terminal and surfaced under the member's code
// with an ingested count summed over both members, which the client then
// trimmed off the batch as a prefix — operations lost on one member and
// duplicated on the other, and the replay still reported success.
func TestReplayThroughRouterSurvivesMemberShed(t *testing.T) {
	fastRetries(t)
	var members []*online.Server
	var nodes []string
	for i := 0; i < 2; i++ {
		srv := online.New(online.Config{K: 2})
		var h http.Handler = srv.Handler()
		if i == 1 {
			h = chaosproxy.New(h, chaosproxy.Faults{Shed503: 1})
		}
		ts := httptest.NewServer(h)
		defer ts.Close()
		members = append(members, srv)
		nodes = append(nodes, ts.URL)
	}
	rt, err := cluster.NewRouter(cluster.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	text, total := writeTrace(8, 12)
	var out strings.Builder
	if err := runReplay(rts.URL, []byte(text), replayOpts{clients: 1, batchOps: 16, retries: 8}, &out); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if want := fmt.Sprintf("replayed %d/%d ops", total, total); !strings.Contains(out.String(), want) {
		t.Fatalf("missing %q:\n%s", want, out.String())
	}
	keys := 0
	for i, srv := range members {
		if err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
		for _, ks := range srv.Verdict().Keys {
			keys++
			if ks.Ops != 12 || ks.Status == "error" {
				t.Errorf("member %d key %s: %d ops [%s] %s, want exactly 12 and no error", i, ks.Key, ks.Ops, ks.Status, ks.Err)
			}
		}
	}
	if keys != 8 {
		t.Errorf("members hold %d keys, want 8", keys)
	}
}

// TestReplayVerdictFetchNeverHangs wedges the server's /drain and /verdict —
// the connection is accepted and never answered — behind a working /ingest:
// the replay must deliver, then fail within the fetch deadline, against one
// node and against a node list alike. (The bare http.Post/http.Get these
// fetches used had no deadline at all.)
func TestReplayVerdictFetchNeverHangs(t *testing.T) {
	vt, dt := verdictTimeout, drainTimeout
	verdictTimeout, drainTimeout = 50*time.Millisecond, 50*time.Millisecond
	t.Cleanup(func() { verdictTimeout, drainTimeout = vt, dt })
	text, total := writeTrace(2, 4)
	release := make(chan struct{})
	defer close(release)
	wedged := func() http.Handler {
		srv := online.New(online.Config{K: 2})
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/ingest" {
				select {
				case <-release:
				case <-r.Context().Done():
				}
				return
			}
			srv.Handler().ServeHTTP(w, r)
		})
	}
	for _, drain := range []bool{true, false} {
		for _, nodes := range []int{1, 2} {
			var urls []string
			for i := 0; i < nodes; i++ {
				ts := httptest.NewServer(wedged())
				t.Cleanup(ts.Close) // after release closes, or a failing run would wait on its own handlers
				urls = append(urls, ts.URL)
			}
			target := strings.Join(urls, ",")
			var out strings.Builder
			done := make(chan error, 1)
			go func() {
				done <- runReplay(target, []byte(text), replayOpts{clients: 1, drain: drain, batchOps: 16, retries: 1}, &out)
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
					t.Fatalf("drain=%v %s: err = %v, want a deadline error\n%s", drain, target, err, out.String())
				}
				if want := fmt.Sprintf("replayed %d/%d ops", total, total); nodes == 1 && !strings.Contains(out.String(), want) {
					t.Fatalf("drain=%v: missing %q:\n%s", drain, want, out.String())
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("drain=%v %s: replay still waiting on a wedged server after 10s", drain, target)
			}
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"kat"
	"kat/internal/cluster"
	"kat/internal/faultfs"
	"kat/internal/serve"
)

// node is one kavserve configured from its arguments and serving on a
// loopback port, as run starts it.
type node struct {
	base string
	sigs chan os.Signal
	done chan error
	mu   sync.Mutex
	log  strings.Builder
}

func (n *node) Write(p []byte) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.log.Write(p)
}

// startNode configures a node from args on fsys and serves it; the shutdown
// grace is test-sized so a failed drain does not stall the suite.
func startNode(t *testing.T, fsys faultfs.FS, args ...string) *node {
	t.Helper()
	n := &node{sigs: make(chan os.Signal, 1), done: make(chan error, 1)}
	sn, err := serve.New(append([]string{"-shutdown-timeout", "5s"}, args...), n, fsys)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sn.Close()
		t.Fatal(err)
	}
	n.base = "http://" + ln.Addr().String()
	go func() { n.done <- sn.Serve(ln, n.sigs) }()
	return n
}

// stop signals the node, waits for its drain and returns its log.
func (n *node) stop(t *testing.T) string {
	t.Helper()
	n.sigs <- os.Interrupt
	if err := <-n.done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.log.String()
}

// post sends body to url and returns the status code and response body.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(b)
}

func TestFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"positional"}, &out); err == nil {
		t.Error("positional argument accepted")
	}
	// The verdict memo is gone from the service, and so is its flag.
	if err := run([]string{"-memo=false"}, &out); err == nil || !strings.Contains(err.Error(), "not defined: -memo") {
		t.Errorf("-memo=false: %v, want a flag-parsing error", err)
	}
	if err := run([]string{"-addr", "256.256.256.256:0"}, &out); err == nil {
		t.Error("unlistenable address accepted")
	}
	if err := run([]string{"-fsync", "sometimes"}, &out); err == nil {
		t.Error("bogus -fsync policy accepted")
	}
	if err := run([]string{"-properties", "k,linearizability"}, &out); err == nil {
		t.Error("bogus -properties list accepted")
	}
	// The five memory knobs are one byte budget now.
	for _, gone := range []string{"-max-buffered-ops", "-overload-ops", "-soft-watermark", "-hard-watermark", "-spill-threshold-ops"} {
		if err := run([]string{gone, "1"}, &out); err == nil || !strings.Contains(err.Error(), "not defined: "+gone) {
			t.Errorf("%s: %v, want a flag-parsing error", gone, err)
		}
	}
	if err := run([]string{"-memory-budget", "16777216T"}, &out); err == nil || !strings.Contains(err.Error(), "-memory-budget: ") {
		t.Errorf("-memory-budget past 8 EiB: err = %v, want the flag's error", err)
	}
	if err := run([]string{"-route", "http://localhost:1", "-data-dir", "/tmp/x"}, &out); err == nil {
		t.Error("-route with -data-dir accepted")
	}
	if err := run([]string{"-route", "http://localhost:1", "-tenants", "a"}, &out); err == nil {
		t.Error("-route with -tenants accepted")
	}
	if err := run([]string{"-tenants", "a,a/b"}, &out); err == nil || !strings.Contains(err.Error(), `tenant name "a/b"`) {
		t.Errorf("-tenants a,a/b: err = %v, want a tenant-name reject", err)
	}
	// Quotas bind the root tenant, tenants are durable, and a budget needs
	// neither a TTL nor a data directory: none of these is refused.
	for _, args := range [][]string{
		{"-tenant-max-ops", "10"}, {"-tenant-max-keys", "10"},
		{"-tenants", "a,b", "-data-dir", "d"}, {"-memory-budget", "64M"},
	} {
		n, err := serve.New(args, io.Discard, faultfs.NewMem())
		if err != nil {
			t.Errorf("%v: %v", args, err)
			continue
		}
		n.Close()
	}
}

// TestServeRouterMode boots two real member serve loops and a router serve
// loop in front of them, drives a mixed-key trace through the router, and
// checks the coordinated cluster drain plus router shutdown.
func TestServeRouterMode(t *testing.T) {
	m0 := startNode(t, nil, "-workers", "2")
	m1 := startNode(t, nil, "-workers", "2")
	router := startNode(t, nil, "-route", m0.base+","+m1.base, "-probe-interval", "50ms")

	text := "w a 1 0 1\nw b 1 0 1\nw c 1 2 3\nr a 1 2 3\nr b 1 2 3\nr c 1 4 5\n"
	if code, body := post(t, router.base+"/ingest", text); code != http.StatusOK || !strings.Contains(body, `"ingested": 6`) {
		t.Fatalf("router ingest: %d: %s", code, body)
	}
	code, dbody := post(t, router.base+"/drain", "")
	if code != http.StatusOK {
		t.Fatalf("cluster drain: %d: %s", code, dbody)
	}
	var doc cluster.ClusterVerdict
	if err := json.Unmarshal([]byte(dbody), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Cluster || !doc.Drained || len(doc.Keys) != 3 {
		t.Fatalf("cluster drain doc: cluster=%v drained=%v keys=%d: %s", doc.Cluster, doc.Drained, len(doc.Keys), dbody)
	}

	output := router.stop(t)
	if !strings.Contains(output, "routing on") || !strings.Contains(output, "node 0 "+m0.base) {
		t.Fatalf("router startup log missing topology:\n%s", output)
	}
	m0.stop(t)
	m1.stop(t)
}

// TestServeDurableRestart runs the durable serve loop against a real on-disk
// data dir, drains via signal, then restarts from the same dir: the second
// run must recover the drained state and report final verdicts without any
// WAL replay.
func TestServeDurableRestart(t *testing.T) {
	dir := t.TempDir()
	text := "w reg 1 0 2\nr reg 1 1 3\nw reg 2 4 6\nr reg 1 5 7\nr reg 2 8 9\n"

	runOnce := func(ingest string) string {
		n := startNode(t, faultfs.OS(), "-data-dir", dir, "-checkpoint-interval", "50ms", "-workers", "2")
		if ingest != "" {
			if code, body := post(t, n.base+"/ingest", ingest); code != http.StatusOK {
				t.Fatalf("ingest: %d %s", code, body)
			}
		}
		return n.stop(t)
	}

	first := runOnce(text)
	if !strings.Contains(first, "recovered checkpoint epoch -1") {
		t.Fatalf("first run should cold-start:\n%s", first)
	}
	if !strings.Contains(first, "key reg") || !strings.Contains(first, "smallest k: 1") {
		t.Fatalf("first run verdict missing:\n%s", first)
	}

	second := runOnce("")
	if !strings.Contains(second, "recovered state is drained") {
		t.Fatalf("second run should recover drained state:\n%s", second)
	}
	if !strings.Contains(second, "replayed 0 ops") {
		t.Fatalf("drained restart should replay nothing:\n%s", second)
	}
	if !strings.Contains(second, "key reg") || !strings.Contains(second, "smallest k: 1") {
		t.Fatalf("second run verdict missing:\n%s", second)
	}
}

// TestServeTenantsDurable runs named tenants on one data directory (an
// in-memory filesystem): a node closed without draining comes back with
// each tenant's own operations replayed from its own WAL, one tenant drained
// while the other keeps ingesting, and prints each tenant's final verdicts.
func TestServeTenantsDurable(t *testing.T) {
	fsys := faultfs.NewMem()
	args := []string{"-tenants", "a,b", "-data-dir", "d", "-workers", "1"}
	var log strings.Builder
	first, err := serve.New(args, &log, fsys)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct{ path, body string }{
		{"/ingest/a", "w x 1 0 1\nr x 1 2 3\n"},
		{"/ingest/b", "w x 7 0 1\nw x 8 2 3\nr x 7 4 5\n"},
		{"/drain/a", ""},
	} {
		rec := httptest.NewRecorder()
		first.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", req.path, rec.Code, rec.Body)
		}
	}
	first.Close() // no drain of b: its WAL is all there is

	second := startNode(t, fsys, args...)
	if code, body := post(t, second.base+"/ingest/b", "r x 8 6 7\n"); code != http.StatusOK {
		t.Fatalf("b after restart: %d %s", code, body)
	}
	if code, body := post(t, second.base+"/ingest/a", "w y 1 0 1\n"); code != http.StatusConflict || !strings.Contains(body, `"draining"`) {
		t.Fatalf("drained a after restart: %d %s", code, body)
	}
	out := second.stop(t)
	for _, want := range []string{
		"kavserve: [a] recovered state is drained",
		"kavserve: [b] recovered checkpoint epoch -1 (0 keys), replayed 3 ops",
		"kavserve: [a] final verdicts for 1 key(s), 2 ops",
		"kavserve: [b] final verdicts for 1 key(s), 4 ops",
		"smallest k: 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("restart log missing %q:\n%s", want, out)
		}
	}
}

// TestServeRootQuota: the -tenant-max-* quotas bind a single-tenant server's
// root tenant, with the typed reject a named tenant gets.
func TestServeRootQuota(t *testing.T) {
	n := startNode(t, nil, "-tenant-max-ops", "2", "-workers", "1")
	if code, body := post(t, n.base+"/ingest", "w a 1 0 1\nr a 1 2 3\n"); code != http.StatusOK {
		t.Fatalf("within quota: %d %s", code, body)
	}
	code, body := post(t, n.base+"/ingest", "w a 2 4 5\n")
	if want := `{"code":"quota_exceeded","error":"operation quota exhausted (2 ingested, quota 2)","ingested":0}` + "\n"; code != http.StatusTooManyRequests || body != want {
		t.Fatalf("over quota: %d %q, want 429 %q", code, body, want)
	}
	n.stop(t)
}

// TestServeDrainOnSignal runs the full server loop on a real listener,
// ingests a trace, triggers the signal-driven graceful drain, and checks the
// final verdicts printed on shutdown match the offline checker.
func TestServeDrainOnSignal(t *testing.T) {
	n := startNode(t, nil, "-workers", "2", "-pprof")

	// -pprof mounts the profile index (mutex/block enabled) next to the
	// service endpoints without shadowing them.
	resp0, err := http.Get(n.base + "/debug/pprof/mutex?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp0.Body)
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusOK {
		t.Fatalf("pprof mutex profile: %s", resp0.Status)
	}

	tr := kat.NewTrace()
	for ki := 0; ki < 4; ki++ {
		h := kat.GenerateKAtomic(kat.GenConfig{Seed: int64(ki + 1), Ops: 50, Concurrency: 2, ReadFraction: 0.5})
		if ki%2 == 1 {
			h = kat.InjectStaleness(h, int64(ki+50), 0.6, 2)
		}
		for _, op := range h.Ops {
			tr.Add(fmt.Sprintf("reg-%d", ki), op)
		}
	}
	var text strings.Builder
	if err := kat.WriteTraceArrivalOrder(&text, tr); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, n.base+"/ingest", text.String())
	if code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	var ing struct{ Ingested int }
	if err := json.Unmarshal([]byte(body), &ing); err != nil || ing.Ingested != tr.Len() {
		t.Fatalf("ingest response %s (err %v), want %d ops", body, err, tr.Len())
	}

	output := n.stop(t)
	for key, wantK := range kat.SmallestKByKey(tr, kat.Options{}) {
		needle := fmt.Sprintf("smallest k: %d", wantK)
		found := false
		for _, line := range strings.Split(output, "\n") {
			if strings.Contains(line, "key "+key) && strings.Contains(line, needle) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("shutdown output missing %q for key %s:\n%s", needle, key, output)
		}
	}
	if !strings.Contains(output, "kavserve: final verdicts for 4 key(s)") {
		t.Fatalf("missing final summary:\n%s", output)
	}
}

// TestServePropertiesDrain: a per-property session's final shutdown
// printout and /verdict both carry the Δ and regularity verdicts.
func TestServePropertiesDrain(t *testing.T) {
	n := startNode(t, nil, "-workers", "1", "-properties", "k,delta,regularity")

	if code, body := post(t, n.base+"/ingest", "w a 1 0 1\nr a 1 2 3\nw a 2 4 5\nr a 2 6 7\n"); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	vresp, err := http.Get(n.base + "/verdict")
	if err != nil {
		t.Fatal(err)
	}
	vbody, _ := io.ReadAll(vresp.Body)
	vresp.Body.Close()
	if !strings.Contains(string(vbody), `"properties": "k,delta,regularity"`) {
		t.Fatalf("/verdict missing properties header: %s", vbody)
	}

	output := n.stop(t)
	if !strings.Contains(output, "smallest Δ: 0") || !strings.Contains(output, "irregular: 0  unsafe: 0") {
		t.Fatalf("final printout missing per-property verdicts:\n%s", output)
	}
}

// TestServeDefaults: a node started without tuning runs the service's
// constants — 16 ingest shards, and a 128-operation segment floor, so a
// quiescent sequential history never holds a larger open window.
func TestServeDefaults(t *testing.T) {
	n := startNode(t, nil, "-workers", "1")
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(n.base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if m := get("/metrics"); !strings.Contains(m, "\nkavserve_ingest_shards 16\n") {
		t.Errorf("/metrics lacks kavserve_ingest_shards 16:\n%s", m)
	}
	var text strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&text, "%c a %d %d %d\n", "wr"[i%2], i/2+1, 2*i, 2*i+1)
	}
	if code, body := post(t, n.base+"/ingest", text.String()); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	var doc struct{ Stats struct{ MaxOpenOps int } }
	if err := json.Unmarshal([]byte(get("/verdict")), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Stats.MaxOpenOps != 128 {
		t.Errorf("largest open window %d ops, want the 128-op floor", doc.Stats.MaxOpenOps)
	}
	n.stop(t)
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"kat"
	"kat/internal/checkpoint"
	"kat/internal/cluster"
	"kat/internal/faultfs"
	"kat/internal/online"
	"kat/internal/wal"
)

// testTimeouts are the hardened HTTP server settings at test-friendly
// scale (tight shutdown so failed drains don't stall the suite).
func testTimeouts() httpTimeouts {
	return httpTimeouts{
		readHeader: 5 * time.Second,
		read:       time.Minute,
		idle:       time.Minute,
		shutdown:   5 * time.Second,
	}
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
	if err := run([]string{"-spill-threshold-ops", "100"}, &out); err == nil {
		t.Error("-spill-threshold-ops without -data-dir accepted")
	}
	// Relief retires at -retire-ttl and spills to -data-dir; with neither it
	// has nothing to reclaim with.
	if err := run([]string{"-soft-watermark", "64M"}, &out); err == nil || !strings.Contains(err.Error(), "needs -retire-ttl or -data-dir") {
		t.Errorf("-soft-watermark alone: err = %v, want a needs--retire-ttl-or--data-dir reject", err)
	}
	if err := run([]string{"-route", "http://localhost:1", "-data-dir", "/tmp/x"}, &out); err == nil {
		t.Error("-route with -data-dir accepted")
	}
	// A quota without -tenants used to start an unbounded single-tenant
	// server without a word.
	for _, quota := range []string{"-tenant-max-ops", "-tenant-max-keys", "-tenant-max-buffered"} {
		if err := run([]string{quota, "10"}, &out); err == nil || !strings.Contains(err.Error(), "need -tenants") {
			t.Errorf("%s without -tenants: err = %v, want a need--tenants reject", quota, err)
		}
	}
}

// TestServeRouterMode boots two real member serve loops and a router serve
// loop in front of them, drives a mixed-key trace through the router, and
// checks the coordinated cluster drain plus router shutdown.
func TestServeRouterMode(t *testing.T) {
	startMember := func() (string, chan os.Signal, chan error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := online.Config{K: 2}
		cfg.Stream.Workers = 2
		sigs := make(chan os.Signal, 1)
		done := make(chan error, 1)
		go func() { done <- serve(ln, cfg, nil, 0, false, testTimeouts(), sigs, io.Discard) }()
		return "http://" + ln.Addr().String(), sigs, done
	}
	m0, sigs0, done0 := startMember()
	m1, sigs1, done1 := startMember()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rsigs := make(chan os.Signal, 1)
	var out strings.Builder
	var mu sync.Mutex
	lockedOut := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return out.Write(p)
	})
	rdone := make(chan error, 1)
	go func() {
		rdone <- serveRouter(ln, cluster.Config{
			Nodes:         []string{m0, m1},
			ProbeInterval: 50 * time.Millisecond,
		}, testTimeouts(), rsigs, lockedOut)
	}()
	base := "http://" + ln.Addr().String()

	text := "w a 1 0 1\nw b 1 0 1\nw c 1 2 3\nr a 1 2 3\nr b 1 2 3\nr c 1 4 5\n"
	resp, err := http.Post(base+"/ingest", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ingested": 6`) {
		t.Fatalf("router ingest: %s: %s", resp.Status, body)
	}
	dresp, err := http.Post(base+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	dbody, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cluster drain: %s: %s", dresp.Status, dbody)
	}
	var doc cluster.ClusterVerdict
	if err := json.Unmarshal(dbody, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Cluster || !doc.Drained || len(doc.Keys) != 3 {
		t.Fatalf("cluster drain doc: cluster=%v drained=%v keys=%d: %s", doc.Cluster, doc.Drained, len(doc.Keys), dbody)
	}

	rsigs <- os.Interrupt
	if err := <-rdone; err != nil {
		t.Fatalf("router serve: %v", err)
	}
	mu.Lock()
	output := out.String()
	mu.Unlock()
	if !strings.Contains(output, "routing on") || !strings.Contains(output, "node 0 "+m0) {
		t.Fatalf("router startup log missing topology:\n%s", output)
	}
	sigs0 <- os.Interrupt
	sigs1 <- os.Interrupt
	if err := <-done0; err != nil {
		t.Fatalf("member 0: %v", err)
	}
	if err := <-done1; err != nil {
		t.Fatalf("member 1: %v", err)
	}
}

// TestServeDurableRestart runs the durable serve loop against a real on-disk
// data dir, drains via signal, then restarts from the same dir: the second
// run must recover the drained state and report final verdicts without any
// WAL replay.
func TestServeDurableRestart(t *testing.T) {
	dir := t.TempDir()
	text := "w reg 1 0 2\nr reg 1 1 3\nw reg 2 4 6\nr reg 1 5 7\nr reg 2 8 9\n"

	runOnce := func(ingest string) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := checkpoint.Open(faultfs.OS(), dir, checkpoint.Config{Policy: wal.SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		cfg := online.Config{K: 2}
		cfg.Stream.Workers = 2
		cfg.Stream.MinSegmentOps = 1
		sigs := make(chan os.Signal, 1)
		var out strings.Builder
		var mu sync.Mutex
		lockedOut := writerFunc(func(p []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			return out.Write(p)
		})
		done := make(chan error, 1)
		go func() { done <- serve(ln, cfg, mgr, 50*time.Millisecond, false, testTimeouts(), sigs, lockedOut) }()
		base := "http://" + ln.Addr().String()
		if ingest != "" {
			resp, err := http.Post(base+"/ingest", "text/plain", strings.NewReader(ingest))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest: %s", resp.Status)
			}
		}
		sigs <- os.Interrupt
		if err := <-done; err != nil {
			t.Fatalf("serve: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		return out.String()
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

// TestServeDrainOnSignal runs the full server loop on a real listener,
// ingests a trace, triggers the signal-driven graceful drain, and checks the
// final verdicts printed on shutdown match the offline checker.
func TestServeDrainOnSignal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := online.Config{K: 2}
	cfg.Stream.Workers = 2
	cfg.Stream.MinSegmentOps = 4
	sigs := make(chan os.Signal, 1)
	var out strings.Builder
	var mu sync.Mutex
	lockedOut := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return out.Write(p)
	})
	done := make(chan error, 1)
	go func() { done <- serve(ln, cfg, nil, 0, true, testTimeouts(), sigs, lockedOut) }()
	base := "http://" + ln.Addr().String()

	// -pprof mounts the profile index (mutex/block enabled) next to the
	// service endpoints without shadowing them.
	resp0, err := http.Get(base + "/debug/pprof/mutex?debug=1")
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
	resp, err := http.Post(base+"/ingest", "text/plain", strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s: %s", resp.Status, body)
	}
	var ing struct{ Ingested int }
	if err := json.Unmarshal(body, &ing); err != nil || ing.Ingested != tr.Len() {
		t.Fatalf("ingest response %s (err %v), want %d ops", body, err, tr.Len())
	}

	sigs <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	mu.Lock()
	output := out.String()
	mu.Unlock()
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

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestServePropertiesDrain: a per-property session's final shutdown
// printout and /verdict both carry the Δ and regularity verdicts.
func TestServePropertiesDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := online.Config{K: 2}
	cfg.Stream.Workers = 1
	cfg.Stream.MinSegmentOps = 1
	cfg.Stream.Properties = kat.PropertySetAll
	sigs := make(chan os.Signal, 1)
	var out strings.Builder
	var mu sync.Mutex
	lockedOut := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return out.Write(p)
	})
	done := make(chan error, 1)
	go func() { done <- serve(ln, cfg, nil, 0, false, testTimeouts(), sigs, lockedOut) }()
	base := "http://" + ln.Addr().String()

	text := "w a 1 0 1\nr a 1 2 3\nw a 2 4 5\nr a 2 6 7\n"
	resp, err := http.Post(base+"/ingest", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s", resp.Status)
	}
	vresp, err := http.Get(base + "/verdict")
	if err != nil {
		t.Fatal(err)
	}
	vbody, _ := io.ReadAll(vresp.Body)
	vresp.Body.Close()
	if !strings.Contains(string(vbody), `"properties": "k,delta,regularity"`) {
		t.Fatalf("/verdict missing properties header: %s", vbody)
	}

	sigs <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	mu.Lock()
	output := out.String()
	mu.Unlock()
	if !strings.Contains(output, "smallest Δ: 0") || !strings.Contains(output, "irregular: 0  unsafe: 0") {
		t.Fatalf("final printout missing per-property verdicts:\n%s", output)
	}
}

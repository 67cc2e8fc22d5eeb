package online

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"kat"
	"kat/internal/checkpoint"
	"kat/internal/faultfs"
	"kat/internal/trace"
	"kat/internal/wal"
	"kat/internal/wire"
)

// ingestShape is everything a producer can observe of one /ingest answer.
type ingestShape struct {
	status     int
	retryAfter string
	body       string
}

func postShape(t *testing.T, url, contentType string, body []byte) ingestShape {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", url, ct)
	}
	b, _ := io.ReadAll(resp.Body)
	return ingestShape{resp.StatusCode, resp.Header.Get("Retry-After"), string(b)}
}

// TestIngestRejectShapesPinned provokes every answer a single node's /ingest
// can give, over real HTTP, and compares status, Retry-After and the whole
// body with what the server sent when each reject was a hand-written call in
// handleIngest — before the reject table existed. The overload message
// counts bytes since the memory budget replaced the operation cap.
func TestIngestRejectShapesPinned(t *testing.T) {
	check := func(t *testing.T, name string, got, want ingestShape) {
		t.Helper()
		if got != want {
			t.Errorf("%s: got %d Retry-After=%q %q\nwant %d Retry-After=%q %q",
				name, got.status, got.retryAfter, got.body, want.status, want.retryAfter, want.body)
		}
	}
	serve := func(h http.Handler) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL + "/ingest"
	}
	text := func(url, body string) ingestShape { return postShape(t, url, "text/plain", []byte(body)) }
	// cutEveryOp commits a cut at every quiescent instant, so an operation
	// starting behind one is detectably out of order.
	cutEveryOp := trace.StreamOptions{Workers: 1, MinSegmentOps: 1}
	// neverCut keeps every operation buffered in its open window.
	neverCut := trace.StreamOptions{Workers: 1, MinSegmentOps: 1 << 20}

	t.Run("accepted-malformed-out_of_order", func(t *testing.T) {
		url := serve(New(Config{Stream: cutEveryOp}).Handler())
		check(t, "accepted", text(url, "w a 1 0 1\nw a 2 10 11\n"),
			ingestShape{200, "", "{\"ingested\": 2}\n"})
		check(t, "malformed", text(url, "w a 3 30 31\nnot a trace line\n"),
			ingestShape{400, "", `{"code":"malformed","error":"trace: segment 2 (\"not a trace line\"): want kind key value start finish","ingested":1}` + "\n"})
		check(t, "out_of_order", text(url, "w a 4 5 6\n"),
			ingestShape{409, "", `{"code":"out_of_order","error":"trace: operation starts at or before a committed cut (key \"a\", op \"w 4 5 6\", cut at 11)","ingested":0}` + "\n"})
		check(t, "out_of_order is sticky", text(url, "w a 5 100 101\n"),
			ingestShape{409, "", `{"code":"out_of_order","error":"trace: operation starts at or before a committed cut (key \"a\", op \"w 4 5 6\", cut at 11)","ingested":0}` + "\n"})
	})

	t.Run("malformed-wire", func(t *testing.T) {
		url := serve(New(Config{Stream: cutEveryOp}).Handler())
		enc := wire.NewEncoder()
		if err := enc.Add("reg", kat.Operation{Kind: kat.KindWrite, Value: 1, Start: 0, Finish: 5}); err != nil {
			t.Fatal(err)
		}
		frame := enc.AppendFrame(nil)
		got := postShape(t, url, wire.ContentType, append(frame, "this is not a frame"...))
		check(t, "malformed wire", got,
			ingestShape{400, "", `{"code":"malformed","error":"wire: bad magic \"this\" (not a wire frame) at byte offset 21","ingested":1,"offset":21}` + "\n"})
	})

	t.Run("overload", func(t *testing.T) {
		url := serve(New(Config{MemoryBudget: 256, Stream: neverCut}).Handler())
		check(t, "accepted", text(url, "w a 1 0 1\nw a 2 2 3\n"), ingestShape{200, "", "{\"ingested\": 2}\n"})
		check(t, "overload", text(url, "w a 3 4 5\n"),
			ingestShape{503, "1", `{"code":"overload","error":"overloaded: 256 bytes buffered (budget 256)","ingested":0}` + "\n"})
	})

	t.Run("durability", func(t *testing.T) {
		var broken atomic.Bool
		fsys := faultfs.NewFaulty(faultfs.NewMem(), func(op faultfs.Op, _ string, _ int64) *faultfs.Fault {
			if broken.Load() && op == faultfs.OpWrite {
				return &faultfs.Fault{Err: true}
			}
			return nil
		})
		mgr, err := checkpoint.Open(fsys, "data", checkpoint.Config{Policy: wal.SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		srv, _, err := NewDurable(Config{Stream: trace.StreamOptions{Workers: 1, IngestShards: 1}}, mgr)
		if err != nil {
			t.Fatal(err)
		}
		url := serve(srv.Handler())
		check(t, "accepted", text(url, "w a 1 0 1\n"), ingestShape{200, "", "{\"ingested\": 1}\n"})
		broken.Store(true)
		const body = `{"code":"durability","error":"wal: shard 0 append: write data/wal-ep00000000-s0000.log: faultfs: injected fault","ingested":1}` + "\n"
		check(t, "durability", text(url, "w a 2 2 3\n"), ingestShape{500, "", body})
		broken.Store(false)
		check(t, "durability is sticky", text(url, "w a 3 4 5\n"),
			ingestShape{500, "", strings.Replace(body, `"ingested":1`, `"ingested":0`, 1)})
	})

	t.Run("draining", func(t *testing.T) {
		srv := New(Config{})
		url := serve(srv.Handler())
		if err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
		check(t, "draining", text(url, "w a 1 0 1\n"),
			ingestShape{409, "", `{"code":"draining","error":"draining: ingest is closed","ingested":0}` + "\n"})
		// The shed counters: one family, these three series, whatever was shed.
		_, exposition := getBody(t, strings.TrimSuffix(url, "/ingest")+"/metrics")
		var family []string
		for _, line := range strings.Split(exposition, "\n") {
			if strings.Contains(line, "kavserve_ingest_rejected_total") {
				family = append(family, line)
			}
		}
		const want = `# HELP kavserve_ingest_rejected_total Ingest requests shed before reading the body, by reason.
# TYPE kavserve_ingest_rejected_total counter
kavserve_ingest_rejected_total{reason="draining"} 1
kavserve_ingest_rejected_total{reason="overload"} 0
kavserve_ingest_rejected_total{reason="quota_exceeded"} 0`
		if got := strings.Join(family, "\n"); got != want {
			t.Errorf("shed counters: got\n%s\nwant\n%s", got, want)
		}
	})

	t.Run("quota_exceeded", func(t *testing.T) {
		m, err := NewMulti(Config{Stream: neverCut}, []TenantConfig{
			{Name: "ops", Quotas: TenantQuotas{MaxOps: 2}},
			{Name: "keys", Quotas: TenantQuotas{MaxKeys: 1}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		url := serve(m.Handler())
		for _, tenant := range []string{"ops", "keys"} {
			check(t, tenant+" accepted", text(url+"/"+tenant, "w a 1 0 1\nw a 2 2 3\n"), ingestShape{200, "", "{\"ingested\": 2}\n"})
		}
		check(t, "op quota", text(url+"/ops", "w a 3 4 5\n"),
			ingestShape{429, "", `{"code":"quota_exceeded","error":"tenant ops: operation quota exhausted (2 ingested, quota 2)","ingested":0}` + "\n"})
		check(t, "key quota", text(url+"/keys", "w b 1 4 5\n"),
			ingestShape{429, "", `{"code":"quota_exceeded","error":"tenant keys: key quota exhausted (1 keys, quota 1)","ingested":0}` + "\n"})
	})
}

package online

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kat"
	"kat/internal/checkpoint"
	"kat/internal/core"
	"kat/internal/faultfs"
	"kat/internal/opbuf"
	"kat/internal/trace"
	"kat/internal/wal"
)

// buildTrace generates a deterministic multi-key trace with injected
// staleness and returns both the parsed trace (for the offline reference)
// and its arrival-order text (for ingestion).
func buildTrace(t *testing.T, keys, opsPerKey int, inject float64) (*kat.Trace, string) {
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

func getVerdict(t *testing.T, base string) VerdictDoc {
	t.Helper()
	resp, err := http.Get(base + "/verdict")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /verdict: %s", resp.Status)
	}
	var doc VerdictDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func postDrain(t *testing.T, base string) VerdictDoc {
	t.Helper()
	resp, err := http.Post(base+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc VerdictDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestIngestVerdictMetricsDrain(t *testing.T) {
	srv := New(Config{K: 2, Stream: trace.StreamOptions{Workers: 2, MinSegmentOps: 1}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tr, text := buildTrace(t, 6, 80, 0.4)
	// Ingest in two chunks to prove sessions span requests.
	lines := strings.SplitAfter(strings.TrimSuffix(text, "\n"), "\n")
	half := len(lines) / 2
	for _, chunk := range []string{strings.Join(lines[:half], ""), strings.Join(lines[half:], "")} {
		resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(chunk))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /ingest: %s: %s", resp.Status, body)
		}
	}

	live := getVerdict(t, ts.URL)
	if live.Drained {
		t.Fatal("live verdict claims drained")
	}
	if len(live.Keys) != len(tr.Keys) {
		t.Fatalf("live verdict has %d keys, want %d", len(live.Keys), len(tr.Keys))
	}

	final := postDrain(t, ts.URL)
	if !final.Drained {
		t.Fatal("drain response not drained")
	}
	want := kat.SmallestKByKey(tr, kat.Options{})
	for _, ks := range final.Keys {
		if ks.SmallestK != want[ks.Key] {
			t.Fatalf("key %s: server smallest k=%d, offline %d", ks.Key, ks.SmallestK, want[ks.Key])
		}
		wantStatus := "ok"
		if want[ks.Key] > 2 {
			wantStatus = "violating"
		}
		if ks.Status != wantStatus {
			t.Fatalf("key %s: status %q (k=%d), want %q", ks.Key, ks.Status, ks.SmallestK, wantStatus)
		}
		if ks.Status == "violating" && ks.Violation == nil {
			t.Fatalf("key %s: violating without a violation witness", ks.Key)
		}
		if ks.PendingOps != 0 {
			t.Fatalf("key %s: pending ops after drain: %d", ks.Key, ks.PendingOps)
		}
	}

	// Per-key endpoint agrees; unknown keys 404.
	resp, err := http.Get(ts.URL + "/verdict/" + final.Keys[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	var one KeyStatus
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if statusSansViolation(one) != statusSansViolation(final.Keys[0]) {
		t.Fatalf("per-key verdict %+v != %+v", one, final.Keys[0])
	}
	resp, err = http.Get(ts.URL + "/verdict/no-such-key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: %s, want 404", resp.Status)
	}

	// Metrics: ops ingested matches; the configured memo is neither exposed
	// nor touched (the streaming engine does not consult one).
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metricsText := string(metricsBody)
	wantLine := fmt.Sprintf("kavserve_ops_ingested_total %d", tr.Len())
	for _, frag := range []string{wantLine, "kavserve_segments_closed_total", "kavserve_open_window_ops",
		"# TYPE kavserve_buffered_bytes gauge", "kavserve_buffered_bytes 0", // drained above
		`kavserve_shard_ingested_ops_total{shard="0"}`, `kavserve_shard_open_window_ops{shard="0"}`,
		"# TYPE kavserve_shard_ingested_ops_total counter",
		`kavserve_ingest_requests_by_size_total{bucket="le256"} 2`,
		"# TYPE kavserve_ingest_lock_acquisitions_total counter",
		"# TYPE kavserve_verify_backlog_ops gauge", "kavserve_verify_backlog_ops 0", // drained above
		"# TYPE kavserve_verify_backlog_waits_total counter", "kavserve_verify_backlog_waits_total 0"} {
		if !strings.Contains(metricsText, frag) {
			t.Fatalf("metrics output missing %q:\n%s", frag, metricsText)
		}
	}
	if strings.Contains(metricsText, "kavserve_memo_") {
		t.Fatalf("want no kavserve_memo_* family:\n%s", metricsText)
	}
	// Per-shard ingest totals must sum to the overall total.
	var shardSum, total float64
	for _, line := range strings.Split(metricsText, "\n") {
		var v float64
		if strings.HasPrefix(line, "kavserve_shard_ingested_ops_total{") {
			fmt.Sscanf(line[strings.Index(line, "} ")+2:], "%g", &v)
			shardSum += v
		}
		if strings.HasPrefix(line, "kavserve_ops_ingested_total ") {
			fmt.Sscanf(strings.TrimPrefix(line, "kavserve_ops_ingested_total "), "%g", &total)
		}
	}
	if shardSum != total || total == 0 {
		t.Fatalf("per-shard ingest totals sum to %g, total %g", shardSum, total)
	}

	// Ingest after drain is refused: 409 with the "draining" code.
	status, reject := postIngest(t, ts.URL, "w zz 1 0 1\n")
	if status != http.StatusConflict || reject.Code != "draining" {
		t.Fatalf("ingest after drain: %d %+v, want 409 draining", status, reject)
	}
}

// postIngest posts one body and decodes the reject envelope (zero-valued on
// success).
func postIngest(t *testing.T, base, body string) (int, IngestReject) {
	t.Helper()
	resp, err := http.Post(base+"/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reject IngestReject
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&reject); err != nil {
			t.Fatalf("reject body of %s did not decode: %v", resp.Status, err)
		}
	}
	return resp.StatusCode, reject
}

// statusSansViolation normalizes the pointer field for struct comparison.
func statusSansViolation(ks KeyStatus) KeyStatus {
	ks.Violation = nil
	return ks
}

// TestDurableServerCrashRestart runs a durable server over an in-memory
// crash-imaged filesystem: ingest over HTTP (with a mid-stream checkpoint),
// cut the disk at a byte boundary inside the log written after the
// checkpoint, restart a second server from the image,
// and require its drained verdicts to be a per-key-prefix-consistent
// subset verified against a fresh in-memory server fed the same text. Also
// pins the durability metrics names into /metrics.
func TestDurableServerCrashRestart(t *testing.T) {
	tr, text := buildTrace(t, 4, 60, 0.4)
	_ = tr
	mem := faultfs.NewMem()
	mgr, err := checkpoint.Open(mem, "data", checkpoint.Config{Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	srv, rs, err := NewDurable(Config{K: 2, Stream: trace.StreamOptions{Workers: 2, MinSegmentOps: 1}}, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CheckpointEpoch != -1 {
		t.Fatalf("cold start restored a checkpoint: %+v", rs)
	}
	ts := httptest.NewServer(srv.Handler())

	lines := strings.SplitAfter(strings.TrimSuffix(text, "\n"), "\n")
	var mark int64 // bytes written when the checkpoint is in place
	third := len(lines) / 3
	chunks := []string{strings.Join(lines[:third], ""), strings.Join(lines[third:2*third], ""), strings.Join(lines[2*third:], "")}
	for i, chunk := range chunks {
		if status, reject := postIngest(t, ts.URL, chunk); status != http.StatusOK {
			t.Fatalf("ingest chunk %d: %d %+v", i, status, reject)
		}
		if i == 0 {
			if err := mgr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			mark = mem.TotalWriteBytes()
		}
	}

	// Durability metrics are exported and live.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, frag := range []string{
		"kavserve_wal_fsyncs_total", "kavserve_wal_fsync_seconds_total",
		"kavserve_wal_appended_records_total", "kavserve_wal_appended_bytes_total",
		"kavserve_wal_rotations_total 1", "kavserve_checkpoints_total 1",
		"kavserve_recovery_replayed_ops_total", "kavserve_spilled_ops",
	} {
		if !strings.Contains(string(mbody), frag) {
			t.Fatalf("durable metrics missing %q:\n%s", frag, mbody)
		}
	}
	ts.Close()
	mgr.Close()

	// Crash: keep the checkpoint and 80% of the bytes written after it; the
	// tail (late WAL records) is torn away mid-record. The cut is measured
	// from the checkpoint so that the size of a record cannot move it before
	// the checkpoint's rename.
	img := mem.CrashImage(mark + (mem.TotalWriteBytes()-mark)*4/5)
	mgr2, err := checkpoint.Open(img, "data", checkpoint.Config{Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	srv2, rs2, err := NewDurable(Config{K: 2, Stream: trace.StreamOptions{Workers: 2, MinSegmentOps: 1}}, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.CheckpointEpoch < 0 {
		t.Fatalf("restart found no checkpoint: %+v", rs2)
	}
	if err := srv2.Drain(); err != nil {
		t.Fatal(err)
	}
	recovered := srv2.Verdict()

	// Reference: an in-memory server fed exactly the recovered per-key
	// prefixes of the original text, in order.
	perKey := map[string][]string{}
	for _, line := range lines {
		f := strings.Fields(line)
		perKey[f[1]] = append(perKey[f[1]], line)
	}
	ref := New(Config{K: 2, Stream: trace.StreamOptions{Workers: 2, MinSegmentOps: 1}})
	for _, ks := range recovered.Keys {
		pfx := perKey[ks.Key]
		if ks.Ops > len(pfx) {
			t.Fatalf("key %s recovered %d ops, only %d sent", ks.Key, ks.Ops, len(pfx))
		}
		for _, line := range pfx[:ks.Ops] {
			if _, err := ref.sess.AppendTraceBatch(strings.NewReader(line)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	want := ref.Verdict()
	if len(recovered.Keys) != len(want.Keys) {
		t.Fatalf("recovered %d keys, reference %d", len(recovered.Keys), len(want.Keys))
	}
	for i, ks := range recovered.Keys {
		if statusSansViolation(ks) != statusSansViolation(want.Keys[i]) {
			t.Fatalf("recovered verdict diverges:\n got %+v\nwant %+v", ks, want.Keys[i])
		}
	}
}

// TestDurableServerDrainedRestart drains a durable server, publishes the
// terminal checkpoint, and restarts: the new server must come up already
// drained, serve the same final verdicts, and 409 all ingest.
func TestDurableServerDrainedRestart(t *testing.T) {
	_, text := buildTrace(t, 3, 40, 0.3)
	mem := faultfs.NewMem()
	mgr, err := checkpoint.Open(mem, "data", checkpoint.Config{Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := NewDurable(Config{K: 2, Stream: trace.StreamOptions{Workers: 2, MinSegmentOps: 1}}, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.sess.AppendTraceBatch(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatalf("terminal checkpoint: %v", err)
	}
	want := srv.Verdict()
	mgr.Close()

	mgr2, err := checkpoint.Open(mem, "data", checkpoint.Config{Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	srv2, rs, err := NewDurable(Config{K: 2, Stream: trace.StreamOptions{Workers: 2, MinSegmentOps: 1}}, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.ReplayedOps != 0 {
		t.Fatalf("drained restart replayed ops: %+v", rs)
	}
	got := srv2.Verdict()
	if !got.Drained {
		t.Fatal("drained restart not marked drained")
	}
	if len(got.Keys) != len(want.Keys) {
		t.Fatalf("drained restart has %d keys, want %d", len(got.Keys), len(want.Keys))
	}
	for i := range got.Keys {
		if statusSansViolation(got.Keys[i]) != statusSansViolation(want.Keys[i]) {
			t.Fatalf("drained restart verdict diverges:\n got %+v\nwant %+v", got.Keys[i], want.Keys[i])
		}
	}
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	status, reject := postIngest(t, ts.URL, "w zz 1 0 1\n")
	if status != http.StatusConflict || reject.Code != "draining" {
		t.Fatalf("ingest into drained restart: %d %+v, want 409 draining", status, reject)
	}
}

// TestRestartWitnessNotStaleFloor: segment witnesses are not checkpointed,
// so a key found violating before a drained restart has none afterwards. The
// staleness-floor witness is true only of a key a cross-boundary stale read
// saturated; any other violating key must say its witness was not kept
// rather than blame a stale read that never happened.
func TestRestartWitnessNotStaleFloor(t *testing.T) {
	_, text := buildTrace(t, 3, 40, 0.3)
	cfg := Config{K: 2, Stream: trace.StreamOptions{Workers: 2, MinSegmentOps: 1}}
	mem := faultfs.NewMem()
	open := func() (*checkpoint.Manager, *Server) {
		mgr, err := checkpoint.Open(mem, "data", checkpoint.Config{Policy: wal.SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		srv, _, err := NewDurable(cfg, mgr)
		if err != nil {
			t.Fatal(err)
		}
		return mgr, srv
	}
	mgr, srv := open()
	if _, err := srv.sess.AppendTraceBatch(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	want := srv.Verdict()
	mgr.Close()
	mgr2, srv2 := open()
	defer mgr2.Close()
	got := srv2.Verdict()
	if len(got.Keys) != len(want.Keys) {
		t.Fatalf("restart has %d keys, want %d", len(got.Keys), len(want.Keys))
	}
	unsaturated := 0
	for i, ks := range got.Keys {
		if ks.Status != "violating" {
			continue
		}
		if ks.Violation == nil || ks.Violation.Seq != -1 || ks.Violation.K != ks.SmallestK {
			t.Fatalf("key %s: restarted witness %+v", ks.Key, ks.Violation)
		}
		stale := strings.Contains(ks.Violation.Err, "staleness floor")
		if ks.Saturated != stale {
			t.Fatalf("key %s (saturated %v): restarted witness %q, before the restart %+v",
				ks.Key, ks.Saturated, ks.Violation.Err, want.Keys[i].Violation)
		}
		if !ks.Saturated {
			unsaturated++
			if !strings.Contains(ks.Violation.Err, "before the last restart") {
				t.Fatalf("key %s: restarted witness %q does not say it was lost", ks.Key, ks.Violation.Err)
			}
		}
	}
	if unsaturated == 0 {
		t.Fatalf("no unsaturated violating key to probe: %+v", got.Keys)
	}
}

// TestDurableRestartWithRetirement is the flagship configuration — a data
// directory and a retirement TTL, default shards and sweep cadence — killed
// with every byte kept and restarted. The WAL is replayed shard file by shard
// file, so after the first file the watermark stands at the end of the run:
// a replay that swept on its word retired the later files' keys under their
// own overlapping next operation, and the directory could never be opened
// again. The restart must succeed without retiring anything mid-replay, and
// the recovered server must drain to the verdicts of the one that never
// stopped.
func TestDurableRestartWithRetirement(t *testing.T) {
	// 2400 staggered lifetimes of 40 linked, overlapping writes: a key never
	// quiesces while it lives, eight or so live at any time, and 96 000
	// operations cross the default sweep interval on every shard.
	const keys = 2400
	var b strings.Builder
	if err := kat.WriteTraceArrivalOrder(&b, kat.GenerateChurn(kat.ChurnConfig{Seed: 1, Lifetimes: keys, OpsPerLifetime: 40, NoQuiesce: true})); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(b.String(), "\n"), "\n")
	cfg := Config{K: 2, Stream: trace.StreamOptions{Workers: 2, RetireTTL: 100}}
	mem := faultfs.NewMem()
	mgr, err := checkpoint.Open(mem, "data", checkpoint.Config{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv, _, err := NewDurable(cfg, mgr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for off := 0; off < len(lines); off += 512 {
		req := strings.Join(lines[off:min(off+512, len(lines))], "")
		if status, reject := postIngest(t, ts.URL, req); status != http.StatusOK {
			t.Fatalf("ingest request at line %d: %d %+v", off, status, reject)
		}
	}
	if st := srv.sess.Stats(); st.Retirements == 0 {
		t.Fatal("the live run retired nothing: the trace does not cross a sweep interval")
	}
	img := mem.CrashImage(mem.TotalWriteBytes())

	mgr2, err := checkpoint.Open(img, "data", checkpoint.Config{Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	srv2, rs, err := NewDurable(cfg, mgr2)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if rs.CheckpointEpoch != -1 || rs.ReplayedOps != int64(len(lines)) {
		t.Fatalf("restart replayed %d of %d ops from checkpoint %d, want all of them from the WAL alone", rs.ReplayedOps, len(lines), rs.CheckpointEpoch)
	}
	// Every retirement so far comes from the one sweep that ends the replay:
	// one mid-replay would have been re-admitted by its key's next record (or
	// refused it), and the counters would disagree.
	if st := srv2.sess.Stats(); st.Readmissions != 0 || st.Retirements == 0 || st.Retirements != st.RetiredKeys {
		t.Fatalf("after recovery: %d retirements, %d retired keys, %d re-admissions; replay must not retire and its closing sweep must", st.Retirements, st.RetiredKeys, st.Readmissions)
	}
	if err := srv2.Drain(); err != nil {
		t.Fatal(err)
	}
	got, want := srv2.Verdict(), postDrain(t, ts.URL)
	if len(got.Keys) != len(want.Keys) || len(want.Keys) != keys {
		t.Fatalf("recovered %d keys, uninterrupted %d, want %d", len(got.Keys), len(want.Keys), keys)
	}
	for i := range got.Keys {
		g, w := got.Keys[i], want.Keys[i]
		g.Retired, w.Retired = false, false // which sweep got to a key first is not a verdict
		if statusSansViolation(g) != statusSansViolation(w) {
			t.Fatalf("recovered verdict diverges:\n got %+v\nwant %+v", g, w)
		}
	}
}

// TestDrainIsDurableWhenAcknowledged: once POST /drain has answered
// "drained": true, a crash that loses no byte must bring the server back
// drained. Drain seals the state itself; a caller that forgets to cannot
// leave an acknowledged drain replayable as a live session.
func TestDrainIsDurableWhenAcknowledged(t *testing.T) {
	_, text := buildTrace(t, 3, 40, 0.3)
	mem := faultfs.NewMem()
	mgr, err := checkpoint.Open(mem, "data", checkpoint.Config{Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	cfg := Config{K: 2, Stream: trace.StreamOptions{Workers: 2, MinSegmentOps: 1}}
	srv, _, err := NewDurable(cfg, mgr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if status, reject := postIngest(t, ts.URL, text); status != http.StatusOK {
		t.Fatalf("ingest: %d %+v", status, reject)
	}
	want := postDrain(t, ts.URL)
	if !want.Drained {
		t.Fatal("/drain did not answer drained")
	}
	sealed := mgr.Stats().Checkpoints
	if err := mgr.Checkpoint(); err != nil || mgr.Stats().Checkpoints != sealed {
		t.Fatalf("a checkpoint after the seal: err %v, %d -> %d published; a drained session is terminal and must not be snapshotted twice", err, sealed, mgr.Stats().Checkpoints)
	}

	mgr2, err := checkpoint.Open(mem.CrashImage(mem.TotalWriteBytes()), "data", checkpoint.Config{Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	srv2, rs, err := NewDurable(cfg, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	got := srv2.Verdict()
	if !got.Drained || !srv2.Draining() || rs.ReplayedOps != 0 {
		t.Fatalf("restart after an acknowledged drain: drained=%v draining=%v, replayed %d ops; want a drained server and no replay", got.Drained, srv2.Draining(), rs.ReplayedOps)
	}
	for i := range got.Keys {
		if statusSansViolation(got.Keys[i]) != statusSansViolation(want.Keys[i]) {
			t.Fatalf("drained restart verdict diverges:\n got %+v\nwant %+v", got.Keys[i], want.Keys[i])
		}
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if status, reject := postIngest(t, ts2.URL, "w zz 1 0 1\n"); status != http.StatusConflict || reject.Code != RejectDraining.Code {
		t.Fatalf("ingest into the restarted server: %d %+v, want 409 draining", status, reject)
	}
}

func TestIngestErrors(t *testing.T) {
	// MinSegmentOps 1 commits a cut at every quiescent instant, so an
	// operation starting at or before a committed cut is detectable.
	srv := New(Config{Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Malformed line: 400 with the "malformed" code, but preceding ops
	// were ingested and the body says so.
	status, reject := postIngest(t, ts.URL, "w a 1 0 1\nnot a trace line\n")
	if status != http.StatusBadRequest || reject.Code != "malformed" {
		t.Fatalf("malformed ingest: %d %+v, want 400 malformed", status, reject)
	}
	if reject.Ingested != 1 {
		t.Fatalf("reject body should report the partial ingest: %+v", reject)
	}

	// Out-of-order arrival: 409 "out_of_order", and the session error is
	// sticky.
	for _, line := range []string{"w a 2 10 11\n", "w a 3 30 31\n"} {
		if status, reject := postIngest(t, ts.URL, line); status != http.StatusOK {
			t.Fatalf("in-order ingest rejected: %d %+v", status, reject)
		}
	}
	status, reject = postIngest(t, ts.URL, "w a 4 5 6\n")
	if status != http.StatusConflict || reject.Code != "out_of_order" {
		t.Fatalf("out-of-order ingest: %d %+v, want 409 out_of_order", status, reject)
	}
	status, reject = postIngest(t, ts.URL, "w a 5 100 101\n")
	if status != http.StatusConflict || reject.Code != "out_of_order" {
		t.Fatalf("ingest after sticky error: %d %+v, want 409 out_of_order", status, reject)
	}
}

// TestIngestOverloadShedding drives the upfront overload gate: once the
// buffered bytes reach Config.MemoryBudget, /ingest sheds with 503 +
// Retry-After + {"code":"overload"} without reading the body, and accepts
// again once verification drains the backlog (here: after Drain).
func TestIngestOverloadShedding(t *testing.T) {
	srv := New(Config{
		MemoryBudget: opbuf.ChunkBytes, // one key's window of a few operations
		// A huge MinSegmentOps keeps every op buffered in the open window,
		// so the gate trips deterministically.
		Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1 << 20},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var body strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&body, "w a %d %d %d\n", i+1, i*2, i*2+1)
	}
	if status, reject := postIngest(t, ts.URL, body.String()); status != http.StatusOK {
		t.Fatalf("first ingest: %d %+v", status, reject)
	}

	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader("w a 9 100 101\n"))
	if err != nil {
		t.Fatal(err)
	}
	var reject IngestReject
	if err := json.NewDecoder(resp.Body).Decode(&reject); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || reject.Code != "overload" {
		t.Fatalf("overloaded ingest: %s %+v, want 503 overload", resp.Status, reject)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 overload without Retry-After")
	}
	if reject.Ingested != 0 {
		t.Fatalf("overload shed after accepting ops: %+v", reject)
	}

	// The shed request lost nothing: the producer can resend the same
	// batch once the backlog clears.
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	doc := srv.Verdict()
	if len(doc.Keys) != 1 || doc.Keys[0].Ops != 8 {
		t.Fatalf("unexpected post-shed state: %+v", doc.Keys)
	}
	// Metrics record the shed by reason.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), `kavserve_ingest_rejected_total{reason="overload"} 1`) {
		t.Fatalf("metrics missing overload shed counter:\n%s", mbody)
	}
}

// TestCrossBoundaryViolationWitness covers violations the segment verdicts
// never see: a read reaching past the staleness horizon is recorded as a
// kFloor by the engine's cross-boundary path, and the server must still
// report a witness (Seq -1) for it — and must downgrade saturated keys whose
// floor is within the bound to "indeterminate" rather than claim "ok".
func TestCrossBoundaryViolationWitness(t *testing.T) {
	// Horizon 2: a read three writes back crosses dispatched segments.
	mk := func(k int) (*Server, *httptest.Server) {
		srv := New(Config{K: k, Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1, Horizon: 2}})
		return srv, httptest.NewServer(srv.Handler())
	}
	text := "w a 1 0 1\nw a 2 10 11\nw a 3 20 21\nw a 4 30 31\nw a 5 40 41\nr a 1 50 51\nw a 6 60 61\n"

	srv, ts := mk(2)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	doc := srv.Verdict()
	if len(doc.Keys) != 1 {
		t.Fatalf("keys: %+v", doc.Keys)
	}
	ks := doc.Keys[0]
	if !ks.Saturated || ks.Status != "violating" {
		t.Fatalf("want saturated violating key, got %+v", ks)
	}
	if ks.Violation == nil || ks.Violation.Seq != -1 || ks.Violation.K != ks.SmallestK {
		t.Fatalf("cross-boundary violation lacks its synthesized witness: %+v", ks.Violation)
	}

	// Same trace, bound above the floor: the floor alone cannot prove a
	// violation, and saturation forbids a definite ok.
	srv2, ts2 := mk(100)
	defer ts2.Close()
	resp, err = http.Post(ts2.URL+"/ingest", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := srv2.Drain(); err != nil {
		t.Fatal(err)
	}
	ks = srv2.Verdict().Keys[0]
	if ks.Status != "indeterminate" {
		t.Fatalf("saturated key within bound: status %q, want indeterminate (%+v)", ks.Status, ks)
	}
	if ks.Violation != nil {
		t.Fatalf("indeterminate key should carry no violation witness: %+v", ks.Violation)
	}
}

func TestHealthz(t *testing.T) {
	srv := New(Config{Stream: trace.StreamOptions{Workers: 1}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func() Health {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz: %s", resp.Status)
		}
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := get(); h.Status != "ok" || h.Draining {
		t.Fatalf("fresh server health %+v, want ok", h)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	// /healthz stays 200 while draining — the node is alive and serves
	// verdicts — but reports the state so a router can route around ingest.
	if h := get(); h.Status != "draining" || !h.Draining {
		t.Fatalf("drained server health %+v, want draining", h)
	}
}

// TestHundredConcurrentReplayClients is the acceptance check: 100 concurrent
// clients replay a partitioned trace into kavserve's handler, and after
// drain the server's per-key smallest-k must equal the offline checker's on
// the merged trace. Keys are partitioned by hash so each key's operations
// arrive in order from exactly one client — the documented ingest contract.
func TestHundredConcurrentReplayClients(t *testing.T) {
	const clients = 100
	keys, opsPerKey := 40, 60
	if testing.Short() {
		keys, opsPerKey = 12, 30
	}
	pool := core.NewPool(4)
	defer pool.Close()
	srv := New(Config{K: 2, Stream: trace.StreamOptions{Pool: pool, MinSegmentOps: 4, Horizon: 64}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tr, text := buildTrace(t, keys, opsPerKey, 0.5)
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
			resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(body))
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

	final := postDrain(t, ts.URL)
	if !final.Drained {
		t.Fatal("not drained")
	}
	if int(final.Stats.Ops) != tr.Len() {
		t.Fatalf("server saw %d ops, trace has %d", final.Stats.Ops, tr.Len())
	}
	want := kat.SmallestKByKey(tr, kat.Options{})
	if len(final.Keys) != len(want) {
		t.Fatalf("server has %d keys, offline %d", len(final.Keys), len(want))
	}
	for _, ks := range final.Keys {
		if ks.Saturated {
			t.Fatalf("key %s saturated the horizon; raise Horizon in the test config", ks.Key)
		}
		if ks.SmallestK != want[ks.Key] {
			t.Fatalf("key %s: server smallest k=%d, offline kavcheck %d", ks.Key, ks.SmallestK, want[ks.Key])
		}
	}
}

// TestPerPropertyVerdictsMatchOffline: a session configured for the full
// property set serves per-key Δ-atomicity and regularity verdicts that
// match the offline checkers exactly after drain, the per-property metric
// families show up on /metrics, and a k-only server's document stays
// byte-compatible (no extra fields).
func TestPerPropertyVerdictsMatchOffline(t *testing.T) {
	srv := New(Config{K: 2, Stream: trace.StreamOptions{Workers: 2, MinSegmentOps: 1, Properties: trace.PropertySetAll}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tr, text := buildTrace(t, 6, 80, 0.4)
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %s", resp.Status)
	}

	final := postDrain(t, ts.URL)
	if !final.Drained {
		t.Fatal("drain response not drained")
	}
	if final.Properties != "k,delta,regularity" {
		t.Fatalf("doc properties = %q", final.Properties)
	}
	wantK := kat.SmallestKByKey(tr, kat.Options{})
	for _, ks := range final.Keys {
		h := tr.Keys[ks.Key]
		if ks.Err != "" {
			t.Fatalf("key %s: unexpected error %q", ks.Key, ks.Err)
		}
		if ks.Delta == nil || ks.Regularity == nil {
			t.Fatalf("key %s: missing per-property verdicts: %+v", ks.Key, ks)
		}
		if ks.SmallestK != wantK[ks.Key] {
			t.Fatalf("key %s: k=%d, offline %d", ks.Key, ks.SmallestK, wantK[ks.Key])
		}
		d, err := kat.SmallestDelta(h)
		if err != nil {
			t.Fatalf("key %s: SmallestDelta: %v", ks.Key, err)
		}
		if ks.Delta.Saturated {
			if ks.Delta.SmallestDelta < 1 || ks.Delta.SmallestDelta > d {
				t.Fatalf("key %s: saturated Δ=%d outside (0, %d]", ks.Key, ks.Delta.SmallestDelta, d)
			}
		} else if ks.Delta.SmallestDelta != d {
			t.Fatalf("key %s: Δ=%d, offline %d", ks.Key, ks.Delta.SmallestDelta, d)
		}
		p, err := kat.Prepare(kat.Normalize(h))
		if err != nil {
			t.Fatalf("key %s: Prepare: %v", ks.Key, err)
		}
		rv := kat.CheckProperties(p)
		if ks.Regularity.IrregularReads != len(rv.IrregularReads) || ks.Regularity.UnsafeReads != len(rv.UnsafeReads) {
			t.Fatalf("key %s: regularity %d/%d, offline %d/%d", ks.Key,
				ks.Regularity.IrregularReads, ks.Regularity.UnsafeReads, len(rv.IrregularReads), len(rv.UnsafeReads))
		}
		if ks.Regularity.Regular != (len(rv.IrregularReads) == 0) || ks.Regularity.Safe != (len(rv.UnsafeReads) == 0) {
			t.Fatalf("key %s: regular/safe flags inconsistent: %+v", ks.Key, ks.Regularity)
		}
	}

	// /verdict/{key} carries the same per-property fields.
	kresp, err := http.Get(ts.URL + "/verdict/" + final.Keys[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	defer kresp.Body.Close()
	var one KeyStatus
	if err := json.NewDecoder(kresp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if one.Delta == nil || one.Regularity == nil {
		t.Fatalf("/verdict/{key} missing per-property verdicts: %+v", one)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, family := range []string{
		`kavserve_property_segments_total{property="k"}`,
		`kavserve_property_segments_total{property="delta"}`,
		`kavserve_property_segments_total{property="regularity"}`,
		"kavserve_segment_smallest_k_max",
		"kavserve_segment_smallest_delta_max",
		"kavserve_irregular_reads_total",
		"kavserve_unsafe_reads_total",
		"kavserve_stale_reads_total",
		"kavserve_saturated_keys",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %s", family)
		}
	}

	// A k-only server's document is unchanged: no properties header, no
	// per-key sub-verdicts, no per-property metric families beyond k.
	plain := New(Config{K: 2, Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1}})
	pts := httptest.NewServer(plain.Handler())
	defer pts.Close()
	resp, err = http.Post(pts.URL+"/ingest", "text/plain", strings.NewReader("w a 1 0 1\nr a 1 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	doc := postDrain(t, pts.URL)
	if doc.Properties != "" {
		t.Fatalf("k-only doc properties = %q, want empty", doc.Properties)
	}
	if len(doc.Keys) != 1 || doc.Keys[0].Delta != nil || doc.Keys[0].Regularity != nil {
		t.Fatalf("k-only key status grew per-property fields: %+v", doc.Keys)
	}
}

// TestPerPropertyStaleReadFolds: cross-boundary stale reads fold sound
// floors into the Δ verdict and exact counts into the regularity verdict.
func TestPerPropertyStaleReadFolds(t *testing.T) {
	srv := New(Config{K: 2, Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1, Horizon: 2, Properties: trace.PropertySetAll}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// The read of value 1 reaches five writes back: past the horizon, so
	// it is dropped from its window, saturates k and Δ, and is counted as
	// definitively irregular (and unsafe: no write overlaps it).
	text := "w a 1 0 1\nw a 2 10 11\nw a 3 20 21\nw a 4 30 31\nw a 5 40 41\nr a 1 50 51\nw a 6 60 61\n"
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	doc := srv.Verdict()
	if len(doc.Keys) != 1 {
		t.Fatalf("keys: %+v", doc.Keys)
	}
	ks := doc.Keys[0]
	if !ks.Saturated || ks.Delta == nil || !ks.Delta.Saturated {
		t.Fatalf("want saturated k and Δ verdicts, got %+v", ks)
	}
	if ks.Delta.SmallestDelta < 1 {
		t.Fatalf("Δ floor = %d, want >= 1", ks.Delta.SmallestDelta)
	}
	if ks.Regularity == nil || ks.Regularity.IrregularReads != 1 || ks.Regularity.UnsafeReads != 1 {
		t.Fatalf("stale read not counted exactly: %+v", ks.Regularity)
	}
	if ks.Regularity.Regular || ks.Regularity.Safe {
		t.Fatalf("regular/safe flags wrong: %+v", ks.Regularity)
	}
}

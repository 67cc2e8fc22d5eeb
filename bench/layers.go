//go:build linux

package main

// The traced run. The engine has no stage timers yet, so every layer is
// measured from outside: the same request bodies are replayed in-process once
// per layer boundary, calling only exported functions, and a layer's self
// time is its pass minus the passes of the layers beneath it. README.md
// ("How to read spans.json", "Stage budget") says what that can and cannot
// show.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"kat"
	"kat/internal/checkpoint"
	"kat/internal/core"
	"kat/internal/delta"
	"kat/internal/faultfs"
	"kat/internal/fzf"
	"kat/internal/history"
	"kat/internal/lbt"
	"kat/internal/online"
	"kat/internal/regularity"
	"kat/internal/trace"
	"kat/internal/wal"
	"kat/internal/wire"
	"kat/internal/zone"
)

// perLayer names every per-layer metric with its unit, in print order;
// BENCHMARK.json repeats the table and a test keeps the two equal. A metric
// whose layer a workload does not touch reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"client.requests", "count"},
	{"client.rejects", "count"},
	{"client.ack_ms_p50", "ms"},
	{"client.ack_ms_p99", "ms"},
	{"client.ack_ms_max", "ms"},
	{"client.send_mb_per_s", "MB/s"},
	{"online.http_us_per_req", "us"},
	{"online.handler_ns_per_op", "ns"},
	{"online.drain_ms", "ms"},
	{"online.verdict_doc_ms", "ms"},
	{"online.metrics_scrape_ms", "ms"},
	{"wire.decode_ns_per_op", "ns"},
	{"wire.body_bytes_per_op", "B"},
	{"trace.parse_text_ns_per_op", "ns"},
	{"trace.offline_parse_ns_per_op", "ns"},
	{"trace.append_ns_per_op", "ns"},
	{"trace.flush_ms", "ms"},
	{"trace.segments", "count"},
	{"trace.ops_per_segment", "ops"},
	{"trace.merges", "count"},
	{"trace.peak_buffered_ops", "ops"},
	{"trace.lock_acq_per_op", "count"},
	{"trace.retired_keys", "count"},
	{"trace.retire_rate", "ratio"},
	{"trace.stream_ns_per_op", "ns"},
	{"history.prepare_ns_per_op", "ns"},
	{"zone.decompose_ns_per_op", "ns"},
	{"zone.cuts_per_kop", "count"},
	{"fzf.check_ns_per_op", "ns"},
	{"lbt.check_ns_per_op", "ns"},
	{"core.check_k2_ns_per_op", "ns"},
	{"core.smallestk_ns_per_op", "ns"},
	{"delta.smallest_ns_per_op", "ns"},
	{"regularity.check_ns_per_op", "ns"},
	{"wal.append_ns_per_op", "ns"},
	{"wal.bytes_per_op", "B"},
	{"wal.fsync_ms_p50", "ms"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.bytes", "B"},
	{"checkpoint.recover_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.heap_live_mb_after_drain", "MB"},
	{"bench.cpu_us_per_op", "us"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
	{"bench.verify_s", "s"},
}

// budgetLayers names the metrics whose per-op CPU times add up to the stage
// budget of a workload: each is time no other listed layer also counts. What
// is left of cpu_us_per_op after them is bench.unattributed_pct.
func budgetLayers(w workload) []string {
	if w.offline {
		return []string{"trace.offline_parse_ns_per_op", "history.prepare_ns_per_op", "core.check_k2_ns_per_op"}
	}
	return []string{
		"online.handler_ns_per_op",
		"wire.decode_ns_per_op",
		"trace.parse_text_ns_per_op",
		"trace.append_ns_per_op",
		"wal.append_ns_per_op",
		"history.prepare_ns_per_op",
		"core.smallestk_ns_per_op", // the serving engine runs smallest-k, not the fixed-k check
		"delta.smallest_ns_per_op",
		"regularity.check_ns_per_op",
	}
}

// layerMetrics collects the traced run's numbers and spans.
type layerMetrics struct {
	values map[string]float64
	spans  []span
	epoch  time.Time
	failed int
}

func (lm *layerMetrics) set(name string, v float64) { lm.values[name] = v }

func (lm *layerMetrics) list() []metric {
	out := make([]metric, len(perLayer))
	for i, m := range perLayer {
		out[i] = metric{m.name, m.unit, lm.values[m.name]}
	}
	return out
}

// took is what one timed call cost: wall time, the CPU time of the calling
// thread, and the ID of the span recorded for it.
type took struct {
	wall, cpu int64 // nanoseconds
	id        int
}

// timed runs fn as one span. The traced passes run on a goroutine locked to
// its thread, so the thread's CPU time is the CPU the call itself burned on
// the caller's side: it leaves out what the engine's workers did meanwhile
// and the time the call was blocked on their backpressure.
func (lm *layerMetrics) timed(name string, req, parent int, fn func()) took {
	c0, t0 := threadCPU(), time.Now()
	fn()
	t1, c1 := time.Now(), threadCPU()
	return took{t1.Sub(t0).Nanoseconds(), c1 - c0, lm.record(name, req, parent, t0, t1, c1-c0)}
}

// record appends one span and returns its ID.
func (lm *layerMetrics) record(name string, req, parent int, t0, t1 time.Time, cpu int64) int {
	id := len(lm.spans) + 1
	lm.spans = append(lm.spans, span{
		ID: id, Name: name, Req: req, Parent: parent, CPU: cpu,
		Start: t0.Sub(lm.epoch).Nanoseconds(), End: t1.Sub(lm.epoch).Nanoseconds(),
	})
	return id
}

// threadCPU is the CPU time of the calling thread in nanoseconds, from
// clock_gettime(CLOCK_THREAD_CPUTIME_ID); getrusage(RUSAGE_THREAD) only moves
// at scheduler ticks, far coarser than one 512-op call.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// tracedRun measures the layers of w on in: one untraced and one traced child
// repetition for the client-side, runtime and overhead numbers, then the
// in-process passes. It writes the spans to <out>/<workload>.spans.json.
func tracedRun(w workload, in *inputs, tmp string, o options) (*layerMetrics, error) {
	runtime.LockOSThread() // see timed
	defer runtime.UnlockOSThread()
	lm := &layerMetrics{values: map[string]float64{}, epoch: time.Now()}
	plain, err := runRep(w, in, tmp, repOpts{})
	if err != nil {
		return nil, fmt.Errorf("untraced repetition: %w", err)
	}
	traced, err := runRep(w, in, tmp, repOpts{traced: true, epoch: lm.epoch})
	if err != nil {
		return nil, fmt.Errorf("traced repetition: %w", err)
	}
	lm.failed = plain.failed + traced.failed
	n := float64(in.ops)
	cpuUs := plain.cpuS * 1e6 / n
	lm.set("bench.cpu_us_per_op", cpuUs)
	// One unit of submission acknowledged: a 512-op request, or one trace
	// file parsed and checked.
	lm.set("client.ack_ms_p50", percentile(plain.ackMs, 50))
	lm.set("bench.trace_overhead_pct", 100*(traced.wallS-plain.wallS)/plain.wallS)
	lm.set("runtime.allocs_per_op", float64(plain.stats.Mallocs)/n)
	lm.set("runtime.alloc_bytes_per_op", float64(plain.stats.AllocBytes)/n)
	lm.set("runtime.gc_cycles", float64(plain.stats.GCCycles))
	lm.set("runtime.gc_pause_ms_total", plain.stats.GCPauseMs)
	lm.set("runtime.heap_live_mb_after_drain", plain.stats.HeapLiveMB)

	// reqParent maps a request to its "request" span, the root of its tree.
	reqParent := map[int]int{}
	for _, s := range traced.spans {
		s.ID = len(lm.spans) + 1
		reqParent[s.Req] = s.ID
		lm.spans = append(lm.spans, s)
	}

	if w.offline {
		err = offlinePasses(lm, in)
	} else {
		lm.set("client.requests", float64(len(plain.ackMs)))
		lm.set("client.rejects", float64(plain.rejects))
		lm.set("client.ack_ms_p99", percentile(plain.ackMs, 99))
		lm.set("client.ack_ms_max", percentile(plain.ackMs, 100))
		lm.set("client.send_mb_per_s", float64(plain.sendBytes)/1e6/plain.lastAckS)
		lm.set("online.drain_ms", plain.drainMs)
		lm.set("online.verdict_doc_ms", traced.verdictDocMs)
		lm.set("online.metrics_scrape_ms", traced.metricsScrape)
		err = servePasses(lm, w, in, tmp, reqParent, percentile(plain.ackMs, 50))
	}
	if err != nil {
		return nil, err
	}

	var attributed float64
	for _, name := range budgetLayers(w) {
		attributed += lm.values[name] / 1e3
	}
	lm.set("bench.unattributed_pct", 100*(cpuUs-attributed)/cpuUs)

	data, err := json.Marshal(lm.spans)
	if err != nil {
		return nil, err
	}
	return lm, os.WriteFile(spansPath(o.out, w.name), data, 0o644)
}

// servePasses replays the bodies of one repetition through each layer of the
// serving path, one pass per boundary, from a single producer goroutine.
func servePasses(lm *layerMetrics, w workload, in *inputs, tmp string, reqParent map[int]int, ackMsP50 float64) error {
	bodies := in.interleaved()
	n := float64(in.ops)
	cfg, err := serverConfig(w.props, w.retireTTL)
	if err != nil {
		return err
	}

	// online.handler: Server.Handler().ServeHTTP on an in-memory request —
	// everything the service does for a request except the socket.
	var mgr *checkpoint.Manager
	if w.durable {
		dir, err := os.MkdirTemp(tmp, "handler-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if mgr, err = openDurable(dir); err != nil {
			return err
		}
		defer mgr.Close()
	}
	srv, _, err := online.NewDurable(cfg, mgr)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	ctype := "text/plain"
	if w.wire {
		ctype = wire.ContentType
	}
	handlerSpan := make([]int, len(bodies))
	var handlerCPU int64
	handlerMs := make([]float64, 0, len(bodies))
	for i, b := range bodies {
		if mgr != nil && i == len(bodies)/2 {
			t := lm.timed("checkpoint.write", -1, 0, func() { err = mgr.Checkpoint() })
			if err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			lm.set("checkpoint.write_ms", float64(t.wall)/1e6)
			lm.set("checkpoint.bytes", float64(mgr.Stats().LastCheckpointBytes))
		}
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(b.data))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		t := lm.timed("online.handler", i, reqParent[i], func() { handler.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("online.handler pass: request %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
		handlerCPU += t.cpu
		handlerMs = append(handlerMs, float64(t.wall)/1e6)
		handlerSpan[i] = t.id
	}
	if err := srv.Drain(); err != nil {
		return err
	}

	// trace.append_wire | trace.append_text: the session entry point the
	// handler calls, on a bare session (no WAL; wal.* has its own pass).
	appendName := "trace.append_text"
	if w.wire {
		appendName = "trace.append_wire"
	}
	sess := trace.NewSmallestKSession(cfg.Opts, cfg.Stream)
	appendSpan := make([]int, len(bodies))
	var appendCPU int64
	for i, b := range bodies {
		t := lm.timed(appendName, i, handlerSpan[i], func() {
			if w.wire {
				_, err = sess.AppendWire(bytes.NewReader(b.data))
			} else {
				_, err = sess.AppendTraceBatch(bytes.NewReader(b.data))
			}
		})
		if err != nil {
			return fmt.Errorf("%s pass: %w", appendName, err)
		}
		appendCPU += t.cpu
		appendSpan[i] = t.id
	}
	flush := lm.timed("trace.flush", -1, 0, func() { err = sess.Flush() })
	if err != nil {
		return err
	}
	st := sess.Stats()
	lm.set("online.http_us_per_req", 1e3*(ackMsP50-percentile(handlerMs, 50)))
	lm.set("trace.flush_ms", float64(flush.wall)/1e6)
	lm.set("trace.segments", float64(st.Segments))
	lm.set("trace.ops_per_segment", n/float64(st.Segments))
	lm.set("trace.merges", float64(st.Merges))
	lm.set("trace.peak_buffered_ops", float64(st.PeakBufferedOps))
	lm.set("trace.lock_acq_per_op", float64(sess.IngestLockAcquisitions())/n)
	if w.lifetimeOps > 0 {
		lm.set("trace.retired_keys", float64(sess.RetiredKeys()))
		lm.set("trace.retire_rate", float64(st.Retirements)/float64(in.ops/w.lifetimeOps))
	}

	// wire.decode | trace.parse_text: the codec alone.
	var codecNs, bodyBytes int64
	dec := wire.NewDecoder(nil)
	for i, b := range bodies {
		bodyBytes += int64(len(b.data))
		name := "trace.parse_text"
		if w.wire {
			name = "wire.decode"
		}
		t := lm.timed(name, i, appendSpan[i], func() {
			if w.wire {
				dec.Reset(bytes.NewReader(b.data))
				for err == nil {
					_, err = dec.Next()
				}
				if err == io.EOF {
					err = nil
				}
			} else {
				err = trace.ParseStreamBytes(bytes.NewReader(b.data), func([]byte, history.Operation) error { return nil })
			}
		})
		if err != nil {
			return fmt.Errorf("%s pass: %w", name, err)
		}
		codecNs += t.cpu
	}
	if w.wire {
		lm.set("wire.decode_ns_per_op", float64(codecNs)/n)
		lm.set("wire.body_bytes_per_op", float64(bodyBytes)/n)
	} else {
		lm.set("trace.parse_text_ns_per_op", float64(codecNs)/n)
	}

	// trace.append_batch: the session on already-decoded operations — the
	// producer-goroutine time in routing, locking, cut detection, dispatch.
	sess = trace.NewSmallestKSession(cfg.Opts, cfg.Stream)
	var batchNs int64
	for i, b := range bodies {
		t := lm.timed("trace.append_batch", i, appendSpan[i], func() { _, err = sess.AppendBatch(b.ops) })
		if err != nil {
			return fmt.Errorf("trace.append_batch pass: %w", err)
		}
		batchNs += t.cpu
	}
	if err := sess.Flush(); err != nil {
		return err
	}
	lm.set("trace.append_ns_per_op", float64(batchNs)/n)

	// trace.stream: the reader-driven engine on the same bytes, no HTTP.
	var stream bytes.Buffer
	for _, b := range bodies {
		stream.Write(b.data)
	}
	sopts := cfg.Stream
	t := lm.timed("trace.stream", -1, 0, func() { _, _, err = kat.StreamVerdictsByKey(&stream, cfg.Opts, sopts) })
	if err != nil {
		return fmt.Errorf("trace.stream pass: %w", err)
	}
	lm.set("trace.stream_ns_per_op", float64(t.wall)/n)

	props, _ := kat.ParseProperties(w.props)
	if err := perKeyPasses(lm, in.byKey(-1), true, props.Has(kat.PropertyDelta)); err != nil {
		return err
	}
	// The handler's self time is its pass minus the layers beneath it. On a
	// durable server that pass also wrote the WAL, which the bare-session
	// append pass did not and which has a budget row of its own.
	handlerNs := float64(handlerCPU-appendCPU) / n
	if w.durable {
		if err := walPasses(lm, bodies, tmp, n); err != nil {
			return err
		}
		handlerNs -= lm.values["wal.append_ns_per_op"]
		if err := recoverPass(lm, w, in, tmp); err != nil {
			return err
		}
	}
	lm.set("online.handler_ns_per_op", handlerNs)
	return nil
}

// offlinePasses measures the layers of check-keyed on its first trace file
// (the eight files have one shape).
func offlinePasses(lm *layerMetrics, in *inputs) error {
	data, err := os.ReadFile(in.files[0])
	if err != nil {
		return err
	}
	n := float64(len(in.streams[0]))
	t := lm.timed("trace.offline_parse", 0, 0, func() { _, err = kat.ParseTraceReader(bytes.NewReader(data)) })
	if err != nil {
		return err
	}
	lm.set("trace.offline_parse_ns_per_op", float64(t.wall)/n)
	return perKeyPasses(lm, in.byKey(0), false, false)
}

// perKeyPasses runs each checker layer over every key on this goroutine
// with reused scratch: prepare, then the decomposition and the checkers on
// the prepared history. With segmented set the unit is not the key but what
// the streaming engine hands its checkers — the key cut at safe cuts once
// MinSegmentOps operations have gathered — which is also what keeps
// smallest-k tractable: for k >= 3 the search runs the exponential oracle on
// whatever it is given. The engine's own per-segment bookkeeping (memo hash,
// fold, hold-back behind the staleness horizon) is not in these numbers; it
// lands in bench.unattributed_pct.
func perKeyPasses(lm *layerMetrics, keys map[string]*history.History, segmented, extraProps bool) error {
	names := make([]string, 0, len(keys))
	var total int
	for key, h := range keys {
		names = append(names, key)
		total += h.Len()
	}
	sort.Strings(names)
	n := float64(total)

	var (
		prep     history.PrepareScratch
		zs       zone.Scratch
		fs       = fzf.NewScratch()
		verifier = core.NewVerifier()
		sum      = map[string]int64{}
		cuts     int
	)
	for req, key := range names {
		whole, err := history.Prepare(keys[key])
		if err != nil {
			return fmt.Errorf("prepare %s: %w", key, err)
		}
		bounds := zone.Cuts(whole)
		cuts += len(bounds)
		if !segmented {
			bounds = nil
		}
		lo := 0
		for _, hi := range append(bounds, whole.Len()) {
			if hi-lo < trace.DefaultMinSegmentOps && hi < whole.Len() {
				continue
			}
			seg := &history.History{Ops: slices.Clone(whole.H.Ops[lo:hi])}
			var raw *history.History
			if extraProps {
				raw = seg.Clone() // prepare normalizes in place; Δ wants the raw times
			}
			lo = hi
			pass := func(name string, fn func()) { sum[name] += lm.timed(name, req, 0, fn).wall }
			var p *history.Prepared
			pass("history.prepare", func() { p, err = history.PrepareInPlaceScratch(history.NormalizeInPlace(seg), &prep) })
			if err != nil {
				return fmt.Errorf("history.prepare %s: %w", key, err)
			}
			pass("zone.decompose", func() { zone.DecomposeScratch(p, &zs) })
			pass("fzf.check", func() { fzf.CheckScratch(p, fs) })
			pass("lbt.check", func() { lbt.Check(p, lbt.Options{}) })
			pass("core.check_k2", func() { _, err = verifier.CheckPrepared(p, 2, core.Options{}) })
			if err != nil {
				return fmt.Errorf("core.check_k2 %s: %w", key, err)
			}
			pass("core.smallestk", func() { _, err = verifier.SmallestKPrepared(p, core.Options{}) })
			if err != nil {
				return fmt.Errorf("core.smallestk %s: %w", key, err)
			}
			if extraProps {
				pass("delta.smallest", func() { _, err = delta.Smallest(raw) })
				if err != nil {
					return fmt.Errorf("delta.smallest %s: %w", key, err)
				}
				pass("regularity.check", func() { regularity.Check(p) })
			}
		}
	}
	for name, ns := range sum {
		lm.set(name+"_ns_per_op", float64(ns)/n)
	}
	lm.set("zone.cuts_per_kop", 1e3*float64(cuts)/n)
	return nil
}

// walPasses writes each body as one WAL record: without fsync for the cost
// the durable workload pays per op, then with the batch policy on a prefix
// for this disk's fsync latency (informational).
func walPasses(lm *layerMetrics, bodies []body, tmp string, n float64) error {
	dir, err := os.MkdirTemp(tmp, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const shards = trace.DefaultIngestShards
	log, err := wal.Open(faultfs.OS(), dir, shards, 0, wal.SyncNever)
	if err != nil {
		return err
	}
	var appendCPU int64
	for i, b := range bodies {
		t := lm.timed("wal.append", i, 0, func() {
			if err = log.AppendShard(i%shards, b.data); err == nil {
				err = log.Commit()
			}
		})
		if err != nil {
			log.Close()
			return fmt.Errorf("wal.append pass: %w", err)
		}
		appendCPU += t.cpu
	}
	lm.set("wal.append_ns_per_op", float64(appendCPU)/n)
	lm.set("wal.bytes_per_op", float64(log.Stats().Bytes)/n)
	if err := log.Close(); err != nil {
		return err
	}

	if log, err = wal.Open(faultfs.OS(), dir, shards, 1, wal.SyncBatch); err != nil {
		return err
	}
	defer log.Close()
	var fsyncMs []float64
	for i, b := range bodies[:min(len(bodies), 200)] {
		if err := log.AppendShard(i%shards, b.data); err != nil {
			return err
		}
		t := lm.timed("wal.commit", i, 0, func() { err = log.Commit() })
		if err != nil {
			return fmt.Errorf("wal.commit pass: %w", err)
		}
		fsyncMs = append(fsyncMs, float64(t.wall)/1e6)
	}
	lm.set("wal.fsync_ms_p50", percentile(fsyncMs, 50))
	return nil
}

// recoverPass measures the restart a user sees after a crash: a durable
// child is fed the whole repetition, killed after the last ack with no drain
// and no checkpoint, and restarted on the same directory; the time is from
// spawning the new process until /healthz answers, the WAL replayed.
func recoverPass(lm *layerMetrics, w workload, in *inputs, tmp string) (err error) {
	dir, err := os.MkdirTemp(tmp, "recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	args := []string{"-serve", "-properties", w.props, "-retire-ttl", fmt.Sprint(w.retireTTL), "-data-dir", dir}
	c, err := startChild(args...)
	if err != nil {
		return err
	}
	defer c.stop()
	defer func() { err = c.explain(err) }()
	addr, err := c.expect("addr", nil)
	if err != nil {
		return err
	}
	var r rep
	if err := load(w, in, "http://"+addr, repOpts{}, &r); err != nil {
		return err
	}
	syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	c.wait(time.Second)

	t0 := time.Now()
	c2, err := startChild(args...)
	if err != nil {
		return err
	}
	defer c2.stop()
	defer func() { err = c2.explain(err) }()
	if addr, err = c2.expect("addr", nil); err != nil {
		return err
	}
	if _, err := get("http://" + addr + "/healthz"); err != nil {
		return err
	}
	t1 := time.Now()
	lm.record("checkpoint.recover", -1, 0, t0, t1, 0)
	st, _, err := c2.finish()
	if err != nil {
		return err
	}
	replayed := st.RecoveredOps
	if replayed != int64(in.ops)-int64(r.failed) {
		return fmt.Errorf("checkpoint.recover pass: %d ops replayed from the WAL, %d were acked", replayed, in.ops-r.failed)
	}
	lm.set("checkpoint.recover_ms", float64(t1.Sub(t0).Nanoseconds())/1e6)
	return nil
}

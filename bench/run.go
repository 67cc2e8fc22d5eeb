//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"kat/internal/online"
	"kat/internal/wire"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span of the enclosing layer for the same
// request (0 = none). Start and End are wall nanoseconds since the traced run
// began; CPU is the calling thread's CPU time inside the call (in-process
// passes only).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	CPU    int64  `json:"cpu,omitempty"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// rep is what one repetition against one fresh child yields.
type rep struct {
	ops, failed int       // ops: what the offline checker counted (check only)
	wallS       float64   // first request byte -> sealed (serve), child's own first open -> last report (check)
	ackMs       []float64 // one per unit of submission
	lastAckS    float64   // first request byte -> last ack
	drainMs     float64   // POST /drain latency after the last ack
	sendBytes   int64
	rejects     int
	cpuS        float64 // child user+sys
	rssMB       float64 // child VmHWM
	stats       childStats
	doc         *online.VerdictDoc // drained verdicts (serve)
	badKeys     int                // keys not 2-atomic (check)

	// Traced repetitions only.
	spans         []span
	verdictDocMs  float64
	metricsScrape float64
}

// repOpts selects the extras of the traced run's child repetition.
type repOpts struct {
	traced bool      // record a span per request, scrape /metrics mid-load, time GET /verdict
	epoch  time.Time // origin of span times
}

// runRep runs one repetition of w against a fresh child and a fresh data dir
// under tmp. It never returns with the child alive.
func runRep(w workload, in *inputs, tmp string, o repOpts) (_ *rep, err error) {
	if w.offline {
		return runCheckRep(in)
	}
	args := []string{"-serve", "-properties", w.props}
	if w.retireTTL > 0 {
		args = append(args, "-retire-ttl", strconv.FormatInt(w.retireTTL, 10))
	}
	if w.durable {
		dir, err := os.MkdirTemp(tmp, "data-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		args = append(args, "-data-dir", dir)
	}
	c, err := startChild(args...)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	defer func() { err = c.explain(err) }()
	addr, err := c.expect("addr", nil)
	if err != nil {
		return nil, err
	}
	base := "http://" + addr
	r := &rep{}

	// The client's collector must not run inside the timed window: it would
	// stall a connection for a time that has nothing to do with the server.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	start := time.Now()
	if err := load(w, in, base, o, r); err != nil {
		return nil, err
	}
	lastAck := time.Now()
	r.lastAckS = lastAck.Sub(start).Seconds()
	raw, err := post(http.DefaultClient, base+"/drain", "application/json", nil)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	r.drainMs = msSince(lastAck)
	if _, err := io.WriteString(c.in, "seal\n"); err != nil {
		return nil, err
	}
	if _, err := c.expect("sealed", nil); err != nil {
		return nil, err
	}
	r.wallS = time.Since(start).Seconds()

	if r.rssMB, err = c.peakRSSMB(); err != nil {
		return nil, err
	}
	if o.traced {
		t0 := time.Now()
		if _, err := get(base + "/verdict"); err != nil {
			return nil, err
		}
		r.verdictDocMs = msSince(t0)
	}
	r.doc = new(online.VerdictDoc)
	if err := json.Unmarshal(raw, r.doc); err != nil {
		return nil, fmt.Errorf("drain response: %w", err)
	}
	if r.stats, r.cpuS, err = c.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// load sends every connection's bodies closed-loop — a connection sends its
// next request only after the previous ack, the replay protocol's own rule
// for per-key order — and fills in r's per-request results.
func load(w workload, in *inputs, base string, o repOpts, r *rep) error {
	ctype := "text/plain"
	if w.wire {
		ctype = wire.ContentType
	}
	type connResult struct {
		ackMs   []float64
		spans   []span
		failed  int
		rejects int
		bytes   int64
		err     error
	}
	results := make([]connResult, len(in.bodies))
	scrapeAt := len(in.bodies[0]) / 2
	var wg sync.WaitGroup
	for ci, bodies := range in.bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[ci]
			res.ackMs = make([]float64, 0, len(bodies))
			// One keep-alive connection per client goroutine.
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer client.CloseIdleConnections()
			for bi, b := range bodies {
				if o.traced && ci == 0 && bi == scrapeAt {
					t0 := time.Now()
					if _, res.err = get(base + "/metrics"); res.err != nil {
						return
					}
					r.metricsScrape = msSince(t0)
				}
				t0 := time.Now()
				raw, err := post(client, base+"/ingest", ctype, b.data)
				t1 := time.Now()
				res.ackMs = append(res.ackMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
				res.bytes += int64(len(b.data))
				if o.traced {
					res.spans = append(res.spans, span{
						Name: "request", Req: b.req,
						Start: t0.Sub(o.epoch).Nanoseconds(), End: t1.Sub(o.epoch).Nanoseconds(),
					})
				}
				// A refused or short request fails every op it carried.
				var ack struct{ Ingested int }
				if err != nil || json.Unmarshal(raw, &ack) != nil || ack.Ingested != len(b.ops) {
					res.failed += len(b.ops)
					res.rejects++
					if _, refused := err.(*statusError); err != nil && !refused {
						res.err = err // transport error: the connection is gone
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, res := range results {
		if res.err != nil {
			return res.err
		}
		r.ackMs = append(r.ackMs, res.ackMs...)
		r.spans = append(r.spans, res.spans...)
		r.failed += res.failed
		r.rejects += res.rejects
		r.sendBytes += res.bytes
	}
	return nil
}

// runCheckRep runs the offline checker child over the trace files.
func runCheckRep(in *inputs) (_ *rep, err error) {
	c, err := startChild(append([]string{"-check"}, in.files...)...)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	defer func() { err = c.explain(err) }()
	r := &rep{}
	var parseErr error
	sealed, err := c.expect("sealed", func(line string) {
		var ms float64
		var ops, bad int
		if _, err := fmt.Sscanf(line, "file %f %d %d", &ms, &ops, &bad); err != nil {
			parseErr = fmt.Errorf("child line %q: %w", line, err)
		}
		r.ackMs = append(r.ackMs, ms)
		r.ops += ops
		r.badKeys += bad
	})
	if err != nil {
		return nil, err
	}
	if parseErr != nil {
		return nil, parseErr
	}
	ns, err := strconv.ParseInt(sealed, 10, 64)
	if err != nil {
		return nil, err
	}
	r.wallS = float64(ns) / 1e9
	if r.rssMB, err = c.peakRSSMB(); err != nil {
		return nil, err
	}
	if r.stats, r.cpuS, err = c.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// statusError is a non-2xx response: the request was refused, the connection
// is still good.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.code, strings.TrimSpace(e.body))
}

func post(c *http.Client, url, ctype string, data []byte) ([]byte, error) {
	resp, err := c.Post(url, ctype, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return readResponse(resp)
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	return readResponse(resp)
}

func readResponse(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return raw, &statusError{resp.StatusCode, string(raw)}
	}
	return raw, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

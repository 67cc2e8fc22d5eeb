// Package chaosproxy is a fault-injecting HTTP proxy for robustness tests:
// it fronts a real handler (or a reverse proxy to a real server) and spends
// configured budgets of failures against /ingest traffic, exercising every
// ambiguity class a distributed ingest pipeline must survive:
//
//   - shed:  reject with 503 overload before the backend sees the request
//     (the polite transient — retry the same batch)
//   - reset: kill the client connection before forwarding anything (the
//     backend saw nothing, but the client cannot know that)
//   - drop:  forward only the first half of the request body's lines, then
//     kill the client connection with no response (the backend applied an
//     unknown prefix — the reconcile path's reason to exist)
//   - torn:  forward the whole request, then emit a torn response and kill
//     the connection (fully applied, yet the client sees a wire error —
//     the worst ambiguity: blind resend would double-ingest)
//
// plus an optional fixed latency on every proxied request (slow-node
// shaping for deadline and breaker tests). Fault budgets are atomics, so
// concurrent clients draw from them safely; each decrements once per
// injected fault and the proxy passes traffic through cleanly once all
// budgets are spent. Faults apply only to POST /ingest (other endpoints —
// /verdict, /healthz — always pass through, which is what lets retrying
// clients reconcile against the same proxy they ingest through).
//
// This package grew out of the flakyProxy fixture in cmd/kavgen's replay
// tests; promoting it lets the cluster router tests, the replay tests, and
// the cmd/kavchaos smoke-test binary share one fault model.
package chaosproxy

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"kat/internal/online"
)

// Faults configures a Proxy's fault budgets and shaping.
type Faults struct {
	// Shed503 is how many /ingest requests to shed with 503 overload.
	Shed503 int
	// Reset is how many /ingest requests to kill before forwarding.
	Reset int
	// Drop is how many /ingest requests to half-forward then kill.
	Drop int
	// Torn is how many /ingest requests to fully forward, then answer with
	// a torn response.
	Torn int
	// Latency is added to every proxied request (all endpoints).
	Latency time.Duration
}

// Proxy fronts backend with fault injection. Create with New; safe for
// concurrent use.
type Proxy struct {
	backend http.Handler
	latency time.Duration

	shed  atomic.Int64
	reset atomic.Int64
	drop  atomic.Int64
	torn  atomic.Int64

	// Injected counts faults actually spent, by kind — tests assert the
	// chaos really happened rather than silently configuring a no-op run.
	injectedShed  atomic.Int64
	injectedReset atomic.Int64
	injectedDrop  atomic.Int64
	injectedTorn  atomic.Int64
}

// New returns a proxy fronting backend with the given fault budgets.
func New(backend http.Handler, f Faults) *Proxy {
	p := &Proxy{backend: backend, latency: f.Latency}
	p.shed.Store(int64(f.Shed503))
	p.reset.Store(int64(f.Reset))
	p.drop.Store(int64(f.Drop))
	p.torn.Store(int64(f.Torn))
	return p
}

// Injected reports the faults spent so far, by kind.
func (p *Proxy) Injected() (shed, reset, drop, torn int64) {
	return p.injectedShed.Load(), p.injectedReset.Load(), p.injectedDrop.Load(), p.injectedTorn.Load()
}

// InjectedTotal reports all faults spent so far.
func (p *Proxy) InjectedTotal() int64 {
	s, r, d, t := p.Injected()
	return s + r + d + t
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.latency > 0 {
		time.Sleep(p.latency)
	}
	if r.Method != http.MethodPost || r.URL.Path != "/ingest" {
		p.backend.ServeHTTP(w, r)
		return
	}
	switch {
	case p.shed.Add(-1) >= 0:
		p.injectedShed.Add(1)
		// The server's own shed, except that Retry-After names no delay, so
		// tests need not wait out the real one.
		row := online.RejectOverload
		w.Header().Set("Retry-After", "0")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(row.Status)
		json.NewEncoder(w).Encode(online.IngestReject{Code: row.Code, Error: "chaosproxy: shedding"})
	case p.reset.Add(-1) >= 0:
		p.injectedReset.Add(1)
		// Nothing reaches the backend; the client's connection just dies.
		hijackClose(w)
	case p.drop.Add(-1) >= 0:
		p.injectedDrop.Add(1)
		body, _ := io.ReadAll(r.Body)
		lines := bytes.SplitAfter(body, []byte("\n"))
		half := bytes.Join(lines[:len(lines)/2], nil)
		// The backend applies the prefix; its response is swallowed and the
		// client connection killed without one — the batch's fate is
		// ambiguous from the client's side.
		req := cloneIngest(r, half)
		p.backend.ServeHTTP(httptest.NewRecorder(), req)
		hijackClose(w)
	case p.torn.Add(-1) >= 0:
		p.injectedTorn.Add(1)
		body, _ := io.ReadAll(r.Body)
		p.backend.ServeHTTP(httptest.NewRecorder(), cloneIngest(r, body))
		// Fully applied server-side, but the client sees a response torn
		// mid-header: a transport error on a request that succeeded.
		conn := hijack(w)
		if conn != nil {
			io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Le")
			conn.Close()
		}
	default:
		p.backend.ServeHTTP(w, r)
	}
}

// cloneIngest rebuilds the ingest request with a replacement body, keeping
// the headers (Content-Type negotiates the codec).
func cloneIngest(r *http.Request, body []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
	req.Header = r.Header.Clone()
	return req
}

// hijack takes over the client connection, or returns nil when the
// ResponseWriter cannot hijack (HTTP/2, recorders).
func hijack(w http.ResponseWriter) io.WriteCloser {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("chaosproxy: response writer cannot hijack (need an HTTP/1 server connection)")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return nil
	}
	return conn
}

func hijackClose(w http.ResponseWriter) {
	if conn := hijack(w); conn != nil {
		conn.Close()
	}
}

package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kat/internal/online"
	"kat/internal/trace"
)

// splitOnce fronts a server like a router whose odd-keyed member is down for
// one request: the first /ingest applies only the even-keyed lines — a
// subset that is no prefix — and answers with the given row, Ingested set to
// what was applied and the failed slice named in "slices".
type splitOnce struct {
	backend http.Handler
	row     online.Reject
	fired   atomic.Bool
}

func (p *splitOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/ingest" || !p.fired.CompareAndSwap(false, true) {
		p.backend.ServeHTTP(w, r)
		return
	}
	body, _ := io.ReadAll(r.Body)
	var even strings.Builder
	applied := int64(0)
	for _, line := range strings.SplitAfter(string(body), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[1][len(f[1])-1]%2 == 0 {
			even.WriteString(line)
			applied++
		}
	}
	p.backend.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/ingest", strings.NewReader(even.String())))
	row := p.row
	row.RetryAfter = false
	online.WriteReject(w, row, DegradedReject{
		IngestReject: online.IngestReject{Code: row.Code, Error: "test: slice down", Ingested: applied},
		Slices:       []DegradedSlice{{Slice: "odd keys", Code: row.Code, Error: "down"}},
	})
}

func testSender(url string) *Sender {
	s := NewSender(url, http.DefaultClient, 4, map[string]int64{})
	s.RetryBase, s.RetryMax = time.Millisecond, 5*time.Millisecond
	return s
}

func serverCounts(t *testing.T, srv *online.Server) map[string]int {
	t.Helper()
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, ks := range srv.Verdict().Keys {
		if ks.Status != "ok" {
			t.Errorf("key %s: [%s] %s", ks.Key, ks.Status, ks.Err)
		}
		got[ks.Key] = ks.Ops
	}
	return got
}

// TestSenderSlicesMeanNotAPrefix: the one rule that says Ingested is not a
// prefix is keyed on the reject carrying "slices", whatever its code — the
// router's own degraded row, or a member's row passed through. A row the
// table lets resend is reconciled per key and the rest delivered exactly; a
// terminal one stops the Send with nothing credited and the baseline marked
// stale, so the next Send re-reads the server's counts before it trusts its
// own. A memory_pressure shed, which only an older server sends, is a pair the
// table no longer has and reads as terminal.
func TestSenderSlicesMeanNotAPrefix(t *testing.T) {
	text, want := clusterTrace(4, 6)
	ops, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	oldShed := online.RejectFor("memory_pressure", http.StatusServiceUnavailable)
	for _, row := range []online.Reject{online.RejectDegraded, oldShed, online.RejectDraining} {
		t.Run(row.Code, func(t *testing.T) {
			want := want
			srv := online.New(online.Config{K: 2})
			ts := httptest.NewServer(&splitOnce{backend: srv.Handler(), row: row})
			defer ts.Close()
			s := testSender(ts.URL)
			n, got, err := s.Send(context.Background(), ops, false)
			if row.Resend {
				if err != nil || n != int64(len(ops)) {
					t.Fatalf("Send = %d, %v; want all %d delivered", n, err, len(ops))
				}
				if s.Reconciles.Value() != 1 {
					t.Fatalf("%d reconciles, want 1", s.Reconciles.Value())
				}
			} else {
				if err == nil || got != row || n != 0 {
					t.Fatalf("Send = %d, %+v, %v; want nothing credited and the %s row", n, got, err, row.Code)
				}
				if s.Retries.Value() != 0 {
					t.Fatalf("terminal reject retried %d times", s.Retries.Value())
				}
				if !s.stale.Load() {
					t.Fatal("Send left an unresolved post behind without invalidating its baseline")
				}
				want = map[string]int{"k0": 6, "k2": 6}
			}
			if got := serverCounts(t, srv); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("server holds %v, want %v", got, want)
			}
		})
	}
}

// TestSenderStopsOnStickyReject: a sticky row ends the Send at once, with the
// accepted prefix credited.
func TestSenderStopsOnStickyReject(t *testing.T) {
	srv := online.New(online.Config{Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// The second write commits a cut at 1, which the third starts at.
	ops, err := ParseText(strings.NewReader("w a 1 0 1\nw a 2 2 3\nw a 3 1 5\nw a 4 6 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := testSender(ts.URL)
	n, row, err := s.Send(context.Background(), ops, false)
	if err == nil || row != online.RejectOutOfOrder || n != 2 {
		t.Fatalf("Send = %d, %+v, %v; want 2 and the out_of_order row", n, row, err)
	}
	if s.Retries.Value() != 0 {
		t.Fatalf("sticky reject retried %d times", s.Retries.Value())
	}
}

// TestSenderBackoffHonoursRetryAfter: the server's Retry-After is a floor
// under the exponential delay, before jitter halves it at worst.
func TestSenderBackoffHonoursRetryAfter(t *testing.T) {
	s := testSender("")
	for i := 0; i < 100; i++ {
		if d := s.backoff(1, time.Second); d < time.Second/2 || d > time.Second {
			t.Fatalf("backoff with Retry-After 1s = %v, want within [500ms, 1s]", d)
		}
		if d := s.backoff(9, 0); d < s.RetryMax/2 || d > s.RetryMax {
			t.Fatalf("capped backoff = %v, want within [%v, %v]", d, s.RetryMax/2, s.RetryMax)
		}
	}
}

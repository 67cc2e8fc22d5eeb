package online

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kat"
	"kat/internal/checkpoint"
	"kat/internal/faultfs"
	"kat/internal/opbuf"
	"kat/internal/trace"
)

// postText posts body to url and returns the status code and response body.
func postText(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// decodeReject parses an /ingest error body.
func decodeReject(t *testing.T, body string) IngestReject {
	t.Helper()
	var rej IngestReject
	if err := json.Unmarshal([]byte(body), &rej); err != nil {
		t.Fatalf("reject body %q: %v", body, err)
	}
	return rej
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestMemoryPressureShedding drives the memory budget of a durable server: at
// the budget, while relief is not due again, /ingest sheds with a typed,
// resend-safe overload 503 before reading the body; once relief runs it spills
// the largest held run, half the budget is reached, and the same batch goes
// through.
func TestMemoryPressureShedding(t *testing.T) {
	mgr, err := checkpoint.Open(faultfs.NewMem(), "data", checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	// A key's one-operation window is one chunk: the budget holds two keys.
	srv, _, err := NewDurable(Config{K: 2, MemoryBudget: 2 * opbuf.ChunkBytes,
		Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1}}, mgr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := postText(t, ts.URL+"/ingest", "w a 1 0 10\nw b 1 0 10\n"); code != http.StatusOK {
		t.Fatalf("ingest under the budget: %d %s", code, body)
	}

	// At the budget, with a relief that just ran: shed.
	srv.reliefAt.Store(time.Now().Add(time.Hour).UnixNano())
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader("w c 1 20 30\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("ingest at the budget: %d Retry-After=%q %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if rej := decodeReject(t, string(body)); rej.Code != "overload" || rej.Ingested != 0 {
		t.Fatalf("reject %+v, want overload with nothing ingested", rej)
	}
	if _, m := getBody(t, ts.URL+"/metrics"); !strings.Contains(m, `kavserve_ingest_rejected_total{reason="overload"} 1`) ||
		!strings.Contains(m, "kavserve_memory_reliefs_total 0") {
		t.Fatalf("metrics miscount the shed or the reliefs:\n%s", m)
	}

	// Relief is due: it spills one window, and the resent batch is admitted.
	srv.reliefAt.Store(0)
	if code, body := postText(t, ts.URL+"/ingest", "w c 1 20 30\n"); code != http.StatusOK {
		t.Fatalf("resend after relief: %d %s", code, body)
	}
	if st := srv.sess.Stats(); st.Spills != 1 || srv.reliefs.Value() != 1 {
		t.Fatalf("%d spills in %d reliefs, want one in one", st.Spills, srv.reliefs.Value())
	}
	final := postDrain(t, ts.URL)
	var ops int
	for _, ks := range final.Keys {
		ops += ks.Ops
	}
	if ops != 3 {
		t.Fatalf("drained ops %d, want 3 (accepted requests only)", ops)
	}
}

// TestReliefKeepsDeclaredTolerance holds relief to the skew the operator
// declared. Two producers run 15 trace-time units apart, so key a's second
// write arrives after key b has moved the watermark past a's first — while
// still overlapping it. A relief sweep with a tolerance of its own retired a
// there, and that request and every one after it, for every key, answered
// sticky out_of_order. Relief sweeps at the session's RetireTTL: with one that
// covers the skew nothing retires early, and with none relief retires nothing
// at all and only spills.
func TestReliefKeepsDeclaredTolerance(t *testing.T) {
	skewed := []string{"w a 1 100 120\n", "w b 1 125 126\n", "w a 2 110 130\n"}
	drive := func(t *testing.T, srv *Server) {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for i, req := range skewed {
			srv.reliefAt.Store(0) // relief due on every request
			if code, body := postText(t, ts.URL+"/ingest", req); code != http.StatusOK {
				t.Fatalf("request %d under relief: %d %s", i, code, body)
			}
		}
		// Half the budget is a chunk and a half: a's and b's windows reach it
		// before the third request, which a skewed retirement would refuse.
		if n := srv.reliefs.Value(); n != 1 {
			t.Fatalf("%d reliefs ran, want the one before the third request", n)
		}
	}
	pressured := Config{K: 2, MemoryBudget: 3 * opbuf.ChunkBytes, Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1}}

	t.Run("ttl-covers-skew", func(t *testing.T) {
		cfg := pressured
		cfg.Stream.RetireTTL = 1000
		srv := New(cfg)
		drive(t, srv)
		if st := srv.sess.Stats(); st.Retirements != 0 {
			t.Fatalf("relief retired %d keys inside the declared tolerance", st.Retirements)
		}
	})
	t.Run("no-ttl-spills-only", func(t *testing.T) {
		mgr, err := checkpoint.Open(faultfs.NewMem(), "data", checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Close()
		srv, _, err := NewDurable(pressured, mgr)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, srv)
		if st := srv.sess.Stats(); st.Retirements != 0 || st.Spills == 0 {
			t.Fatalf("relief without a TTL: %d retirements, %d spills; want none and some", st.Retirements, st.Spills)
		}
	})
}

// TestNoQuiesceChaosSheds replays the adversarial churn variant — linked
// overlapping writes, so no key ever quiesces and nothing dispatches — against
// a memory budget over the session's real buffered bytes, with no store to
// spill to. The server must degrade into typed, resend-safe overload sheds
// with bounded buffered growth: never accept-and-grow, and never end the
// session. Nothing retires either, so every byte stays buffered and the byte
// count, and with it every accept and every shed, is a function of the input
// alone: two runs agree request by request.
func TestNoQuiesceChaosSheds(t *testing.T) {
	tr := kat.GenerateChurn(kat.ChurnConfig{Seed: 7, Lifetimes: 8, OpsPerLifetime: 12, NoQuiesce: true})
	var b strings.Builder
	if err := kat.WriteTraceArrivalOrder(&b, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(b.String(), "\n"), "\n")

	// Each key's window is a chunk, so the budget is four keys' windows; a
	// request may open a key per line past it.
	const budget, chunkLines = 4 * opbuf.ChunkBytes, 8
	run := func() []string {
		srv := New(Config{K: 2, MemoryBudget: budget, Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1}})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var outcomes []string
		var accepted int64
		for i := 0; i < len(lines); i += chunkLines {
			code, body := postText(t, ts.URL+"/ingest", strings.Join(lines[i:min(i+chunkLines, len(lines))], ""))
			switch code {
			case http.StatusOK:
				var ok struct {
					Ingested int64 `json:"ingested"`
				}
				if err := json.Unmarshal([]byte(body), &ok); err != nil {
					t.Fatalf("ingest body %q: %v", body, err)
				}
				accepted += ok.Ingested
				outcomes = append(outcomes, "accepted")
			case http.StatusServiceUnavailable:
				if rej := decodeReject(t, body); rej.Code != "overload" || rej.Ingested != 0 {
					t.Fatalf("shed %+v, want overload with nothing ingested", rej)
				}
				outcomes = append(outcomes, "shed")
			default:
				t.Fatalf("ingest: %d %s", code, body)
			}
		}
		if got := srv.sess.BufferedBytes(); got >= budget+chunkLines*opbuf.ChunkBytes {
			t.Fatalf("buffered bytes %d grew past budget %d + one request", got, budget)
		}
		// The shed is load shedding, not a failure: the session drains, and
		// every accepted operation is accounted for and verified.
		var ops int64
		for _, ks := range postDrain(t, ts.URL).Keys {
			ops += int64(ks.Ops)
			if ks.Status != "ok" {
				t.Fatalf("key %s after sheds: %+v", ks.Key, ks)
			}
		}
		if ops != accepted {
			t.Fatalf("verdict ops %d != accepted %d", ops, accepted)
		}
		return outcomes
	}
	first := run()
	if !slices.Contains(first, "shed") {
		t.Fatal("never-quiescing trace never reached the budget")
	}
	if second := run(); !slices.Equal(first, second) {
		t.Fatalf("two runs of one input disagree:\n%v\n%v", first, second)
	}
}

// TestVerdictEpochEndpoint exercises /verdict?epoch=N: 400 without epoch
// windows, numbered and "current" lookups, and 404 for unseen epochs.
func TestVerdictEpochEndpoint(t *testing.T) {
	plain := New(Config{K: 2, Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1}})
	pts := httptest.NewServer(plain.Handler())
	defer pts.Close()
	if code, body := getBody(t, pts.URL+"/verdict?epoch=0"); code != http.StatusBadRequest {
		t.Fatalf("epoch query without windows: %d %s", code, body)
	}

	srv := New(Config{K: 2, Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1, EpochLength: 100}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, chunk := range []string{"w a 1 0 10\nw a 2 150 160\n", "w a 3 250 260\nr a 3 270 280\n"} {
		if code, body := postText(t, ts.URL+"/ingest", chunk); code != http.StatusOK {
			t.Fatalf("ingest: %d %s", code, body)
		}
	}
	if code, body := getBody(t, ts.URL+"/verdict?epoch=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad epoch arg: %d %s", code, body)
	}
	postDrain(t, ts.URL)

	code, body := getBody(t, ts.URL+"/verdict?epoch=0")
	if code != http.StatusOK {
		t.Fatalf("epoch 0: %d %s", code, body)
	}
	var doc EpochDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Epoch != 0 || doc.Current || doc.Folded {
		t.Fatalf("epoch 0 doc: %+v", doc)
	}
	if !doc.KAtomic || doc.Stats.Ops == 0 {
		t.Fatalf("epoch 0 verdict: %+v", doc)
	}

	code, body = getBody(t, ts.URL+"/verdict?epoch=current")
	if code != http.StatusOK {
		t.Fatalf("epoch current: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Epoch != 2 {
		t.Fatalf("current epoch %d, want 2 (watermark 270 / length 100)", doc.Epoch)
	}
	if doc.Current {
		t.Fatal("drained current-epoch doc still marked Current")
	}

	if code, body = getBody(t, ts.URL+"/verdict?epoch=99"); code != http.StatusNotFound {
		t.Fatalf("unseen epoch: %d %s", code, body)
	}

	// The full document carries every window, and their ops conserve.
	full := getVerdict(t, ts.URL)
	if len(full.Epochs) == 0 {
		t.Fatal("drained verdict has no epochs")
	}
	var ops int64
	for _, es := range full.Epochs {
		ops += es.Ops
	}
	if ops != 4 {
		t.Fatalf("epoch windows hold %d ops, want 4", ops)
	}
}

// TestRetiredKeyVerdictHTTP drives quiescent-key retirement purely over
// HTTP: later requests advance the watermark past the TTL, the idle key
// folds into the retired record, /verdict and /healthz surface it, and a
// late write re-admits it with the floor carried forward.
func TestRetiredKeyVerdictHTTP(t *testing.T) {
	srv := New(Config{
		K:      2,
		Stream: trace.StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 2, RetireTTL: 100, RetireSweepOps: 1},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Each request is one arrival instant: the batch watermark floor means
	// a single request can never retire its own keys, but request N+1 can
	// retire keys quiesced before request N's ops arrived.
	for _, chunk := range []string{
		"w a 1 0 10\nr a 1 20 30\n",
		"w b 5 1000 1010\n",
		"w c 9 5000 5010\n",
	} {
		if code, body := postText(t, ts.URL+"/ingest", chunk); code != http.StatusOK {
			t.Fatalf("ingest: %d %s", code, body)
		}
	}

	// Retirement is two-phase: the sweep commits the final cut, and a later
	// sweep folds the verdict once verification drains. Keep trickling
	// unrelated traffic until the fold lands — exactly what a live server
	// sees.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; srv.sess.RetiredKeys() == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("key a never retired")
		}
		line := fmt.Sprintf("w d %d %d %d\n", i+1, 6000+40*i, 6010+40*i)
		if code, body := postText(t, ts.URL+"/ingest", line); code != http.StatusOK {
			t.Fatalf("trickle ingest: %d %s", code, body)
		}
		time.Sleep(time.Millisecond)
	}

	code, body := getBody(t, ts.URL+"/verdict/a")
	if code != http.StatusOK {
		t.Fatalf("GET /verdict/a: %d %s", code, body)
	}
	var ks KeyStatus
	if err := json.Unmarshal([]byte(body), &ks); err != nil {
		t.Fatal(err)
	}
	if !ks.Retired || ks.Ops != 2 || ks.SmallestK != 1 || ks.Status != "ok" {
		t.Fatalf("retired key status: %+v", ks)
	}

	// The watermark kept advancing, so b and c may have retired too; the
	// summary covers at least a's lifetime.
	doc := getVerdict(t, ts.URL)
	if doc.Retired == nil || doc.Retired.Keys == 0 || doc.Retired.Ops < 2 {
		t.Fatalf("verdict retired summary: %+v", doc.Retired)
	}
	var health Health
	if _, hb := getBody(t, ts.URL+"/healthz"); true {
		if err := json.Unmarshal([]byte(hb), &health); err != nil {
			t.Fatal(err)
		}
	}
	if health.RetiredKeys == 0 {
		t.Fatalf("healthz retiredKeys: %+v", health)
	}
	if _, m := getBody(t, ts.URL+"/metrics"); !strings.Contains(m, "kavserve_retired_keys") {
		t.Fatalf("metrics missing retired-keys gauge:\n%s", m)
	}

	// A later write transparently re-admits the retired key.
	if code, body := postText(t, ts.URL+"/ingest", "w a 7 9000 9010\n"); code != http.StatusOK {
		t.Fatalf("readmit ingest: %d %s", code, body)
	}
	for srv.sess.Stats().Readmissions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("key a never re-admitted")
		}
		time.Sleep(time.Millisecond)
	}
	code, body = getBody(t, ts.URL+"/verdict/a")
	if code != http.StatusOK {
		t.Fatalf("GET /verdict/a after readmit: %d %s", code, body)
	}
	// Decode into a fresh struct: retired is omitempty, so reusing ks would
	// keep the stale true from the pre-readmit response.
	var readmitted KeyStatus
	if err := json.Unmarshal([]byte(body), &readmitted); err != nil {
		t.Fatal(err)
	}
	if readmitted.Retired || readmitted.Ops != 3 {
		t.Fatalf("re-admitted key status: %+v", readmitted)
	}
	final := postDrain(t, ts.URL)
	for _, ks := range final.Keys {
		if ks.Status != "ok" {
			t.Fatalf("final key %s: %+v", ks.Key, ks)
		}
	}
}

// TestTenantQuotasAndIsolation covers the multi-tenant frontend: typed
// quota rejects per quota class, the overload shed counted per tenant, 404
// for unknown tenants, tenant-labeled metrics, and one tenant at its quota or
// budget never blocking another under concurrent load.
func TestTenantQuotasAndIsolation(t *testing.T) {
	pool := kat.NewPool(2)
	defer pool.Close()
	// MinSegmentOps keeps every operation buffered, a key's few in one
	// chunk, so each tenant's bytes against the shared budget are a chunk
	// per key it was sent.
	const budgetKeys = 8
	m, err := NewMulti(
		Config{K: 2, MemoryBudget: budgetKeys * opbuf.ChunkBytes, Stream: trace.StreamOptions{Pool: pool, MinSegmentOps: 1000}},
		[]TenantConfig{
			{Name: "alpha", Quotas: TenantQuotas{MaxOps: 4}},
			{Name: "beta"},
			{Name: "gamma"},
			{Name: "delta", Quotas: TenantQuotas{MaxKeys: 1}},
		}, nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	if code, body := postText(t, ts.URL+"/ingest/nobody", "w a 1 0 10\n"); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d %s", code, body)
	}

	// alpha: lifetime op quota. 4 ops fit; the 5th request is 429 and
	// permanent (no Retry-After).
	if code, body := postText(t, ts.URL+"/ingest/alpha", "w a 1 0 10\nw a 2 20 30\nw a 3 40 50\nw a 4 60 70\n"); code != http.StatusOK {
		t.Fatalf("alpha ingest: %d %s", code, body)
	}
	resp, err := http.Post(ts.URL+"/ingest/alpha", "text/plain", strings.NewReader("w a 5 80 90\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alpha over quota: %d %s", resp.StatusCode, body)
	}
	if rej := decodeReject(t, string(body)); rej.Code != "quota_exceeded" {
		t.Fatalf("alpha reject code %q", rej.Code)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Fatal("lifetime op quota reject carries Retry-After (it is permanent)")
	}

	// gamma: fills its own buffer to the budget; the shed is transient →
	// 503 with Retry-After.
	var fill strings.Builder
	for i := 0; i < budgetKeys; i++ {
		fmt.Fprintf(&fill, "w g%d 1 %d %d\n", i, i*20, i*20+10)
	}
	if code, body := postText(t, ts.URL+"/ingest/gamma", fill.String()); code != http.StatusOK {
		t.Fatalf("gamma ingest: %d %s", code, body)
	}
	resp, err = http.Post(ts.URL+"/ingest/gamma", "text/plain", strings.NewReader("w g 999 5000 5010\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gamma over its cap: %d %s", resp.StatusCode, body)
	}
	if rej := decodeReject(t, string(body)); rej.Code != "overload" {
		t.Fatalf("gamma reject code %q", rej.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("overload shed missing Retry-After")
	}

	// delta: distinct-key quota.
	if code, body := postText(t, ts.URL+"/ingest/delta", "w d 1 0 10\n"); code != http.StatusOK {
		t.Fatalf("delta ingest: %d %s", code, body)
	}
	if code, body := postText(t, ts.URL+"/ingest/delta", "w e 1 0 10\n"); code != http.StatusTooManyRequests {
		t.Fatalf("delta over key quota: %d %s", code, body)
	}

	// beta keeps ingesting at full tilt — four keys, half its budget — while
	// the other tenants sit at their quotas and budget: per-goroutine keys keep each stream's starts
	// nondecreasing, and alpha's and gamma's rejects must stay typed
	// throughout.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				line := fmt.Sprintf("w b%d %d %d %d\n", g, i+1, i*20, i*20+10)
				code, body := postText(t, ts.URL+"/ingest/beta", line)
				if code != http.StatusOK {
					errs <- fmt.Errorf("beta[%d] ingest %d: %d %s", g, i, code, body)
					return
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				code, body := postText(t, ts.URL+"/ingest/alpha", fmt.Sprintf("w a %d %d %d\n", 100+g*10+i, 1000+i*20, 1010+i*20))
				if code != http.StatusTooManyRequests {
					errs <- fmt.Errorf("alpha[%d] expected 429, got %d %s", g, code, body)
					return
				}
				if code, body := postText(t, ts.URL+"/ingest/gamma", "w g 999 5000 5010\n"); code != http.StatusServiceUnavailable {
					errs <- fmt.Errorf("gamma[%d] expected 503, got %d %s", g, code, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	betaSrv, _ := m.Tenant("beta")
	if ops := betaSrv.sess.Stats().Ops; ops != 40 {
		t.Fatalf("beta ingested %d ops, want 40", ops)
	}
	alphaSrv, _ := m.Tenant("alpha")
	if ops := alphaSrv.sess.Stats().Ops; ops != 4 {
		t.Fatalf("alpha ingested %d ops, want 4 (quota)", ops)
	}

	// Merged metrics label every sample by tenant.
	_, metricsBody := getBody(t, ts.URL+"/metrics")
	for _, name := range []string{"alpha", "beta", "gamma", "delta"} {
		if !strings.Contains(metricsBody, `tenant="`+name+`"`) {
			t.Fatalf("metrics missing tenant=%q labels", name)
		}
	}
	if !strings.Contains(metricsBody, `kavserve_ingest_rejected_total{tenant="alpha",reason="quota_exceeded"}`) {
		t.Fatalf("metrics missing alpha quota rejects:\n%s", metricsBody)
	}
	if !strings.Contains(metricsBody, `kavserve_ingest_rejected_total{tenant="gamma",reason="overload"} 21`) ||
		!strings.Contains(metricsBody, `kavserve_ingest_rejected_total{tenant="beta",reason="overload"} 0`) {
		t.Fatalf("metrics miscount the overload sheds:\n%s", metricsBody)
	}

	// Per-tenant drain leaves the others live.
	code, _ := func() (int, string) {
		resp, err := http.Post(ts.URL+"/drain/alpha", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}()
	if code != http.StatusOK {
		t.Fatalf("drain alpha: %d", code)
	}
	if code, body := postText(t, ts.URL+"/ingest/beta", "w zz 1 0 10\n"); code != http.StatusOK {
		t.Fatalf("beta ingest after alpha drain: %d %s", code, body)
	}

	// The aggregate verdict document is keyed by tenant name.
	_, vb := getBody(t, ts.URL+"/verdict")
	var docs map[string]VerdictDoc
	if err := json.Unmarshal([]byte(vb), &docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 4 || !docs["alpha"].Drained || docs["beta"].Drained {
		t.Fatalf("aggregate verdicts: drained alpha=%v beta=%v tenants=%d",
			docs["alpha"].Drained, docs["beta"].Drained, len(docs))
	}

	// /healthz: the node is "ok" while any tenant still accepts ingest and
	// "draining" — what a router's probe reads — once none does.
	nodeHealth := func() (h struct {
		Status  string
		Tenants map[string]Health
	}) {
		_, hb := getBody(t, ts.URL+"/healthz")
		if err := json.Unmarshal([]byte(hb), &h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := nodeHealth(); h.Status != "ok" || !h.Tenants["alpha"].Draining || h.Tenants["beta"].Draining {
		t.Fatalf("healthz with only alpha drained: %+v", h)
	}
	if err := m.DrainAll(); err != nil {
		t.Fatal(err)
	}
	if h := nodeHealth(); h.Status != "draining" || h.Tenants["beta"].Status != "draining" {
		t.Fatalf("healthz with every tenant drained: %+v", h)
	}
}

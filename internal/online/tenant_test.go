package online

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"testing"

	"kat"
	"kat/internal/checkpoint"
	"kat/internal/core"
	"kat/internal/faultfs"
	"kat/internal/trace"
	"kat/internal/wal"
)

// TestTenantNames: a tenant name is a URL path segment and a directory name,
// so NewMulti refuses, with a TenantNameError, every name that is not one
// clean segment. A lone "" is the root tenant, not a name.
func TestTenantNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"alpha", true}, {"A-1_b.c~d", true}, {"...", true},
		{"", false}, {".", false}, {"..", false},
		{"a/b", false}, {`a\b`, false}, {"a\x00b", false}, {"a b", false},
		{"a%2Fb", false}, {"a?b", false}, {"a#b", false}, {"a{b}", false},
		{"a\nb", false}, {"\x7f", false}, {"é", false},
	} {
		m, err := NewMulti(Config{Stream: trace.StreamOptions{Workers: 1}}, []TenantConfig{{Name: "other"}, {Name: tc.name}}, nil)
		var nameErr *TenantNameError
		switch {
		case tc.ok && err != nil:
			t.Errorf("%q: refused: %v", tc.name, err)
		case !tc.ok && !errors.As(err, &nameErr):
			t.Errorf("%q: err = %v, want a TenantNameError", tc.name, err)
		case !tc.ok && nameErr.Name != tc.name:
			t.Errorf("%q: error names %q", tc.name, nameErr.Name)
		}
		if m != nil {
			m.DrainAll()
		}
	}
	m, err := NewMulti(Config{Stream: trace.StreamOptions{Workers: 1}}, []TenantConfig{{}}, nil)
	if err != nil || m.Tenants()[0] != "" {
		t.Fatalf("root tenant: %v", err)
	}
	m.DrainAll()
}

// TestQuotaCheckAllocFree: every single-tenant ingest passes the quota
// check, and on a quota-free root tenant it costs nothing.
func TestQuotaCheckAllocFree(t *testing.T) {
	m, err := NewMulti(Config{Stream: trace.StreamOptions{Workers: 1}}, []TenantConfig{{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.DrainAll()
	root, _ := m.Tenant("")
	if allocs := testing.AllocsPerRun(1000, func() {
		if !root.admitQuotas(nil) {
			t.Fatal("quota-free tenant shed")
		}
	}); allocs != 0 {
		t.Fatalf("quota check allocates %v times per request, want 0", allocs)
	}
}

// tenantTrace is the arrival-order text of keys registers of ops operations
// each, generated from seed, with injected staleness on every other key.
func tenantTrace(t *testing.T, seed int64, keys, ops int) string {
	t.Helper()
	tr := kat.NewTrace()
	for ki := 0; ki < keys; ki++ {
		h := kat.GenerateKAtomic(kat.GenConfig{Seed: seed + int64(ki), Ops: ops, Concurrency: 2, ReadFraction: 0.5})
		if ki%2 == 0 {
			h = kat.InjectStaleness(h, seed+100+int64(ki), 0.4, 2)
		}
		for _, op := range h.Ops {
			tr.Add(fmt.Sprintf("key-%03d", ki), op)
		}
	}
	var b strings.Builder
	if err := kat.WriteTraceArrivalOrder(&b, tr); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// opsPerKey counts a keyed trace text's operations per key.
func opsPerKey(text string) map[string]int {
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		counts[strings.Fields(line)[1]]++
	}
	return counts
}

// checkOffline asserts that a drained tenant's per-key verdicts equal the
// offline streaming checker's (kavcheck -stream -smallest) on text.
func checkOffline(t *testing.T, tenant string, doc VerdictDoc, text string) {
	t.Helper()
	want, _, err := kat.StreamSmallestKByKey(strings.NewReader(text), kat.Options{}, kat.StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := opsPerKey(text)
	if !doc.Drained || len(doc.Keys) != len(want) {
		t.Fatalf("tenant %q: drained %v, %d keys, want %d drained", tenant, doc.Drained, len(doc.Keys), len(want))
	}
	for _, ks := range doc.Keys {
		if ks.SmallestK != want[ks.Key] || ks.Ops != counts[ks.Key] {
			t.Errorf("tenant %q key %s: %d ops smallest k %d, offline %d ops smallest k %d",
				tenant, ks.Key, ks.Ops, ks.SmallestK, counts[ks.Key], want[ks.Key])
		}
	}
}

// TestMultiTenantDurableRestart: two tenants with overlapping key names
// under one data directory, each in its own subdirectory. Closed without a
// drain, each recovers exactly its own acknowledged operations (its WAL
// holds nothing of the other's); a tenant drained before a restart comes
// back drained while the other keeps ingesting; and every tenant's final
// verdicts equal the offline checker's on its own operations. A directory
// a single-tenant server wrote recovers as the root tenant.
func TestMultiTenantDurableRestart(t *testing.T) {
	pool := kat.NewPool(2)
	defer pool.Close()
	base := Config{K: 2, Stream: trace.StreamOptions{Pool: pool, MinSegmentOps: 1}}
	mem := faultfs.NewMem()
	opener := func(fsys faultfs.FS, dir string) func(string) (*checkpoint.Manager, error) {
		return func(name string) (*checkpoint.Manager, error) {
			return checkpoint.Open(fsys, path.Join(dir, name), checkpoint.Config{Policy: wal.SyncBatch})
		}
	}
	tenants := []TenantConfig{{Name: "a"}, {Name: "b"}}
	texts := map[string]string{"a": tenantTrace(t, 1, 4, 50), "b": tenantTrace(t, 40, 3, 70)}
	linesB := strings.SplitAfter(texts["b"], "\n")
	firstB := strings.Join(linesB[:len(linesB)/2], "")
	open := func() (*Multi, *httptest.Server) {
		m, err := NewMulti(base, tenants, opener(mem, "data"))
		if err != nil {
			t.Fatal(err)
		}
		return m, httptest.NewServer(m.Handler())
	}
	ingest := func(url, body string, want int) {
		t.Helper()
		if code, resp := postText(t, url, body); code != want {
			t.Fatalf("POST %s: %d %s, want %d", url, code, resp, want)
		}
	}

	// Run 1: a takes its whole trace, b the first half; no drain.
	m, ts := open()
	ingest(ts.URL+"/ingest/a", texts["a"], http.StatusOK)
	ingest(ts.URL+"/ingest/b", firstB, http.StatusOK)
	ts.Close()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Each tenant's WAL, replayed on its own, is exactly its own operations.
	for name, acked := range map[string]string{"a": texts["a"], "b": firstB} {
		sess := trace.NewSmallestKSession(core.Options{}, trace.StreamOptions{Workers: 1})
		for file := range mem.Files() {
			dir, base := path.Split(file)
			if _, _, ok := wal.ParseFileName(base); !ok || dir != "data/"+name+"/" {
				continue
			}
			recs, _, err := wal.ReadFile(mem, file)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if _, err := sess.Replay(rec.Payload); err != nil {
					t.Fatalf("%s: %v", file, err)
				}
			}
		}
		got := map[string]int{}
		for _, kv := range sess.Snapshot() {
			got[kv.Key] = kv.Ops
		}
		if want := opsPerKey(acked); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("tenant %s's WAL holds %v ops per key, acknowledged %v", name, got, want)
		}
		sess.Flush()
	}

	// Run 2: both recover their acknowledged operations; a drains.
	m, ts = open()
	for name, acked := range map[string]string{"a": texts["a"], "b": firstB} {
		srv, _ := m.Tenant(name)
		got := map[string]int{}
		for _, ks := range srv.Verdict().Keys {
			got[ks.Key] = ks.Ops
		}
		if want := opsPerKey(acked); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("tenant %s recovered %v ops per key, acknowledged %v", name, got, want)
		}
	}
	ingest(ts.URL+"/drain/a", "", http.StatusOK)
	ts.Close()
	m.Close()

	// Run 3: a comes back drained and refuses ingest; b takes the rest.
	m, ts = open()
	defer ts.Close()
	if a, _ := m.Tenant("a"); !a.Verdict().Drained {
		t.Fatal("drained tenant a came back live")
	}
	ingest(ts.URL+"/ingest/a", "w key-000 999 1 2\n", http.StatusConflict)
	ingest(ts.URL+"/ingest/b", strings.Join(linesB[len(linesB)/2:], ""), http.StatusOK)
	if err := m.DrainAll(); err != nil {
		t.Fatal(err)
	}
	for _, name := range m.Tenants() {
		srv, _ := m.Tenant(name)
		checkOffline(t, name, srv.Verdict(), texts[name])
	}
	m.Close()

	// A directory written by a single-tenant server is the root tenant's.
	single := faultfs.NewMem()
	mgr, err := checkpoint.Open(single, "data", checkpoint.Config{Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := NewDurable(base, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.sess.AppendTraceBatch(strings.NewReader(texts["a"])); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	root, err := NewMulti(base, []TenantConfig{{}}, opener(single, "data"))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	if err := root.DrainAll(); err != nil {
		t.Fatal(err)
	}
	rs, _ := root.Tenant("")
	checkOffline(t, "", rs.Verdict(), texts["a"])
}

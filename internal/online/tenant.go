package online

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"

	"kat/internal/metrics"
)

// TenantQuotas bounds one tenant's resource use on a shared server. All
// quotas are enforced before the request body is read, so a tenant at
// its quota costs the server one rejected request, not a parse.
type TenantQuotas struct {
	// MaxOps caps lifetime ingested operations (0 = unlimited). Hitting
	// it is permanent for the tenant's lifetime: rejects are HTTP 429
	// without Retry-After.
	MaxOps int64
	// MaxKeys caps distinct keys (0 = unlimited). Like MaxOps, hitting
	// it is permanent — retirement does not lower the distinct-key
	// count, so the quota is over keys ever seen.
	MaxKeys int64
	// MaxBufferedOps caps live buffered (unverified) operations — the
	// tenant's memory quota, since buffered operations dominate a
	// session's heap (0 = unlimited). Transient: rejects are HTTP 503
	// with Retry-After, and clear as verification catches up or keys
	// retire.
	MaxBufferedOps int64
}

// TenantConfig names one tenant and its quotas.
type TenantConfig struct {
	Name   string
	Quotas TenantQuotas
}

// Multi is a multi-tenant frontend: one isolated Server (and so one
// trace.Session and verdict namespace) per tenant, all verifying on one
// shared core.Pool so a quiet tenant's worker capacity serves a busy one.
//
// Endpoints mirror the single-tenant server's, scoped by path:
//
//	POST /ingest/{tenant}         tenant-scoped ingest; quota checks run
//	                              before the body is read and reject with
//	                              RejectQuotaSpent or RejectQuotaBuffered
//	GET  /verdict/{tenant}        the tenant's verdict document
//	                              (?epoch=N works as on a single server)
//	GET  /verdict/{tenant}/{key}  one key's verdict
//	POST /drain/{tenant}          drain one tenant (others keep ingesting)
//	POST /drain                   drain every tenant
//	GET  /verdict                 all tenants' documents, keyed by name
//	GET  /metrics                 every tenant's families merged, each
//	                              sample labeled tenant="name"
//	GET  /healthz                 per-tenant health, keyed by name
//
// Isolation: quotas, drain state, ordering contracts, and sticky errors
// are all per-tenant — one tenant at its quota (or drained, or broken)
// never blocks another's ingest, because rejection happens in its own
// session's admission path and the shared pool is work-conserving.
//
// Multi-tenant servers are in-memory only: the checkpoint manager's
// directory layout assumes one session, so durability and tenants are
// mutually exclusive (NewMulti builds every tenant with a nil manager).
type Multi struct {
	names   []string // sorted, for deterministic /metrics and /verdict order
	tenants map[string]*tenant
}

type tenant struct {
	name   string
	quotas TenantQuotas
	srv    *Server
}

// NewMulti builds one Server per tenant from the shared base config.
// Base config fields apply to every tenant (K, properties, lifecycle,
// watermarks); Stream.Pool should be set so tenants share workers —
// when it is nil each tenant gets its own pool, multiplying worker
// goroutines by the tenant count.
func NewMulti(base Config, tenants []TenantConfig) (*Multi, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("no tenants configured")
	}
	m := &Multi{tenants: make(map[string]*tenant, len(tenants))}
	for _, tc := range tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("tenant with empty name")
		}
		if _, dup := m.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("duplicate tenant %q", tc.Name)
		}
		cfg := base // per-tenant copy; sessions must not share mutable state
		srv, _, err := NewDurable(cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", tc.Name, err)
		}
		m.tenants[tc.Name] = &tenant{name: tc.Name, quotas: tc.Quotas, srv: srv}
		m.names = append(m.names, tc.Name)
	}
	sort.Strings(m.names)
	return m, nil
}

// Tenant returns the named tenant's underlying Server, for direct
// (non-HTTP) access in tests and embedders.
func (m *Multi) Tenant(name string) (*Server, bool) {
	t, ok := m.tenants[name]
	if !ok {
		return nil, false
	}
	return t.srv, true
}

// Tenants returns the tenant names, sorted.
func (m *Multi) Tenants() []string { return append([]string(nil), m.names...) }

// DrainAll drains every tenant and returns the first error.
func (m *Multi) DrainAll() error {
	var first error
	for _, name := range m.names {
		if err := m.tenants[name].srv.Drain(); err != nil && first == nil {
			first = fmt.Errorf("tenant %q: %w", name, err)
		}
	}
	return first
}

// Handler returns the multi-tenant HTTP handler.
func (m *Multi) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest/{tenant}", m.withTenant(func(t *tenant, w http.ResponseWriter, r *http.Request) {
		t.handleIngest(w, r)
	}))
	mux.HandleFunc("GET /verdict/{tenant}", m.withTenant(func(t *tenant, w http.ResponseWriter, r *http.Request) {
		t.srv.handleVerdict(w, r)
	}))
	mux.HandleFunc("GET /verdict/{tenant}/{key}", m.withTenant(func(t *tenant, w http.ResponseWriter, r *http.Request) {
		t.srv.handleVerdictKey(w, r)
	}))
	mux.HandleFunc("POST /drain/{tenant}", m.withTenant(func(t *tenant, w http.ResponseWriter, r *http.Request) {
		t.srv.handleDrain(w, r)
	}))
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, _ *http.Request) {
		// Drain all, then answer with every final document; per-tenant
		// drain errors ride the same header as the single-tenant path.
		if err := m.DrainAll(); err != nil {
			w.Header().Set("X-Kavserve-Drain-Error", err.Error())
		}
		WriteJSON(w, http.StatusOK, m.verdicts())
	})
	mux.HandleFunc("GET /verdict", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, m.verdicts())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		m.writeMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		// The node's own status follows the single-tenant rule a router
		// probes for: "draining" once no tenant accepts ingest any more.
		health := make(map[string]Health, len(m.names))
		status := "draining"
		for _, name := range m.names {
			h := m.tenants[name].srv.health()
			if !h.Draining {
				status = "ok"
			}
			health[name] = h
		}
		WriteJSON(w, http.StatusOK, struct {
			Status  string            `json:"status"`
			Tenants map[string]Health `json:"tenants"`
		}{status, health})
	})
	return mux
}

// withTenant resolves the {tenant} path segment; unknown tenants 404.
func (m *Multi) withTenant(h func(*tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := m.tenants[r.PathValue("tenant")]
		if !ok {
			http.Error(w, fmt.Sprintf("unknown tenant %q", r.PathValue("tenant")), http.StatusNotFound)
			return
		}
		h(t, w, r)
	}
}

// verdicts assembles every tenant's document, keyed by tenant name.
func (m *Multi) verdicts() map[string]VerdictDoc {
	docs := make(map[string]VerdictDoc, len(m.names))
	for _, name := range m.names {
		docs[name] = m.tenants[name].srv.Verdict()
	}
	return docs
}

// handleIngest enforces the tenant's quotas before delegating to the
// underlying server (which applies its own draining / overload /
// watermark admission checks). All checks run pre-body: nothing is
// half-accepted on a quota reject, so the producer can retry the same
// batch verbatim where the quota is transient.
func (t *tenant) handleIngest(w http.ResponseWriter, r *http.Request) {
	s := t.srv
	for _, q := range []struct {
		quota int64
		used  func() int64
		row   Reject
		what  string
	}{
		{t.quotas.MaxOps, func() int64 { return s.sess.Stats().Ops }, RejectQuotaSpent, "operation quota exhausted (%d ingested, quota %d)"},
		{t.quotas.MaxKeys, s.sess.Keys, RejectQuotaSpent, "key quota exhausted (%d keys, quota %d)"},
		{t.quotas.MaxBufferedOps, s.sess.BufferedOps, RejectQuotaBuffered, "buffered-operation quota reached (%d buffered, quota %d)"},
	} {
		if q.quota <= 0 {
			continue
		}
		if used := q.used(); used >= q.quota {
			s.ingestReqs.Inc()
			s.shed(w, q.row, fmt.Errorf("tenant %s: "+q.what, t.name, used, q.quota))
			return
		}
	}
	s.handleIngest(w, r)
}

// writeMetrics merges every tenant's exposition, labeling each sample
// line tenant="name". HELP/TYPE headers are deduplicated across tenants
// via the shared seen set, keeping the merged output parseable.
func (m *Multi) writeMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	seen := make(map[string]bool)
	var buf bytes.Buffer
	for _, name := range m.names {
		buf.Reset()
		m.tenants[name].srv.reg.WriteTo(&buf)
		metrics.WriteRelabeled(w, buf.Bytes(), `tenant="`+name+`"`, seen)
	}
}

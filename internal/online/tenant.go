package online

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"kat/internal/checkpoint"
	"kat/internal/metrics"
)

// TenantQuotas bounds one tenant's lifetime resource use on a shared server.
// All quotas are enforced before the request body is read, so a tenant at
// its quota costs the server one rejected request, not a parse. The
// tenant's memory bound is Config.MemoryBudget, which every tenant applies
// to its own buffered bytes.
type TenantQuotas struct {
	// MaxOps caps lifetime ingested operations (0 = unlimited). Hitting
	// it is permanent for the tenant's lifetime: rejects are HTTP 429
	// without Retry-After.
	MaxOps int64
	// MaxKeys caps distinct keys (0 = unlimited). Like MaxOps, hitting
	// it is permanent — retirement does not lower the distinct-key
	// count, so the quota is over keys ever seen.
	MaxKeys int64
}

// TenantConfig names one tenant and its quotas. A lone tenant with the
// empty name is the root tenant.
type TenantConfig struct {
	Name   string
	Quotas TenantQuotas
}

// TenantNameError refuses a tenant name that is not one clean URL path
// segment and directory name: empty, "." or "..", or holding a byte other
// than the unreserved URL bytes (letters, digits, "-._~").
type TenantNameError struct{ Name string }

func (e *TenantNameError) Error() string {
	return fmt.Sprintf("tenant name %q: want letters, digits and -._~, not . or ..", e.Name)
}

const tenantNameBytes = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._~"

// Multi is the verifying node: one isolated Server — one trace.Session,
// verdict namespace and, when durable, checkpoint directory — per tenant, all
// verifying on one shared core.Pool so a quiet tenant's workers serve a busy
// one. A single-tenant node holds only the root tenant, named "", and never
// beside named ones: /verdict/{tenant} would collide with its /verdict/{key}.
//
// Each tenant serves one route table, at the root for the root tenant and
// with its name after the first path element otherwise:
//
//	POST /ingest[/{tenant}]           ingest; quotas are checked before the
//	                                  body is read (RejectQuotaSpent)
//	GET  /verdict[/{tenant}][/{key}]  the verdict document (?epoch=N), or a key's
//	POST /drain[/{tenant}]            drain the tenant; others keep ingesting
//
// GET /metrics and GET /healthz answer in the root tenant's own shapes, or
// with every named tenant's samples labeled tenant="name" and its health keyed
// by name; a node of named tenants adds POST /drain (all of them) and GET
// /verdict, which answer every document keyed by name.
//
// Isolation: quotas, drain state, ordering contracts, sticky errors and
// durability are per tenant, so one tenant at its quota (or drained, or
// broken) never blocks another's ingest. The root tenant's WAL and
// checkpoints live in the data directory itself, a named tenant's in
// <data-dir>/<name>.
type Multi struct {
	names   []string // sorted, for deterministic /metrics and /verdict order
	tenants map[string]*Server
	root    *Server // the lone root tenant; nil when tenants are named
}

// NewMulti builds one Server per tenant from the shared base config (K,
// properties, lifecycle, memory budget); set Stream.Pool so tenants share
// workers. open, when non-nil, opens a tenant's checkpoint manager by name
// and makes it durable: it recovers before NewMulti returns.
func NewMulti(base Config, tenants []TenantConfig, open func(name string) (*checkpoint.Manager, error)) (*Multi, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("no tenants configured")
	}
	rooted := len(tenants) == 1 && tenants[0].Name == ""
	seen := make(map[string]bool, len(tenants))
	for _, tc := range tenants {
		bad := tc.Name == "" || tc.Name == "." || tc.Name == ".." || strings.Trim(tc.Name, tenantNameBytes) != ""
		if !rooted && bad {
			return nil, &TenantNameError{tc.Name}
		}
		if seen[tc.Name] {
			return nil, fmt.Errorf("duplicate tenant %q", tc.Name)
		}
		seen[tc.Name] = true
	}
	m := &Multi{tenants: make(map[string]*Server, len(tenants))}
	for _, tc := range tenants {
		var mgr *checkpoint.Manager
		var srv *Server
		var err error
		if open != nil {
			mgr, err = open(tc.Name)
		}
		if err == nil {
			srv, _, err = NewDurable(base, mgr)
		}
		if err != nil {
			if mgr != nil {
				mgr.Close()
			}
			m.Close()
			return nil, tenantErr(tc.Name, err)
		}
		srv.setQuotas(tc.Name, tc.Quotas)
		m.tenants[tc.Name] = srv
		m.names = append(m.names, tc.Name)
	}
	sort.Strings(m.names)
	if rooted {
		m.root = m.tenants[""]
	}
	return m, nil
}

// tenantErr names the tenant an error belongs to; the root's needs no name.
func tenantErr(name string, err error) error {
	if name == "" {
		return err
	}
	return fmt.Errorf("tenant %q: %w", name, err)
}

// Tenant returns the named tenant's Server ("" for the root tenant).
func (m *Multi) Tenant(name string) (*Server, bool) {
	s, ok := m.tenants[name]
	return s, ok
}

// Tenants returns the tenant names, sorted ([""] for a single-tenant node).
func (m *Multi) Tenants() []string { return append([]string(nil), m.names...) }

// DrainAll drains every tenant (Server.Drain) and returns the first error.
func (m *Multi) DrainAll() error {
	var first error
	for _, name := range m.names {
		if err := m.tenants[name].Drain(); err != nil && first == nil {
			first = tenantErr(name, err)
		}
	}
	return first
}

// Start runs every durable tenant's background checkpoint at interval; a
// tenant recovered drained has nothing left to checkpoint.
func (m *Multi) Start(interval time.Duration) {
	for _, s := range m.tenants {
		if s.mgr != nil && !closed(s.drained) {
			s.mgr.Start(interval)
		}
	}
}

// Close stops every durable tenant's checkpoint ticker and closes its WAL
// without a final checkpoint.
func (m *Multi) Close() error {
	var err error
	for _, s := range m.tenants {
		if s.mgr != nil {
			err = errors.Join(err, s.mgr.Close())
		}
	}
	return err
}

// tenantRoutes is the one per-tenant route table; Handler puts a /{tenant}
// segment before rest for named tenants.
var tenantRoutes = []struct {
	method, path, rest string
	serve              func(*Server, http.ResponseWriter, *http.Request)
}{
	{"POST", "/ingest", "", (*Server).handleIngest},
	{"GET", "/verdict", "", (*Server).handleVerdict},
	{"GET", "/verdict", "/{key}", (*Server).handleVerdictKey},
	{"POST", "/drain", "", (*Server).handleDrain},
}

// Handler returns the node's HTTP handler.
func (m *Multi) Handler() http.Handler {
	mux := http.NewServeMux()
	seg := "/{tenant}"
	if m.root != nil {
		seg = ""
	}
	for _, rt := range tenantRoutes {
		mux.HandleFunc(rt.method+" "+rt.path+seg+rt.rest, func(w http.ResponseWriter, r *http.Request) {
			if s := m.tenant(w, r); s != nil {
				rt.serve(s, w, r)
			}
		})
	}
	if m.root == nil {
		mux.HandleFunc("POST /drain", func(w http.ResponseWriter, _ *http.Request) {
			// Drain all, then answer with every final document; per-tenant
			// drain errors ride the same header as one tenant's drain.
			if err := m.DrainAll(); err != nil {
				w.Header().Set("X-Kavserve-Drain-Error", err.Error())
			}
			WriteJSON(w, http.StatusOK, m.verdicts())
		})
		mux.HandleFunc("GET /verdict", func(w http.ResponseWriter, _ *http.Request) {
			WriteJSON(w, http.StatusOK, m.verdicts())
		})
	}
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	mux.HandleFunc("GET /healthz", m.handleHealthz)
	return mux
}

// tenant resolves the request's {tenant} path segment — "", the root
// tenant's name, on root routes — answering 404 for an unknown name.
func (m *Multi) tenant(w http.ResponseWriter, r *http.Request) *Server {
	s, ok := m.tenants[r.PathValue("tenant")]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown tenant %q", r.PathValue("tenant")), http.StatusNotFound)
	}
	return s
}

// verdicts assembles every tenant's document, keyed by tenant name.
func (m *Multi) verdicts() map[string]VerdictDoc {
	docs := make(map[string]VerdictDoc, len(m.names))
	for _, name := range m.names {
		docs[name] = m.tenants[name].Verdict()
	}
	return docs
}

func (m *Multi) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if m.root != nil {
		WriteJSON(w, http.StatusOK, m.root.health())
		return
	}
	// The node's own status follows the single-tenant rule a router
	// probes for: "draining" once no tenant accepts ingest any more.
	health := make(map[string]Health, len(m.names))
	status := "draining"
	for _, name := range m.names {
		h := m.tenants[name].health()
		if !h.Draining {
			status = "ok"
		}
		health[name] = h
	}
	WriteJSON(w, http.StatusOK, struct {
		Status  string            `json:"status"`
		Tenants map[string]Health `json:"tenants"`
	}{status, health})
}

// handleMetrics writes the root tenant's exposition as is, or merges every
// named tenant's with each sample labeled tenant="name" and HELP/TYPE
// headers written once.
func (m *Multi) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if m.root != nil {
		m.root.reg.WriteTo(w)
		return
	}
	seen := make(map[string]bool)
	var buf bytes.Buffer
	for _, name := range m.names {
		buf.Reset()
		m.tenants[name].reg.WriteTo(&buf)
		metrics.WriteRelabeled(w, buf.Bytes(), `tenant="`+name+`"`, seen)
	}
}

// quota is one lifetime bound of a tenant: used() reaching max spends it
// (RejectQuotaSpent).
type quota struct {
	max  int64
	used func() int64
	what string // format of the error, given used and max
}

// setQuotas builds the tenant's quota table once; a quota-free tenant's is
// empty.
func (s *Server) setQuotas(name string, q TenantQuotas) {
	prefix := ""
	if name != "" {
		prefix = "tenant " + name + ": "
	}
	for _, c := range []quota{
		{q.MaxOps, func() int64 { return s.sess.Stats().Ops }, "operation quota exhausted (%d ingested, quota %d)"},
		{q.MaxKeys, s.sess.Keys, "key quota exhausted (%d keys, quota %d)"},
	} {
		if c.max > 0 {
			c.what = prefix + c.what
			s.quotas = append(s.quotas, c)
		}
	}
}

// admitQuotas sheds the request at the first quota the tenant has spent and
// reports whether it may go on. It runs before the body is read.
func (s *Server) admitQuotas(w http.ResponseWriter) bool {
	for _, q := range s.quotas {
		if used := q.used(); used >= q.max {
			s.shed(w, RejectQuotaSpent, fmt.Errorf(q.what, used, q.max))
			return false
		}
	}
	return true
}

// Package serve is kavserve's composition root: New turns the command's
// argument vector into a Node — a verifying online.Multi (one root tenant,
// or the -tenants list) or a cluster router (-route) — and Node.Serve runs
// it on a listener until a shutdown signal.
//
// The filesystem a durable node keeps its data directory on is a parameter,
// so tests run the whole node on a faultfs.MemFS.
package serve

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"kat"
	"kat/internal/checkpoint"
	"kat/internal/cluster"
	"kat/internal/faultfs"
	"kat/internal/online"
	"kat/internal/wal"
)

// Node is one configured kavserve process.
type Node struct {
	// Addr is the -addr listen address.
	Addr string
	// Handler serves every endpoint of the node.
	Handler http.Handler
	// Shutdown is the graceful stop Serve runs on a signal: a verifying node
	// drains every tenant, durable ones sealing a terminal checkpoint, and
	// prints each final document under "kavserve: final" (or "kavserve:
	// [name] final" per named tenant); a router only says it stops.
	Shutdown func()
	// Close releases the node without draining: the pool and checkpoint
	// managers, or the router's probes. Serve calls it on return.
	Close func()

	hs    *http.Server   // the hardened server, Handler unset until Serve
	grace time.Duration  // -shutdown-timeout
	start func(net.Addr) // logs the listen line; starts the router's probes
}

// New configures a node from kavserve's arguments. A verifying node is
// recovered from its data directory (on fsys) before New returns, and its
// recovery is logged to out, as is everything the node reports later.
func New(args []string, out io.Writer, fsys faultfs.FS) (*Node, error) {
	fs := flag.NewFlagSet("kavserve", flag.ContinueOnError)
	fs.SetOutput(out) // -h and flag errors print the usage with the node's log
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		k        = fs.Int("k", 2, "staleness bound keys are judged against in /verdict")
		workers  = fs.Int("workers", 0, "verification pool size (0 = GOMAXPROCS)")
		horizon  = fs.Int("horizon", 0, "smallest-k staleness horizon in writes (0 = default)")
		propSet  = fs.String("properties", "k", "comma-separated properties verified in the same pass: k (always on), delta (smallest Δ), regularity (Lamport safety/regularity)")
		pprofOn  = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ with mutex and block profiling enabled (ingest-contention observability)")
		dataDir  = fs.String("data-dir", "", "durability directory: per-shard WAL + checkpoints; ingest survives crashes and restarts recover it (empty = in-memory only)")
		fsync    = fs.String("fsync", "batch", "WAL sync policy: batch (group fsync per ingest batch), always (fsync every record), never (OS page cache only)")
		ckptIval = fs.Duration("checkpoint-interval", 5*time.Second, "cadence of background checkpoints that bound WAL replay length")
		budget   = fs.String("memory-budget", "", "per-tenant bound on the bytes unverified operations are buffered in (kavserve_buffered_bytes; bytes, or with K/M/G/T suffix): from half of it ingest retires keys idle past -retire-ttl now and spills the largest held runs to -data-dir, and at it /ingest sheds with 503 overload + Retry-After (empty = unbounded)")

		// Keyspace lifecycle.
		retireTTL = fs.String("retire-ttl", "", "retire a key quiescent past the safe-cut horizon for this long, folding its final verdict into a compact retired record; trace-time integer, or a Go duration for nanosecond-stamped traces (empty = never retire)")
		epochLen  = fs.String("epoch", "", "rotate verdict windows of this length at quiescent cuts; /verdict?epoch=N then answers per-window (trace-time integer or Go duration; empty = no epoch windows)")

		// Multi-tenant mode.
		tenants    = fs.String("tenants", "", "multi-tenant mode: comma-separated tenant names, each an isolated session behind /ingest/{tenant} and /verdict/{tenant}, all sharing one verification pool")
		tenantOps  = fs.Int64("tenant-max-ops", 0, "per-tenant lifetime operation quota; exceeding it rejects with quota_exceeded (0 = unlimited)")
		tenantKeys = fs.Int64("tenant-max-keys", 0, "per-tenant distinct-key quota (0 = unlimited)")

		// Router mode.
		route      = fs.String("route", "", "router mode: comma-separated member base URLs; this process forwards by key hash instead of verifying locally")
		hopTimeout = fs.Duration("hop-timeout", cluster.DefaultHopTimeout, "router: deadline per forwarded request")
		probeIval  = fs.Duration("probe-interval", cluster.DefaultProbeInterval, "router: member health-probe cadence")
		fwdRetries = fs.Int("forward-retries", cluster.DefaultForwardRetries, "router: retry attempts per forwarded sub-batch beyond the first")

		// HTTP server hardening (both modes).
		readHeaderTO = fs.Duration("read-header-timeout", 10*time.Second, "cap on reading a request's headers (slowloris guard)")
		readTO       = fs.Duration("read-timeout", 5*time.Minute, "cap on reading a whole request, headers+body (0 = unlimited)")
		idleTO       = fs.Duration("idle-timeout", 2*time.Minute, "cap on idle keep-alive connections")
		shutdownTO   = fs.Duration("shutdown-timeout", 10*time.Second, "grace for in-flight responses at shutdown before connections are closed")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	n := &Node{Addr: *addr, grace: *shutdownTO,
		hs: &http.Server{ReadHeaderTimeout: *readHeaderTO, ReadTimeout: *readTO, IdleTimeout: *idleTO}}
	if *route != "" {
		if *dataDir != "" {
			return nil, fmt.Errorf("-route and -data-dir are mutually exclusive: the router holds no verification state")
		}
		if *tenants != "" {
			return nil, fmt.Errorf("-route and -tenants are mutually exclusive: tenancy lives on the member nodes")
		}
		err := n.router(cluster.Config{
			Nodes:          splitList(*route),
			HopTimeout:     *hopTimeout,
			ProbeInterval:  *probeIval,
			ForwardRetries: *fwdRetries,
		}, out)
		if err != nil {
			return nil, err
		}
		return n, nil
	}
	policy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		return nil, err
	}
	properties, err := kat.ParseProperties(*propSet)
	if err != nil {
		return nil, err
	}
	cfg := online.Config{K: *k}
	cfg.Stream.Horizon = *horizon
	cfg.Stream.Properties = properties
	if cfg.Stream.RetireTTL, err = parseTraceTime(*retireTTL, "-retire-ttl"); err != nil {
		return nil, err
	}
	if cfg.Stream.EpochLength, err = parseTraceTime(*epochLen, "-epoch"); err != nil {
		return nil, err
	}
	if cfg.MemoryBudget, err = parseByteSize(*budget, "-memory-budget"); err != nil {
		return nil, err
	}
	// The root tenant is a tenant: the quotas bind it as they bind each
	// named one.
	quotas := online.TenantQuotas{MaxOps: *tenantOps, MaxKeys: *tenantKeys}
	tcs := []online.TenantConfig{{Quotas: quotas}}
	if *tenants != "" {
		tcs = nil
		for _, name := range splitList(*tenants) {
			tcs = append(tcs, online.TenantConfig{Name: name, Quotas: quotas})
		}
	}
	var open func(string) (*checkpoint.Manager, error)
	mgrs := make(map[string]*checkpoint.Manager)
	if *dataDir != "" {
		// The root tenant keeps the data directory itself; a named tenant
		// gets <data-dir>/<name>.
		open = func(name string) (*checkpoint.Manager, error) {
			mgr, err := checkpoint.Open(fsys, filepath.Join(*dataDir, name), checkpoint.Config{
				Policy:  policy,
				OnError: func(err error) { fmt.Fprintf(out, "%scheckpoint error: %v\n", logPrefix(name), err) },
			})
			mgrs[name] = mgr
			return mgr, err
		}
	}
	// One shared pool for every tenant session.
	pool := kat.NewPool(*workers)
	cfg.Stream.Pool = pool
	multi, err := online.NewMulti(cfg, tcs, open)
	if err != nil {
		pool.Close()
		return nil, err
	}
	names := multi.Tenants()
	for _, name := range names {
		if mgr := mgrs[name]; mgr != nil {
			rs := mgr.Stats().Recovery
			fmt.Fprintf(out, "%srecovered checkpoint epoch %d (%d keys), replayed %d ops from %d WAL records (%d torn bytes dropped)\n",
				logPrefix(name), rs.CheckpointEpoch, rs.RestoredKeys, rs.ReplayedOps, rs.ReplayedRecords, rs.TornBytes)
			if srv, _ := multi.Tenant(name); srv.Draining() {
				fmt.Fprintf(out, "%srecovered state is drained; serving final verdicts, ingest disabled\n", logPrefix(name))
			}
		}
	}
	multi.Start(*ckptIval)
	n.Handler = multi.Handler()
	if *pprofOn {
		n.Handler = withPprof(n.Handler)
	}
	tenantList := ""
	if *tenants != "" {
		tenantList = ", tenants=" + strings.Join(names, ",")
	}
	n.start = func(a net.Addr) {
		fmt.Fprintf(out, "kavserve: listening on %s (k=%d, properties=%s%s)\n", a, *k, properties, tenantList)
	}
	n.Shutdown = func() {
		fmt.Fprintln(out, "kavserve: draining...")
		if err := multi.DrainAll(); err != nil {
			fmt.Fprintf(out, "kavserve: drain error: %v\n", err)
		}
		for _, name := range names {
			srv, _ := multi.Tenant(name)
			srv.Verdict().WriteText(out, logPrefix(name)+"final")
		}
	}
	n.Close = func() {
		multi.Close()
		pool.Close()
	}
	return n, nil
}

// logPrefix tags a tenant's log lines; the root tenant's are untagged.
func logPrefix(tenant string) string {
	if tenant == "" {
		return "kavserve: "
	}
	return "kavserve: [" + tenant + "] "
}

// router configures cluster-router mode: no local verification, only
// health-checked forwarding and verdict merging over the member nodes.
func (n *Node) router(cfg cluster.Config, out io.Writer) error {
	cfg.Logf = func(format string, args ...any) { fmt.Fprintf(out, "kavserve: "+format+"\n", args...) }
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		return err
	}
	n.Handler = rt.Handler()
	n.start = func(a net.Addr) {
		fmt.Fprintf(out, "kavserve: routing on %s over %d node(s), %d slots\n", a, len(cfg.Nodes), rt.Partition().Slots())
		for i, node := range cfg.Nodes {
			fmt.Fprintf(out, "kavserve: node %d %s owns %s\n", i, node, rt.Partition().Range(i))
		}
		rt.Start()
	}
	n.Shutdown = func() {
		// The router holds no verdict state; members keep theirs. A cluster
		// drain is explicit (POST /drain) — shutdown just stops routing.
		fmt.Fprintln(out, "kavserve: router shutting down (members keep their state)")
	}
	n.Close = func() { rt.Close() }
	return nil
}

// Serve serves the node on ln until the listener fails on its own (that
// error is returned) or a shutdown signal arrives. Then it runs Shutdown with
// the server still answering, so a client's /drain or /verdict read
// completes, gives in-flight responses -shutdown-timeout, and closes the
// node.
func (n *Node) Serve(ln net.Listener, shutdown <-chan os.Signal) error {
	defer n.Close()
	n.start(ln.Addr())
	hs := n.hs
	hs.Handler = n.Handler
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-shutdown:
	}
	n.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), n.grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		return err
	}
	return nil
}

// parseTraceTime parses a trace-time length: a plain integer (abstract
// trace-time units, matching synthetic traces), or a Go duration
// (nanoseconds, matching traces stamped with wall-clock UnixNano).
func parseTraceTime(s, flagName string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("%s: must be >= 0, got %d", flagName, n)
		}
		return n, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("%s: want a trace-time integer or a Go duration, got %q", flagName, s)
	}
	return int64(d), nil
}

// parseByteSize parses a byte count: a plain integer, optionally with a
// K/M/G/T suffix (binary multiples; "KB"/"KiB" spellings accepted), at most
// math.MaxInt64 bytes.
func parseByteSize(s, flagName string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	num, shift := strings.ToLower(strings.TrimSpace(s)), 0
	if i := strings.LastIndexAny(num, "kmgt"); i >= 0 && (num[i+1:] == "" || num[i+1:] == "b" || num[i+1:] == "ib") {
		num, shift = num[:i], 10*(strings.IndexByte("kmgt", num[i])+1)
	}
	n, err := strconv.ParseUint(strings.TrimSpace(num), 10, 64)
	if err != nil || n > math.MaxInt64>>shift {
		return 0, fmt.Errorf("%s: want bytes below 8 EiB (optionally with K/M/G/T suffix), got %q", flagName, s)
	}
	return int64(n << shift), nil
}

// splitList parses a comma-separated -route or -tenants list.
func splitList(list string) []string {
	var items []string
	for _, item := range strings.Split(list, ",") {
		if item = strings.TrimSpace(item); item != "" {
			items = append(items, item)
		}
	}
	return items
}

// withPprof mounts the net/http/pprof handlers next to the service mux and
// turns on the mutex and block profiles, so ingest lock contention is
// observable in production:
//
//	go tool pprof http://localhost:8080/debug/pprof/mutex
//	go tool pprof http://localhost:8080/debug/pprof/block
func withPprof(h http.Handler) http.Handler {
	// Sampling rates, not firehoses: 1-in-5 mutex contention events and
	// blocking events >= 100µs keep the profiles cheap enough to leave on.
	runtime.SetMutexProfileFraction(5)
	runtime.SetBlockProfileRate(int(100 * time.Microsecond / time.Nanosecond))
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle("/debug/pprof/", http.DefaultServeMux) // where net/http/pprof registers
	return mux
}

// Command kavserve is the online continuous-verification service: it accepts
// operation streams from many concurrent clients over HTTP, verifies them
// incrementally on a shared work-stealing pool, and serves live per-key
// verdicts (smallest k, status at the configured bound, violation
// witnesses).
//
// Usage:
//
//	kavserve -addr :8080 -k 2
//	kavgen -keys 64 -ops 500 -replay http://localhost:8080 -drain
//	curl localhost:8080/verdict
//	curl localhost:8080/metrics
//
// Ingest wants the keyed trace format, newline-delimited, each key's
// operations in nondecreasing start order (the natural order of an operation
// log; route each key through one client). On SIGINT/SIGTERM the server
// drains gracefully — open segments flush to final verdicts, which are
// printed before exit and stay queryable until the listener closes.
//
// With -route, kavserve becomes a cluster router instead of a verification
// node: it forwards ingest batches to the listed member nodes by key hash,
// health-checks them, and merges their verdicts — see the README's
// "Cluster mode" section.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kat"
	"kat/internal/checkpoint"
	"kat/internal/cluster"
	"kat/internal/faultfs"
	"kat/internal/online"
	"kat/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kavserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kavserve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		k        = fs.Int("k", 2, "staleness bound keys are judged against in /verdict")
		workers  = fs.Int("workers", 0, "verification pool size (0 = GOMAXPROCS)")
		horizon  = fs.Int("horizon", 0, "smallest-k staleness horizon in writes (0 = default)")
		minSeg   = fs.Int("min-segment-ops", 0, "minimum open-window size before a quiescent cut (0 = default)")
		maxBuf   = fs.Int("max-buffered-ops", 0, "cap on live buffered operations across keys (0 = uncapped)")
		shards   = fs.Int("ingest-shards", 0, "ingest shard count: concurrent producers contend only per key-hash shard (0 = default)")
		propSet  = fs.String("properties", "k", "comma-separated properties verified in the same pass: k (always on), delta (smallest Δ), regularity (Lamport safety/regularity)")
		pprofOn  = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ with mutex and block profiling enabled (ingest-contention observability)")
		dataDir  = fs.String("data-dir", "", "durability directory: per-shard WAL + checkpoints; ingest survives crashes and restarts recover it (empty = in-memory only)")
		fsync    = fs.String("fsync", "batch", "WAL sync policy: batch (group fsync per ingest batch), always (fsync every record), never (OS page cache only)")
		ckptIval = fs.Duration("checkpoint-interval", 5*time.Second, "cadence of background checkpoints that bound WAL replay length")
		spillOps = fs.Int("spill-threshold-ops", 0, "verified-segment ops retained in memory per key before cold segments spill to -data-dir (0 = default; needs -data-dir)")
		overload = fs.Int64("overload-ops", 0, "shed /ingest with 503 + Retry-After once this many ops are buffered unverified (0 = never shed)")

		// Keyspace lifecycle.
		retireTTL = fs.String("retire-ttl", "", "retire a key quiescent past the safe-cut horizon for this long, folding its final verdict into a compact retired record; trace-time integer, or a Go duration for nanosecond-stamped traces (empty = never retire)")
		epochLen  = fs.String("epoch", "", "rotate verdict windows of this length at quiescent cuts; /verdict?epoch=N then answers per-window (trace-time integer or Go duration; empty = no epoch windows)")
		softWM    = fs.String("soft-watermark", "", "live-heap size (bytes, or with K/M/G suffix) above which ingest sweeps keys idle past -retire-ttl now instead of at the next cadence and spills open windows to -data-dir (empty = off; needs one of the two)")
		hardWM    = fs.String("hard-watermark", "", "live-heap size above which /ingest sheds with a typed memory_pressure 503 + Retry-After instead of growing toward OOM (empty = off)")

		// Multi-tenant mode.
		tenants    = fs.String("tenants", "", "multi-tenant mode: comma-separated tenant names, each an isolated session behind /ingest/{tenant} and /verdict/{tenant}, all sharing one verification pool")
		tenantOps  = fs.Int64("tenant-max-ops", 0, "per-tenant lifetime operation quota; exceeding it rejects with quota_exceeded (0 = unlimited)")
		tenantKeys = fs.Int64("tenant-max-keys", 0, "per-tenant distinct-key quota (0 = unlimited)")
		tenantBuf  = fs.Int64("tenant-max-buffered", 0, "per-tenant live buffered-operation quota — the tenant memory bound; rejects are 503 + Retry-After and clear as verification catches up (0 = unlimited)")

		// Router mode.
		route       = fs.String("route", "", "router mode: comma-separated member base URLs; this process forwards by key hash instead of verifying locally")
		routeSlots  = fs.Int("route-slots", 0, "router partition granularity in slots (0 = default)")
		hopTimeout  = fs.Duration("hop-timeout", 5*time.Second, "router: deadline per forwarded request")
		probeIval   = fs.Duration("probe-interval", time.Second, "router: member health-probe cadence")
		brkThresh   = fs.Int("breaker-threshold", 3, "router: consecutive failures before a member's circuit breaker opens")
		brkCooldown = fs.Duration("breaker-cooldown", 3*time.Second, "router: open-breaker dwell before a half-open trial")
		fwdRetries  = fs.Int("forward-retries", 6, "router: retry attempts per forwarded sub-batch beyond the first")

		// HTTP server hardening (both modes).
		readHeaderTO = fs.Duration("read-header-timeout", 10*time.Second, "cap on reading a request's headers (slowloris guard)")
		readTO       = fs.Duration("read-timeout", 5*time.Minute, "cap on reading a whole request, headers+body (0 = unlimited)")
		idleTO       = fs.Duration("idle-timeout", 2*time.Minute, "cap on idle keep-alive connections")
		shutdownTO   = fs.Duration("shutdown-timeout", 10*time.Second, "grace for in-flight responses at shutdown before connections are closed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *tenants == "" && (*tenantOps > 0 || *tenantKeys > 0 || *tenantBuf > 0) {
		return fmt.Errorf("-tenant-max-ops, -tenant-max-keys and -tenant-max-buffered need -tenants: quotas are per tenant, and without it nothing would enforce them")
	}
	ht := httpTimeouts{readHeader: *readHeaderTO, read: *readTO, idle: *idleTO, shutdown: *shutdownTO}
	if *route != "" {
		if *dataDir != "" {
			return fmt.Errorf("-route and -data-dir are mutually exclusive: the router holds no verification state")
		}
		if *tenants != "" {
			return fmt.Errorf("-route and -tenants are mutually exclusive: tenancy lives on the member nodes")
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigs)
		return serveRouter(ln, cluster.Config{
			Nodes:            splitNodes(*route),
			Slots:            *routeSlots,
			HopTimeout:       *hopTimeout,
			ProbeInterval:    *probeIval,
			BreakerThreshold: *brkThresh,
			BreakerCooldown:  *brkCooldown,
			ForwardRetries:   *fwdRetries,
		}, ht, sigs, out)
	}
	policy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}
	if *dataDir == "" && *spillOps > 0 {
		return fmt.Errorf("-spill-threshold-ops needs -data-dir")
	}
	if *softWM != "" && *retireTTL == "" && *dataDir == "" {
		return fmt.Errorf("-soft-watermark needs -retire-ttl or -data-dir: relief retires keys idle past the TTL and spills to the data directory, and would have nothing to reclaim with")
	}
	properties, err := kat.ParseProperties(*propSet)
	if err != nil {
		return err
	}
	cfg := online.Config{K: *k, OverloadOps: *overload}
	cfg.Stream.Workers = *workers
	cfg.Stream.Horizon = *horizon
	cfg.Stream.MinSegmentOps = *minSeg
	cfg.Stream.MaxBufferedOps = *maxBuf
	cfg.Stream.IngestShards = *shards
	cfg.Stream.SpillThresholdOps = *spillOps
	cfg.Stream.Properties = properties
	if cfg.Stream.RetireTTL, err = parseTraceTime(*retireTTL, "-retire-ttl"); err != nil {
		return err
	}
	if cfg.Stream.EpochLength, err = parseTraceTime(*epochLen, "-epoch"); err != nil {
		return err
	}
	if cfg.SoftWatermarkBytes, err = parseByteSize(*softWM, "-soft-watermark"); err != nil {
		return err
	}
	if cfg.HardWatermarkBytes, err = parseByteSize(*hardWM, "-hard-watermark"); err != nil {
		return err
	}
	if *tenants != "" {
		if *dataDir != "" {
			return fmt.Errorf("-tenants and -data-dir are mutually exclusive: the checkpoint layout assumes one session")
		}
		names := splitNodes(*tenants)
		if len(names) == 0 {
			return fmt.Errorf("-tenants is set but names no tenants")
		}
		// One shared pool for every tenant session; without this each
		// tenant would spin up its own worker set.
		pool := kat.NewPool(*workers)
		defer pool.Close()
		cfg.Stream.Pool = pool
		quotas := online.TenantQuotas{MaxOps: *tenantOps, MaxKeys: *tenantKeys, MaxBufferedOps: *tenantBuf}
		tcs := make([]online.TenantConfig, len(names))
		for i, name := range names {
			tcs[i] = online.TenantConfig{Name: name, Quotas: quotas}
		}
		multi, err := online.NewMulti(cfg, tcs)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigs)
		fmt.Fprintf(out, "kavserve: listening on %s (k=%d, properties=%s, tenants=%s)\n",
			ln.Addr(), *k, properties, strings.Join(multi.Tenants(), ","))
		return serveMulti(ln, multi, *pprofOn, ht, sigs, out)
	}
	var mgr *checkpoint.Manager
	if *dataDir != "" {
		mgr, err = checkpoint.Open(faultfs.OS(), *dataDir, checkpoint.Config{
			Policy:  policy,
			OnError: func(err error) { fmt.Fprintf(out, "kavserve: checkpoint error: %v\n", err) },
		})
		if err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	fmt.Fprintf(out, "kavserve: listening on %s (k=%d, properties=%s)\n", ln.Addr(), *k, properties)
	return serve(ln, cfg, mgr, *ckptIval, *pprofOn, ht, sigs, out)
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
// K/M/G/T suffix (binary multiples; "KB"/"KiB" spellings accepted).
func parseByteSize(s, flagName string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	num := strings.ToLower(strings.TrimSpace(s))
	mult := uint64(1)
	for _, u := range []struct {
		suffix string
		mult   uint64
	}{
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
		{"tib", 1 << 40}, {"tb", 1 << 40}, {"t", 1 << 40},
	} {
		if strings.HasSuffix(num, u.suffix) {
			num, mult = strings.TrimSuffix(num, u.suffix), u.mult
			break
		}
	}
	n, err := strconv.ParseUint(strings.TrimSpace(num), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: want bytes (optionally with K/M/G/T suffix), got %q", flagName, s)
	}
	return n * mult, nil
}

// splitNodes parses the -route node list.
func splitNodes(route string) []string {
	var nodes []string
	for _, n := range strings.Split(route, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// httpTimeouts hardens the HTTP server in both modes: header and
// whole-request read deadlines (slowloris and stalled-body guards), an
// idle keep-alive cap, and a bounded shutdown grace.
type httpTimeouts struct {
	readHeader, read, idle, shutdown time.Duration
}

// serveHTTP is the serving loop of every mode: it serves h on ln until the
// listener fails on its own (that error is returned — there is nothing to
// drain into) or a shutdown signal arrives, then runs onShutdown (the mode's
// drain and final report) with the server still answering, so a client's
// /drain or /verdict read completes, and shuts down: in-flight responses get
// ht.shutdown to finish (Shutdown, not Close) before connections are closed
// outright.
func serveHTTP(ln net.Listener, h http.Handler, ht httpTimeouts, shutdown <-chan os.Signal, onShutdown func()) error {
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ht.readHeader,
		ReadTimeout:       ht.read,
		IdleTimeout:       ht.idle,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-shutdown:
	}
	onShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), ht.shutdown)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		return err
	}
	return nil
}

// serveRouter runs cluster-router mode: no local verification, only
// health-checked forwarding and verdict merging over the member nodes.
func serveRouter(ln net.Listener, cfg cluster.Config, ht httpTimeouts, shutdown <-chan os.Signal, out io.Writer) error {
	cfg.Logf = func(format string, args ...any) { fmt.Fprintf(out, "kavserve: "+format+"\n", args...) }
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "kavserve: routing on %s over %d node(s), %d slots\n",
		ln.Addr(), len(cfg.Nodes), rt.Partition().Slots())
	for i, node := range cfg.Nodes {
		fmt.Fprintf(out, "kavserve: node %d %s owns %s\n", i, node, rt.Partition().Range(i))
	}
	rt.Start()
	defer rt.Close()
	return serveHTTP(ln, rt.Handler(), ht, shutdown, func() {
		// The router holds no verdict state; members keep theirs. A cluster
		// drain is explicit (POST /drain) — shutdown just stops routing.
		fmt.Fprintln(out, "kavserve: router shutting down (members keep their state)")
	})
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
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs the service on ln until a signal arrives, then drains the
// session, prints the final verdicts, and shuts the listener down. With a
// non-nil durability manager it first recovers any checkpoint + WAL tail
// from disk and logs batches through the manager while serving.
func serve(ln net.Listener, cfg online.Config, mgr *checkpoint.Manager, ckptIval time.Duration, pprofOn bool, ht httpTimeouts, shutdown <-chan os.Signal, out io.Writer) error {
	srv, rs, err := online.NewDurable(cfg, mgr)
	if err != nil {
		return err
	}
	if mgr != nil {
		fmt.Fprintf(out, "kavserve: recovered checkpoint epoch %d (%d keys), replayed %d ops from %d WAL records (%d torn bytes dropped)\n",
			rs.CheckpointEpoch, rs.RestoredKeys, rs.ReplayedOps, rs.ReplayedRecords, rs.TornBytes)
		if srv.Verdict().Drained {
			fmt.Fprintln(out, "kavserve: recovered state is drained; serving final verdicts, ingest disabled")
		} else if ckptIval > 0 {
			mgr.Start(ckptIval)
		}
		defer mgr.Close()
	}
	handler := http.Handler(srv.Handler())
	if pprofOn {
		handler = withPprof(handler)
	}
	return serveHTTP(ln, handler, ht, shutdown, func() {
		fmt.Fprintln(out, "kavserve: draining...")
		if err := srv.Drain(); err != nil {
			fmt.Fprintf(out, "kavserve: drain error: %v\n", err)
		}
		srv.Verdict().WriteText(out, "kavserve: final")
	})
}

// serveMulti runs multi-tenant mode: one isolated session per tenant on a
// shared pool, drained together on shutdown.
func serveMulti(ln net.Listener, multi *online.Multi, pprofOn bool, ht httpTimeouts, shutdown <-chan os.Signal, out io.Writer) error {
	handler := http.Handler(multi.Handler())
	if pprofOn {
		handler = withPprof(handler)
	}
	return serveHTTP(ln, handler, ht, shutdown, func() {
		fmt.Fprintln(out, "kavserve: draining all tenants...")
		if err := multi.DrainAll(); err != nil {
			fmt.Fprintf(out, "kavserve: drain error: %v\n", err)
		}
		for _, name := range multi.Tenants() {
			srv, _ := multi.Tenant(name)
			srv.Verdict().WriteText(out, "kavserve: final ["+name+"]")
		}
	})
}

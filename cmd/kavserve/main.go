// Command kavserve is the online continuous-verification service: it accepts
// keyed operation streams from many concurrent clients over HTTP, verifies
// them incrementally on one shared worker pool, and serves live per-key
// verdicts. On SIGINT/SIGTERM it drains and prints the final verdicts.
//
//	kavserve -addr :8080 -k 2
//	kavgen -keys 64 -ops 500 -replay http://localhost:8080 -drain
//	curl localhost:8080/verdict
//
// Every verifying kavserve is one online.Multi: without -tenants it holds one
// root tenant at /ingest, /verdict, /drain; -tenants a,b serves each at
// /ingest/{tenant}, ... -data-dir and the -tenant-max-* quotas apply either
// way; a named tenant keeps its WAL in <data-dir>/<tenant>. With -route it is
// a cluster router instead (README "Cluster mode"). The wiring lives in
// internal/serve.
package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"kat/internal/faultfs"
	"kat/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kavserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	node, err := serve.New(args, out, faultfs.OS())
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", node.Addr)
	if err != nil {
		node.Close()
		return err
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	return node.Serve(ln, sigs)
}

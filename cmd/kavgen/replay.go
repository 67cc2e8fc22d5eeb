package main

// Replay mode: drive a kavserve instance with a trace, the load-generator
// half of the online verification pipeline. Operations are partitioned over
// concurrent /ingest connections by key hash — every key's operations flow
// through exactly one connection, preserving the per-key arrival order the
// server's streaming engine requires, while connections interleave freely
// (the production shape: many clients, disjoint key sets).
//
// Each connection sends its operations in batches of -batch-ops, strictly
// sequentially, through a cluster.Sender — the same exactly-once client of
// the ingest protocol the router forwards with: a key's next batch never
// leaves before the previous one is delivered, and what a failure means and
// when a resend is safe is the Sender's business, not this file's. What is
// replay's own is the key-hash buckets, the pacing, node-list pre-routing,
// -resume (each connection's Sender starts from the per-key counts the
// server already holds, and those prefixes are skipped) and the verdict
// printout.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kat/internal/cluster"
	"kat/internal/online"
	"kat/internal/trace"
	"kat/internal/wire"
)

// Retry schedule and verdict-fetch deadlines, injectable for tests.
var (
	retryBaseDelay = 100 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
	verdictTimeout = cluster.DefaultHopTimeout
	drainTimeout   = cluster.DefaultDrainTimeout
)

// replayOpts carries the -replay flag family.
type replayOpts struct {
	clients  int
	rate     float64
	drain    bool
	batchOps int
	retries  int
	resume   bool
	// wire posts each batch as one self-contained binary wire frame under
	// Content-Type application/x-kav-wire instead of newline text.
	wire bool
	// quietVerdict suppresses the final verdict fetch+print; cluster mode
	// sets it on the per-node runs and prints one merged document itself.
	quietVerdict bool
}

// runReplay sends the trace's operations to target/ingest over o.clients
// concurrent connections at an approximate aggregate o.rate ops/second
// (0 = unlimited), then optionally drains the server and prints its final
// verdicts. target may be a comma-separated member node list: the trace
// is then pre-routed per node with the cluster key hash (bypassing any
// router) and each node gets its own connections.
//
// The trace is parsed into operations once, up front: the grammar allows
// ';'-separated multi-op lines that may mix keys, and both routings — the
// per-connection buckets and the per-node split — hash one key per
// operation, never per line.
func runReplay(target string, traceText []byte, o replayOpts, out io.Writer) error {
	ops, err := cluster.ParseText(bytes.NewReader(traceText))
	if err != nil {
		return err
	}
	if nodes := splitNodeList(target); len(nodes) > 1 {
		return replayCluster(nodes, ops, o, out)
	}
	return replayNode(target, ops, o, out)
}

// replayNode replays ops against one base URL (a node or a router).
func replayNode(baseURL string, ops []wire.Op, o replayOpts, out io.Writer) error {
	clients := max(o.clients, 1)
	if o.batchOps < 1 {
		o.batchOps = 512
	}
	ctx := context.Background()
	// newSender builds one connection's Sender, told what the server already
	// holds for its keys — nothing, unless -resume found otherwise.
	newSender := func(held map[string]int64) *cluster.Sender {
		s := cluster.NewSender(baseURL, http.DefaultClient, max(o.retries, 1), held)
		s.RetryBase, s.RetryMax = retryBaseDelay, retryMaxDelay
		return s
	}
	buckets := make([][]wire.Op, clients)
	for _, op := range ops {
		b := int(trace.KeyHash(op.Key) % uint32(clients))
		buckets[b] = append(buckets[b], op)
	}

	// -resume: ask the server what it already has and skip those per-key
	// prefixes; a crashed replay continues where its acknowledgments stopped.
	var held map[string]int64
	if o.resume {
		var err error
		if held, err = newSender(nil).Counts(ctx); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		skipped := 0
		skip := map[string]int64{}
		for b, bucket := range buckets {
			remaining := bucket[:0]
			for _, op := range bucket {
				if skip[op.Key] < held[op.Key] {
					skip[op.Key]++
					skipped++
					continue
				}
				remaining = append(remaining, op)
			}
			buckets[b] = remaining
		}
		if skipped > 0 {
			fmt.Fprintf(out, "resume: server already holds %d of these ops; skipping\n", skipped)
		}
	}

	// Pacing: each connection owns a token bucket refilled at its share of
	// the aggregate rate and takes tokens in batch-sized grants, so one
	// sleep covers a whole grant of operations. A central ticker dispenser
	// (the previous design) saturates near the ticker resolution — rates
	// above ~1/ms could never be honored; local buckets have no dispenser
	// to saturate, and the batch grant amortizes timer granularity, so the
	// requested rate is met until the network itself is the limit.
	active := 0
	for _, bucket := range buckets {
		if len(bucket) > 0 {
			active++
		}
	}
	var perConnRate float64
	grant := 1
	if o.rate > 0 && active > 0 {
		perConnRate = o.rate / float64(active)
		grant = grantSize(perConnRate)
	}

	pacerDone := make(chan struct{})
	defer close(pacerDone)
	var (
		wg   sync.WaitGroup
		sent atomic.Int64
		errs = make(chan error, clients)
	)
	for _, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		wg.Add(1)
		go func(bucket []wire.Op) {
			defer wg.Done()
			var tb *tokenBucket
			if perConnRate > 0 {
				tb = newTokenBucket(perConnRate, grant, pacerDone)
			}
			// Start from the resumed prefixes, if any, so a later reconcile
			// doesn't mistake them for this run's deliveries.
			own := map[string]int64{}
			for _, op := range bucket {
				own[op.Key] = held[op.Key]
			}
			s := newSender(own)
			// Sequential batches: the next one leaves only after the previous
			// is fully delivered, so a key's operations are never pipelined
			// past an unacknowledged batch.
			for off := 0; off < len(bucket); off += o.batchOps {
				batch := bucket[off:min(off+o.batchOps, len(bucket))]
				if tb != nil && !tb.take(len(batch)) {
					return
				}
				n, _, err := s.Send(ctx, batch, o.wire)
				sent.Add(n)
				if err != nil {
					errs <- fmt.Errorf("ingest: %w", err)
					return
				}
			}
		}(bucket)
	}
	wg.Wait()
	close(errs)
	fmt.Fprintf(out, "replayed %d/%d ops over %d connection(s)\n", sent.Load(), len(ops), active)
	if err := <-errs; err != nil {
		return err
	}
	if o.quietVerdict {
		return nil
	}

	doc, err := fetchVerdict(ctx, baseURL, o.drain)
	if err != nil {
		return err
	}
	state := "live"
	if doc.Drained {
		state = "final"
	}
	doc.WriteText(out, "server: "+state)
	if o.drain && !doc.Drained {
		return fmt.Errorf("server did not report itself drained")
	}
	return nil
}

// fetchVerdict drains the server (or, without drain, reads its live verdict)
// through the Sender's one deadline-bounded fetch, so a server that accepts
// the connection and never answers is an error, not a hang.
func fetchVerdict(ctx context.Context, baseURL string, drain bool) (online.VerdictDoc, error) {
	s := cluster.NewSender(baseURL, http.DefaultClient, 1, nil)
	if drain {
		return s.Doc(ctx, http.MethodPost, "/drain", drainTimeout)
	}
	return s.Doc(ctx, http.MethodGet, "/verdict", verdictTimeout)
}

// splitNodeList parses a comma-separated -replay target list.
func splitNodeList(target string) []string {
	var nodes []string
	for _, n := range bytes.Split([]byte(target), []byte(",")) {
		if n = bytes.TrimSpace(n); len(n) > 0 {
			nodes = append(nodes, string(n))
		}
	}
	return nodes
}

// replayCluster replays against member nodes directly, bypassing any
// router: operations pre-route per node with cluster.NewPartition over the
// node list — the map a router over the same list builds — so every key's
// operations land wholly on its owner in order. Each node gets the full
// single-node treatment — its own connections and Senders — then the nodes
// are drained together and one merged cluster verdict is printed.
func replayCluster(nodes []string, ops []wire.Op, o replayOpts, out io.Writer) error {
	part, err := cluster.NewPartition(len(nodes))
	if err != nil {
		return err
	}
	perNode := part.Split(ops)
	// Connections divide across nodes (at least one each); so does the
	// aggregate rate, in proportion to each node's share of the ops.
	perNodeOpts := o
	perNodeOpts.quietVerdict = true
	perNodeOpts.drain = false
	if o.clients > len(nodes) {
		perNodeOpts.clients = o.clients / len(nodes)
	} else {
		perNodeOpts.clients = 1
	}
	if o.rate > 0 {
		perNodeOpts.rate = o.rate / float64(len(nodes))
	}
	var wg sync.WaitGroup
	outputs := make([]bytes.Buffer, len(nodes))
	errs := make([]error, len(nodes))
	for n, ops := range perNode {
		if len(ops) == 0 {
			continue
		}
		wg.Add(1)
		go func(n int, ops []wire.Op) {
			defer wg.Done()
			fmt.Fprintf(&outputs[n], "node %d (%s): ", n, nodes[n])
			errs[n] = replayNode(nodes[n], ops, perNodeOpts, &outputs[n])
		}(n, ops)
	}
	wg.Wait()
	for n := range outputs {
		if outputs[n].Len() > 0 {
			io.Copy(out, &outputs[n])
		}
	}
	for n, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d (%s): %w", n, nodes[n], err)
		}
	}

	// Coordinated drain (or live verdict), then one merged document.
	docs := make([]online.VerdictDoc, 0, len(nodes))
	for n, base := range nodes {
		doc, err := fetchVerdict(context.Background(), base, o.drain)
		if err != nil {
			return fmt.Errorf("node %d (%s): %w", n, base, err)
		}
		docs = append(docs, doc)
	}
	merged := cluster.MergeDocs(docs)
	state := "live"
	if merged.Drained {
		state = "final"
	}
	merged.WriteText(out, fmt.Sprintf("cluster (%d nodes): %s", len(nodes), state))
	if o.drain && !merged.Drained {
		return fmt.Errorf("cluster did not report itself drained")
	}
	return nil
}

// grantSize picks the token-bucket grant (lines per take) for one
// connection's rate: ~50 grants per second, so the writer sleeps a
// schedulable >= 20ms between grants instead of fighting timer resolution
// per line, clamped to keep low rates smooth and bursts bounded.
func grantSize(perConnRate float64) int {
	g := int(perConnRate / 50)
	if g < 1 {
		g = 1
	}
	if g > 4096 {
		g = 4096
	}
	return g
}

// tokenBucket paces one replay connection. Tokens accrue at `rate` per
// second against a wall clock read on demand (no feeding goroutine, nothing
// to saturate), capped at a burst of two grants. take(n) blocks until n
// tokens are available or the stop channel closes.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	stop   <-chan struct{}
	// now / sleep are the clock, injectable for tests.
	now   func() time.Time
	sleep func(time.Duration) bool
}

func newTokenBucket(rate float64, grant int, stop <-chan struct{}) *tokenBucket {
	tb := &tokenBucket{
		rate:  rate,
		burst: 2 * float64(grant),
		stop:  stop,
		now:   time.Now,
	}
	tb.sleep = func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-tb.stop:
			return false
		}
	}
	tb.tokens = tb.burst // start full: the first grant goes out immediately
	tb.last = tb.now()
	return tb
}

// take blocks until n tokens accrue (false when stopped mid-wait).
func (b *tokenBucket) take(n int) bool {
	need := float64(n)
	for {
		now := b.now()
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if cap := max(b.burst, need); b.tokens > cap {
			b.tokens = cap
		}
		b.last = now
		if b.tokens >= need {
			b.tokens -= need
			return true
		}
		wait := time.Duration((need - b.tokens) / b.rate * float64(time.Second))
		if wait < time.Millisecond {
			wait = time.Millisecond // below timer resolution: oversleep, the bucket credits it back
		}
		if !b.sleep(wait) {
			return false
		}
	}
}

//go:build linux

package main

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"

	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/trace"
	"kat/internal/wire"
)

// batchOps is the size of one unit of submission: a 512-op /ingest request,
// kavgen -replay's own default.
const batchOps = 512

// workload is one set of inputs plus the way the program under test is run
// on them. The four values of workloads are the benchmark; README.md gives
// the reason for each.
type workload struct {
	name string
	why  string

	// serve-* workloads: how the child server is configured and fed.
	wire      bool   // binary wire frames (else keyed text lines)
	conns     int    // client connections, keys partitioned by hash
	props     string // kavserve -properties
	durable   bool   // -data-dir <tmp> -fsync never -checkpoint-interval 1h
	retireTTL int64  // kavserve -retire-ttl, trace-time units

	// check-keyed: the child is the offline checker looping over trace files.
	offline bool

	// gen makes the arrival-ordered operations of one input stream: the whole
	// repetition for serve-*, one trace file for check-keyed. div scales the
	// size down (1 = the benchmark, 100 = the test smoke).
	gen func(seed int64, div int) []trace.KeyedOp
	// streams is the number of independent input streams gen is called for
	// (trace files of check-keyed); 1 for serve-*.
	streams int
	// lifetimeOps is the operations per key lifetime of the churn generator,
	// which makes ops/lifetimeOps the denominator of trace.retire_rate; 0
	// elsewhere.
	lifetimeOps int
}

var workloads = []workload{
	{
		name: "serve-wire-uniform",
		why:  "4096 keys with tiny segments over wire: cost is HTTP, decode, shard routing, cut detection and per-segment fixed costs; checkers see almost no work",
		wire: true, conns: 2, props: "k", streams: 1,
		gen: func(seed int64, div int) []trace.KeyedOp {
			counts := make([]int, 4096/div)
			for i := range counts {
				counts[i] = 366
			}
			return keyed(seed, counts, 2, 1)
		},
	},
	{
		name: "serve-wire-props-zipf",
		why:  "64 Zipf keys, depth-2 staleness, k+delta+regularity: cost is the checkers on big hot-key segments; ingest is a few percent",
		wire: true, conns: 2, props: "k,delta,regularity", streams: 1,
		gen: func(seed int64, div int) []trace.KeyedOp {
			return keyed(seed, generator.ZipfCounts(seed, 64, 400_000/div, 1.2), 4, 2)
		},
	},
	{
		name:  "serve-text-wal-churn",
		why:   "churning keyspace over text with a WAL and retirement on one ordered connection: a wire- or checker-side gain that costs the durable or lifecycle path shows here",
		conns: 1, props: "k", durable: true, retireTTL: 2000, streams: 1,
		lifetimeOps: 32,
		gen: func(seed int64, div int) []trace.KeyedOp {
			ops := generator.Churn(generator.ChurnConfig{
				Seed: seed, Lifetimes: 31_250 / div, OpsPerLifetime: 32,
				Concurrency: 2, ReadFraction: 0.5, NamePool: 8192 / div,
			})
			out := make([]trace.KeyedOp, len(ops))
			for i, o := range ops {
				out[i] = trace.KeyedOp{Key: o.Key, Op: o.Op}
			}
			return out
		},
	},
	{
		name:    "check-keyed",
		why:     "the paper's own use: offline 2-AV of recorded Zipf traces through kavcheck -keyed (FZF per key, chunk-parallel); bypasses HTTP, wire, WAL and lifecycle",
		offline: true, streams: 8,
		gen: func(seed int64, div int) []trace.KeyedOp {
			return keyed(seed, generator.ZipfCounts(seed, 64, 400_000/div, 1.2), 4, 1)
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// mix spreads the benchmark seed so that seeds n and n+1 share no per-key
// generator seed (the generators derive key i's seed as seed+i).
func mix(seed int64, stream int) int64 {
	return seed*1_000_003 + int64(stream)*7_919_000_000
}

// keyed generates one KAtomic register per count and merges them into
// arrival order: by start time, then key, then per-key position — the order
// of an operation log, which is what kavserve requires of each key.
func keyed(seed int64, counts []int, concurrency, depth int) []trace.KeyedOp {
	type ref struct {
		start    int64
		key, pos int32
	}
	var refs []ref
	keys := make([]string, len(counts))
	ops := make([][]history.Operation, len(counts))
	for i, n := range counts {
		if n == 0 {
			continue
		}
		keys[i] = fmt.Sprintf("key-%04d", i)
		ops[i] = generator.KAtomic(generator.Config{
			Seed: seed + int64(i), Ops: n, ReadFraction: 0.5,
			Concurrency: concurrency, StalenessDepth: depth, ForceDepth: true,
		}).Ops
		for j, op := range ops[i] {
			refs = append(refs, ref{op.Start, int32(i), int32(j)})
		}
	}
	slices.SortFunc(refs, func(a, b ref) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.key, b.key), cmp.Compare(a.pos, b.pos))
	})
	out := make([]trace.KeyedOp, len(refs))
	for i, r := range refs {
		out[i] = trace.KeyedOp{Key: keys[r.key], Op: ops[r.key][r.pos]}
	}
	return out
}

// body is one unit of submission: an encoded /ingest request and the slice
// of the connection's operations it carries.
type body struct {
	data []byte
	ops  []trace.KeyedOp
	// req numbers the requests of a repetition round-robin over the
	// connections: the order of the single-producer traced passes, and the
	// identifier the spans of one request share.
	req int
}

// inputs is everything set-up produces for one workload and seed. The
// program under test receives only bodies[*][*].data or the files.
type inputs struct {
	ops    int      // operations per repetition
	bodies [][]body // serve-*: per connection, in send order
	files  []string // check-keyed: trace files, each one stream
	// streams holds the generated operations: per connection for serve-*,
	// per file for check-keyed. The oracle and the per-key passes read them.
	streams [][]trace.KeyedOp
}

// setup generates, orders, partitions and encodes the inputs of w for seed.
// It is deterministic CPU work plus, for check-keyed, writing the trace
// files under dir: no network, no child, no oracle.
func (w workload) setup(seed int64, div int, dir string) (*inputs, error) {
	in := &inputs{}
	if w.offline {
		for f := 0; f < w.streams; f++ {
			ops := w.gen(mix(seed, f), div)
			var text []byte
			for _, o := range ops {
				text = trace.AppendKeyedOpText(text, o.Key, o.Op)
			}
			name := filepath.Join(dir, fmt.Sprintf("trace-%d.txt", f))
			if err := os.WriteFile(name, text, 0o644); err != nil {
				return nil, err
			}
			in.files = append(in.files, name)
			in.streams = append(in.streams, ops)
			in.ops += len(ops)
		}
		return in, nil
	}
	all := w.gen(mix(seed, 0), div)
	in.ops = len(all)
	in.streams = make([][]trace.KeyedOp, w.conns)
	if w.conns == 1 {
		in.streams[0] = all
	} else {
		conn := map[string]int{} // a key's connection, hashed once per key
		for _, o := range all {
			c, ok := conn[o.Key]
			if !ok {
				h := fnv.New32a()
				h.Write([]byte(o.Key))
				c = int(h.Sum32() % uint32(w.conns))
				conn[o.Key] = c
			}
			in.streams[c] = append(in.streams[c], o)
		}
	}
	in.bodies = make([][]body, w.conns)
	for c, ops := range in.streams {
		for lo := 0; lo < len(ops); lo += batchOps {
			chunk := ops[lo:min(lo+batchOps, len(ops))]
			b := body{ops: chunk}
			if w.wire {
				var err error
				if b.data, err = wire.EncodeSelfContained(nil, chunk, false); err != nil {
					return nil, err
				}
			} else {
				for _, o := range chunk {
					b.data = trace.AppendKeyedOpText(b.data, o.Key, o.Op)
				}
			}
			in.bodies[c] = append(in.bodies[c], b)
		}
	}
	req := 0
	for i := 0; req < in.requests(); i++ {
		for _, conn := range in.bodies {
			if i < len(conn) {
				conn[i].req = req
				req++
			}
		}
	}
	return in, nil
}

func (in *inputs) requests() int {
	n := 0
	for _, conn := range in.bodies {
		n += len(conn)
	}
	return n
}

// byKey regroups the generated operations into one history per register,
// the offline checker's view of the same trace. Stream i's keys are
// prefixed when streams are independent traces (check-keyed files).
func (in *inputs) byKey(stream int) map[string]*history.History {
	keys := map[string]*history.History{}
	add := func(ops []trace.KeyedOp) {
		for _, o := range ops {
			h := keys[o.Key]
			if h == nil {
				h = &history.History{}
				keys[o.Key] = h
			}
			h.Ops = append(h.Ops, o.Op)
		}
	}
	if stream >= 0 {
		add(in.streams[stream])
	} else {
		for _, ops := range in.streams {
			add(ops)
		}
	}
	return keys
}

// interleaved returns the bodies of every connection in request order: one
// round-robin sequence that keeps each connection's own order and so each
// key's.
func (in *inputs) interleaved() []body {
	out := make([]body, in.requests())
	for _, conn := range in.bodies {
		for _, b := range conn {
			out[b.req] = b
		}
	}
	return out
}

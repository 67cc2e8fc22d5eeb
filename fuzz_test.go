package kat_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strings"
	"testing"

	"kat"
	"kat/internal/fzf"
	"kat/internal/history"
	"kat/internal/oracle"
	"kat/internal/trace"
	"kat/internal/wire"
	"kat/internal/witness"
	"kat/internal/zone"
)

// FuzzCheckersAgree feeds arbitrary parsed histories to all three 2-AV
// deciders and fails on any divergence — the end-to-end differential fuzz
// target. Inputs the model rejects (anomalies) are skipped; sizes are capped
// to keep the oracle tractable.
func FuzzCheckersAgree(f *testing.F) {
	seeds := []string{
		"w 1 0 10; w 2 20 30; r 1 40 50",
		"w 1 0 30; w 2 5 35; r 2 40 50; r 1 60 70",
		"w 1 0 10; r 1 20 30; w 2 40 50; r 2 60 70",
		"w 1 0 10; w 2 12 14; w 3 16 18; r 1 20 30",
		"w 9 0 10; r 9 100 110; w 1 20 25; w 2 40 45; w 3 60 65",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		h, err := kat.Parse(text)
		if err != nil || h.Len() > 24 {
			return
		}
		p, err := history.Prepare(history.Normalize(h))
		if err != nil {
			return
		}
		want, err := oracle.CheckK(p, 2, oracle.Options{MaxStates: 200_000})
		if err != nil {
			return // state budget blown on a pathological input: no verdict
		}
		lbtRep, err := kat.NewVerifier().CheckPrepared(p, 2, kat.Options{Algorithm: kat.AlgoLBT})
		if err != nil {
			t.Fatalf("LBT errored on accepted input: %v", err)
		}
		fzfRep, err := kat.NewVerifier().CheckPrepared(p, 2, kat.Options{Algorithm: kat.AlgoFZF})
		if err != nil {
			t.Fatalf("FZF errored on accepted input: %v", err)
		}
		if lbtRep.Atomic != want.Atomic || fzfRep.Atomic != want.Atomic {
			t.Fatalf("divergence on %q: oracle=%v lbt=%v fzf=%v",
				text, want.Atomic, lbtRep.Atomic, fzfRep.Atomic)
		}
		// CheckPrepared already witness-validates positive answers. The
		// ladder's verdict-only door must say what the witnessed one says.
		if got := fzf.Decide(p, zone.Decompose(p), fzf.NewScratch()); got != fzf.CheckScratch(p, fzf.NewScratch()).Atomic {
			t.Fatalf("divergence on %q: fzf.Decide=%v, fzf.CheckScratch=%v", text, got, !got)
		}
	})
}

// serializeByStart renders a trace in global start order — the arrival
// order the streaming engine requires (nondecreasing starts per key).
func serializeByStart(tr *kat.Trace) string {
	var b strings.Builder
	if err := kat.WriteTraceArrivalOrder(&b, tr); err != nil {
		panic(err)
	}
	return b.String()
}

// FuzzStreamTraceEquivalence feeds arbitrary keyed traces (canonicalized to
// the start-ordered arrival the stream engine requires) to both the
// monolithic and the streaming checkers and fails on any verdict
// divergence: per-key Atomic flags, op counts, error presence, and — when
// no key out-reaches the staleness horizon — the smallest-k maps.
func FuzzStreamTraceEquivalence(f *testing.F) {
	seeds := []string{
		"w a 1 0 10; r a 1 20 30; w b 1 5 15",
		"w a 1 0 10; w a 2 20 30; r a 1 40 50",
		"w a 1 0 10; w a 2 20 30; w a 3 40 50; r a 1 60 70",
		"w a 1 0 10; r a 9 20 30",
		"r a 5 0 10; w a 5 20 30",
		"w a 1 0 10; w a 2 20 30; w a 1 40 50",
		"w a 9 0 100; w a 1 5 15; w a 2 20 30; r a 1 40 50",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := kat.ParseTrace(text)
		if err != nil || tr.Len() == 0 || tr.Len() > 120 || len(tr.Keys) > 12 {
			return
		}
		canon := serializeByStart(tr)
		tr, err = kat.ParseTraceReader(strings.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical trace rejected: %v", err)
		}
		// MinSegmentOps 1 cuts at every quiescent instant, driving the
		// cut/merge/deque/cross-boundary machinery on every input (the
		// default of 128 would never cut on these <=120-op traces); the
		// second config covers the default whole-window batching.
		for _, k := range []int{1, 2} {
			mono := kat.CheckTraceParallel(tr, k, kat.Options{}, 1)
			for _, minSeg := range []int{1, 0} {
				rep, _, err := kat.StreamCheckTrace(strings.NewReader(canon), k, kat.Options{},
					kat.StreamOptions{Workers: 2, MinSegmentOps: minSeg})
				if err != nil {
					t.Fatalf("k=%d minSeg=%d: StreamCheckTrace: %v (%q)", k, minSeg, err, canon)
				}
				if len(rep.Keys) != len(mono.Keys) {
					t.Fatalf("k=%d: key counts differ (%q)", k, canon)
				}
				for i := range mono.Keys {
					m, s := mono.Keys[i], rep.Keys[i]
					if m.Key != s.Key || m.Ops != s.Ops || m.Atomic != s.Atomic ||
						(m.Err == nil) != (s.Err == nil) {
						t.Fatalf("k=%d minSeg=%d key %s: monolithic %+v vs stream %+v (%q)",
							k, minSeg, m.Key, m, s, canon)
					}
				}
			}
		}
		if tr.Len() > 60 {
			return // keep the k>=3 oracle out of fuzz hot loops
		}
		monoK := kat.SmallestKByKeyParallel(tr, kat.Options{}, 1)
		gotK, stats, err := kat.StreamSmallestKByKey(strings.NewReader(canon), kat.Options{},
			kat.StreamOptions{Workers: 2, MinSegmentOps: 1})
		if err != nil {
			t.Fatalf("StreamSmallestKByKey: %v (%q)", err, canon)
		}
		if stats.SaturatedKeys > 0 {
			return // beyond-horizon reads are documented as lower bounds
		}
		for key, k := range monoK {
			if gotK[key] != k {
				t.Fatalf("key %s: stream k=%d, monolithic k=%d (%q)", key, gotK[key], k, canon)
			}
		}
	})
}

// FuzzOnlineSessionEquivalence is the differential fuzz target for the
// push-driven engine: for arbitrary keyed traces (canonicalized to arrival
// order) an OnlineSession fed one operation at a time must produce exactly
// the verdicts of the reader-driven StreamCheckTrace / StreamSmallestKByKey
// on the same input — per-key Atomic flags, op counts, error presence, and
// (horizon permitting) the smallest-k maps — for both a private pool and a
// shared one, for randomized ingest shard counts, and for the batch ingest
// paths (AppendBatch at randomized batch boundaries, AppendTraceBatch over
// the raw text) — shard counts and batch splits are drawn from a PRNG
// seeded by the input's hash, so every corpus entry stays deterministic
// while the fuzzer sweeps the configuration space.
func FuzzOnlineSessionEquivalence(f *testing.F) {
	seeds := []string{
		"w a 1 0 10; r a 1 20 30; w b 1 5 15",
		"w a 1 0 10; w a 2 20 30; r a 1 40 50",
		"w a 1 0 10; w a 2 20 30; w a 3 40 50; r a 1 60 70",
		"w a 1 0 10; r a 9 20 30",
		"w a 9 0 100; w a 1 5 15; w a 2 20 30; r a 1 40 50",
		"w a 1 0 10; r a 1 12 14; w a 2 100 110; r a 2 112 114; w b 7 0 50; r b 7 60 70",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	pool := kat.NewPool(2)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := kat.ParseTrace(text)
		if err != nil || tr.Len() == 0 || tr.Len() > 120 || len(tr.Keys) > 12 {
			return
		}
		canon := serializeByStart(tr)
		// Shard counts and batch boundaries vary per input, deterministically:
		// the PRNG seed is the canonical text's FNV hash.
		h := fnv.New64a()
		io.WriteString(h, canon)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		shardCounts := []int{1, 2 + rng.Intn(15)}
		var allOps []kat.KeyedOp
		err = trace.ParseStreamBytes(strings.NewReader(canon), func(key []byte, op kat.Operation) error {
			allOps = append(allOps, kat.KeyedOp{Key: string(key), Op: op})
			return nil
		})
		if err != nil {
			t.Fatalf("canonical trace unparsable: %v (%q)", err, canon)
		}
		feeds := []struct {
			name string
			feed func(*kat.OnlineSession) error
		}{
			{"append", func(sess *kat.OnlineSession) error {
				for _, ko := range allOps {
					if err := sess.Append(ko.Key, ko.Op); err != nil {
						return err
					}
				}
				return nil
			}},
			{"batch", func(sess *kat.OnlineSession) error {
				for off := 0; off < len(allOps); {
					end := off + 1 + rng.Intn(len(allOps)) // random batch boundary
					if end > len(allOps) {
						end = len(allOps)
					}
					if _, err := sess.AppendBatch(allOps[off:end]); err != nil {
						return err
					}
					off = end
				}
				return nil
			}},
			{"tracebatch", func(sess *kat.OnlineSession) error {
				_, err := sess.AppendTraceBatch(strings.NewReader(canon))
				return err
			}},
		}
		for _, k := range []int{1, 2} {
			for _, shards := range shardCounts {
				for _, sopts := range []kat.StreamOptions{
					{Workers: 2, MinSegmentOps: 1, IngestShards: shards},
					{Pool: pool, MinSegmentOps: 1, IngestShards: shards},
				} {
					want, _, werr := kat.StreamCheckTrace(strings.NewReader(canon), k, kat.Options{}, sopts)
					for _, f := range feeds {
						if f.name != "append" && sopts.Pool == nil {
							continue // batch paths: one pool config is enough per exec
						}
						sess, err := kat.NewOnlineCheckSession(k, kat.Options{}, sopts)
						if err != nil {
							t.Fatal(err)
						}
						ferr := f.feed(sess)
						serr := sess.Flush()
						if (werr == nil) != (serr == nil) {
							t.Fatalf("k=%d shards=%d %s: stream err %v vs session err %v (%q)",
								k, shards, f.name, werr, serr, canon)
						}
						if ferr != nil && serr == nil {
							t.Fatalf("k=%d shards=%d %s: feed errored (%v) but flush did not (%q)",
								k, shards, f.name, ferr, canon)
						}
						if serr != nil && f.name != "append" {
							// Batch ingest is non-transactional at shard
							// granularity: after an admission error the
							// ingested prefix may legitimately differ from
							// the reader-driven engine's consumed prefix.
							continue
						}
						got, _ := sess.Report()
						if len(got.Keys) != len(want.Keys) {
							t.Fatalf("k=%d shards=%d %s: key counts differ (%q)", k, shards, f.name, canon)
						}
						for i := range want.Keys {
							w, g := want.Keys[i], got.Keys[i]
							if w.Key != g.Key || w.Ops != g.Ops || w.Atomic != g.Atomic || (w.Err == nil) != (g.Err == nil) {
								t.Fatalf("k=%d shards=%d %s key %s: stream %+v vs online %+v (%q)",
									k, shards, f.name, w.Key, w, g, canon)
							}
						}
					}
				}
			}
		}
		sopts := kat.StreamOptions{Pool: pool, MinSegmentOps: 1, IngestShards: shardCounts[1]}
		wantK, stats, err := kat.StreamSmallestKByKey(strings.NewReader(canon), kat.Options{}, sopts)
		if err != nil {
			return // both engines reject; the check-mode pass above compared errors
		}
		sess := kat.NewOnlineSmallestKSession(kat.Options{}, sopts)
		if _, err := sess.AppendTraceBatch(strings.NewReader(canon)); err != nil {
			sess.Flush()
			return // admission errors were compared in check mode
		}
		sess.Flush()
		gotK, gotStats := sess.SmallestKByKey()
		if stats.SaturatedKeys > 0 || gotStats.SaturatedKeys > 0 {
			return // beyond-horizon reads are documented as lower bounds
		}
		for key, k := range wantK {
			if gotK[key] != k {
				t.Fatalf("key %s: online k=%d, stream k=%d (%q)", key, gotK[key], k, canon)
			}
		}
	})
}

// FuzzSchedulerEquivalence is the differential fuzz target for the (key,
// chunk) scheduler, one queue and a cursor per fork: for arbitrary keyed
// traces it checks that chunk-scheduled verdicts and smallest-k values are
// identical to the sequential path for every worker count, at both trace level
// (CheckTraceParallel / SmallestKByKeyParallel) and single-register level
// (CheckPreparedParallel / SmallestKPreparedParallel).
func FuzzSchedulerEquivalence(f *testing.F) {
	seeds := []string{
		"w a 1 0 10; r a 1 20 30; w b 1 5 15",
		"w a 1 0 10; w a 2 20 30; r a 1 40 50",
		"w a 1 0 30; w a 2 5 35; r a 2 40 50; r a 1 60 70",
		"w a 1 0 10; w a 2 12 14; w a 3 16 18; r a 1 20 30",
		"w a 9 0 10; r a 9 100 110; w a 1 20 25; w a 2 40 45; w a 3 60 65",
		"w a 1 0 10; r a 1 12 14; w a 2 100 110; r a 2 112 114; w b 7 0 50; r b 7 60 70",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := kat.ParseTrace(text)
		if err != nil || tr.Len() == 0 || tr.Len() > 100 || len(tr.Keys) > 8 {
			return
		}
		for _, k := range []int{1, 2, 3} {
			if k >= 3 && tr.Len() > 40 {
				continue // keep the oracle tractable
			}
			seq := kat.CheckTraceParallel(tr, k, kat.Options{}, 1)
			// MinParallelOps -1 forces chunk scheduling even on these tiny
			// fuzz traces, which would otherwise take the sequential path.
			for _, workers := range []int{2, 3, 4} {
				par := kat.CheckTraceParallel(tr, k, kat.Options{MinParallelOps: -1}, workers)
				diffTraceReports(t, k, workers, seq, par, text)
			}
		}
		seqK := kat.SmallestKByKeyParallel(tr, kat.Options{}, 1)
		for _, workers := range []int{2, 4} {
			parK := kat.SmallestKByKeyParallel(tr, kat.Options{MinParallelOps: -1}, workers)
			for key, want := range seqK {
				if parK[key] != want {
					t.Fatalf("workers=%d key %s: smallest k = %d, sequential %d (%q)",
						workers, key, parK[key], want, text)
				}
			}
		}
		// Single-register: chunk-level scheduling on each key's history.
		v := kat.NewVerifier()
		for _, key := range tr.SortedKeys() {
			p, err := kat.Prepare(kat.Normalize(tr.Keys[key]))
			if err != nil {
				continue
			}
			for _, k := range []int{1, 2} {
				seq, seqErr := v.CheckPrepared(p, k, kat.Options{})
				for _, workers := range []int{2, 4} {
					par, parErr := kat.CheckPreparedParallel(p, k, kat.Options{MinParallelOps: -1}, workers)
					if (seqErr == nil) != (parErr == nil) {
						t.Fatalf("key %s k=%d workers=%d: err %v vs %v (%q)", key, k, workers, parErr, seqErr, text)
					}
					if seqErr != nil {
						continue
					}
					if par.Atomic != seq.Atomic {
						t.Fatalf("key %s k=%d workers=%d: atomic %v, sequential %v (%q)",
							key, k, workers, par.Atomic, seq.Atomic, text)
					}
					if par.Atomic && par.Witness != nil {
						if err := witness.Validate(p, par.Witness, k); err != nil {
							t.Fatalf("key %s k=%d workers=%d: invalid witness: %v (%q)", key, k, workers, err, text)
						}
					}
				}
			}
			seqSmall, seqErr := v.SmallestKPrepared(p, kat.Options{})
			parSmall, parErr := kat.SmallestKPreparedParallel(p, kat.Options{MinParallelOps: -1}, 4)
			if (seqErr == nil) != (parErr == nil) || (seqErr == nil && parSmall != seqSmall) {
				t.Fatalf("key %s: smallest k %d/%v, sequential %d/%v (%q)",
					key, parSmall, parErr, seqSmall, seqErr, text)
			}
		}
	})
}

// FuzzCheckUnitsEquivalence holds the offline keyed checks, which cut every
// register at its safe cuts and verify the runs one by one, to one
// whole-history check per key (kat.Check, kat.SmallestK). Each input is 1-4
// generated keys of 300-3 000 operations in start order, at concurrency 2-8
// and staleness depth 1-3 — well above the run floor, unlike
// FuzzSchedulerEquivalence's — with mutations the fuzzer picks from mut's
// bits, each on its own key: a duplicate value far from its first write, a
// dangling read, a read that ends before its write starts across a quiescent
// gap, an inverted interval, endpoints that touch at a would-be cut, one key
// shuffled out of start order (no cut survives that), and one shuffled inside
// each quiescent segment with the segments kept in order (out of start order,
// cut where it was). Atomic, the error text word for word and
// the smallest k must match at k = 1, 2, 3, workers 1-4 and MinParallelOps 0
// and -1. The oracle's state budget is kept small, so a hard segment is an
// error on both sides, and the error of the run that holds it must read as
// the whole key's.
func FuzzCheckUnitsEquivalence(f *testing.F) {
	for mut := 0; mut < 1<<7; mut += 1 + mut/3 {
		f.Add(int64(mut), uint16(mut*0x2b1), uint8(mut), uint16(mut*977))
	}
	f.Add(int64(7), uint16(0xffff), uint8(0x3f), uint16(0xffff))
	f.Add(int64(7), uint16(0xffff), uint8(0x7f), uint16(0xffff))
	f.Add(int64(8), uint16(0x2b1), uint8(0x40), uint16(3))
	f.Fuzz(func(t *testing.T, seed int64, shape uint16, mut uint8, pos uint16) {
		rng := rand.New(rand.NewSource(seed))
		opts := kat.Options{OracleStates: 20_000}
		nkeys := 1 + int(shape%4)
		tr := kat.NewTrace()
		var keys []string
		for i := 0; i < nkeys; i++ {
			h := kat.GenerateKAtomic(kat.GenConfig{
				Seed: seed + int64(i), Ops: 300 + rng.Intn(2_701), Concurrency: 2 + int(shape>>2)%7,
				StalenessDepth: 1 + int(shape>>5)%3, ReadFraction: 0.5,
			})
			h.SortByStart()
			key := fmt.Sprintf("key-%d", i)
			tr.Keys[key], keys = h, append(keys, key)
		}
		for bit := 0; bit < 7; bit++ {
			if mut&(1<<bit) != 0 {
				mutateUnits(bit, tr.Keys[keys[(int(pos)+bit)%nkeys]].Ops, int(pos)*(bit+1), rng)
			}
		}
		for _, k := range []int{1, 2, 3} {
			want := kat.TraceReport{K: k}
			for _, key := range keys {
				h := tr.Keys[key]
				r, err := kat.Check(h, k, opts)
				want.Keys = append(want.Keys, trace.KeyReport{Key: key, Ops: h.Len(), Atomic: err == nil && r.Atomic, Err: err})
			}
			for workers := 1; workers <= 4; workers++ {
				for _, minOps := range []int{0, -1} {
					o := opts
					o.MinParallelOps = minOps
					got := kat.CheckTraceParallel(tr, k, o, workers)
					for i, w := range want.Keys {
						g := got.Keys[i]
						if g.Key != w.Key || g.Ops != w.Ops || g.Atomic != w.Atomic || fmt.Sprint(g.Err) != fmt.Sprint(w.Err) {
							t.Fatalf("k=%d workers=%d minOps=%d key %s: got %+v, whole key %+v", k, workers, minOps, w.Key, g, w)
						}
					}
				}
			}
		}
		wantK := map[string]int{}
		for _, key := range keys {
			k, err := kat.SmallestK(tr.Keys[key], opts)
			if err != nil {
				k = 0
			}
			wantK[key] = k
		}
		for workers := 1; workers <= 4; workers++ {
			for _, minOps := range []int{0, -1} {
				o := opts
				o.MinParallelOps = minOps
				for key, k := range kat.SmallestKByKeyParallel(tr, o, workers) {
					if k != wantK[key] {
						t.Fatalf("workers=%d minOps=%d key %s: smallest k %d, whole key %d", workers, minOps, key, k, wantK[key])
					}
				}
			}
		}
	})
}

// mutateUnits applies FuzzCheckUnitsEquivalence's mutation number m to one
// key's start-ordered operations, at a place picked by pos.
func mutateUnits(m int, ops []history.Operation, pos int, rng *rand.Rand) {
	var writes, reads, quiet []int // quiet: raw quiescent positions
	var maxFinish int64
	for i, op := range ops {
		if i > 0 && maxFinish < op.Start {
			quiet = append(quiet, i)
		}
		if i == 0 || op.Finish > maxFinish {
			maxFinish = op.Finish
		}
		if op.IsWrite() {
			writes = append(writes, i)
		} else {
			reads = append(reads, i)
		}
	}
	switch m {
	case 0: // a duplicate value far from its first write
		if len(writes) > 1 {
			a := writes[pos%(len(writes)/4+1)]
			b := writes[len(writes)-1-pos%(len(writes)/4+1)]
			ops[b].Value = ops[a].Value
		}
	case 1: // a dangling read
		if len(reads) > 0 {
			ops[reads[pos%len(reads)]].Value = 1 << 50
		}
	case 2: // a read ending before its write starts, across a quiescent gap
		if len(quiet) > 0 {
			c := quiet[pos%len(quiet)]
			r, w := -1, -1
			for i := c - 1; i >= 0 && r < 0; i-- {
				if ops[i].IsRead() {
					r = i
				}
			}
			for i := c; i < len(ops) && w < 0; i++ {
				if ops[i].IsWrite() {
					w = i
				}
			}
			if r >= 0 && w >= 0 {
				ops[r].Value = ops[w].Value
			}
		}
	case 3: // an inverted interval
		i := pos % len(ops)
		ops[i].Finish = ops[i].Start - 1
	case 4: // endpoints that touch at a would-be cut
		if len(quiet) > 0 {
			c := quiet[pos%len(quiet)]
			prev := ops[0].Finish
			for _, op := range ops[:c] {
				prev = max(prev, op.Finish)
			}
			ops[c].Start = prev
		}
	case 5: // out of start order
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	case 6: // out of start order inside each quiescent segment
		bounds := append(append([]int{0}, quiet...), len(ops))
		for b := 1; b < len(bounds); b++ {
			seg := ops[bounds[b-1]:bounds[b]]
			rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
		}
	}
}

func diffTraceReports(t *testing.T, k, workers int, seq, par kat.TraceReport, text string) {
	t.Helper()
	if len(par.Keys) != len(seq.Keys) {
		t.Fatalf("k=%d workers=%d: key counts differ (%q)", k, workers, text)
	}
	for i := range seq.Keys {
		s, p := seq.Keys[i], par.Keys[i]
		if s.Key != p.Key || s.Ops != p.Ops || s.Atomic != p.Atomic || (s.Err == nil) != (p.Err == nil) {
			t.Fatalf("k=%d workers=%d key %s: sequential %+v vs scheduled %+v (%q)",
				k, workers, s.Key, s, p, text)
		}
	}
}

// FuzzSmallestKConsistent checks the smallest-k search agrees with direct
// probes at k and k-1.
func FuzzSmallestKConsistent(f *testing.F) {
	f.Add("w 1 0 10; w 2 20 30; r 1 40 50")
	f.Add("w 1 0 10; r 1 20 30")
	f.Fuzz(func(t *testing.T, text string) {
		h, err := kat.Parse(text)
		if err != nil || h.Len() > 20 {
			return
		}
		k, err := kat.SmallestK(h, kat.Options{})
		if err != nil {
			return
		}
		rep, err := kat.Check(h, k, kat.Options{})
		if err != nil || !rep.Atomic {
			t.Fatalf("not atomic at its own smallest k=%d: %v (%q)", k, err, text)
		}
		if k > 1 {
			below, err := kat.Check(h, k-1, kat.Options{})
			if err == nil && below.Atomic {
				t.Fatalf("atomic below smallest k=%d (%q)", k, text)
			}
		}
	})
}

// FuzzWireCodecEquivalence is the differential fuzz target for the binary
// wire codec. For arbitrary keyed traces it checks two properties the PR 7
// pipeline rests on: encode∘decode is the identity on the keyed operations
// (across hash-seeded frame boundaries and compression) — through Next and,
// frame by frame, through the NextFrame view the session ingests — and a
// session fed the binary stream produces exactly the per-key smallest-k
// verdicts of one fed the text rendering of the same trace.
func FuzzWireCodecEquivalence(f *testing.F) {
	seeds := []string{
		"w a 1 0 10; r a 1 20 30; w b 1 5 15",
		"w a 1 0 10; w a 2 20 30; r a 1 40 50",
		"w a 1 0 10; w a 2 20 30; w a 3 40 50; r a 1 60 70",
		"w a 9 0 100; w a 1 5 15; w a 2 20 30; r a 1 40 50",
		"w a 1 0 10 weight=3 client=2; r a 1 12 14 client=-1; w b 7 0 50; r b 7 60 70",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := kat.ParseTrace(text)
		if err != nil || tr.Len() == 0 || tr.Len() > 120 || len(tr.Keys) > 12 {
			return
		}
		canon := serializeByStart(tr)
		var ops []kat.KeyedOp
		if err := trace.ParseStreamBytes(strings.NewReader(canon), func(key []byte, op kat.Operation) error {
			ops = append(ops, kat.KeyedOp{Key: string(key), Op: op})
			return nil
		}); err != nil {
			t.Fatalf("canonical trace unparsable: %v (%q)", err, canon)
		}
		// Frame boundaries, compression, and shard count vary per input,
		// deterministically (PRNG seeded by the canonical text's hash).
		h := fnv.New64a()
		io.WriteString(h, canon)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		compress := rng.Intn(2) == 1
		shards := 1 + rng.Intn(8)
		enc := wire.NewEncoder()
		enc.SetCompress(compress)
		var stream []byte
		for i, ko := range ops {
			if err := enc.Add(ko.Key, ko.Op); err != nil {
				t.Fatalf("encode parsed op: %v (%q)", err, canon)
			}
			if rng.Intn(4) == 0 || i == len(ops)-1 {
				stream = enc.AppendFrame(stream)
			}
		}

		// Property 1: the decoded stream is the encoded operation sequence
		// (IDs excepted — the codec is identity-neutral like the text form).
		dec := wire.NewDecoder(bytes.NewReader(stream))
		var decoded []kat.KeyedOp
		for {
			frame, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("decode own encoding: %v (%q)", err, canon)
			}
			decoded = append(decoded, frame...)
		}
		if len(decoded) != len(ops) {
			t.Fatalf("decoded %d ops, encoded %d (%q)", len(decoded), len(ops), canon)
		}
		for i := range ops {
			a, b := ops[i], decoded[i]
			a.Op.ID, b.Op.ID = 0, 0
			if a != b {
				t.Fatalf("op %d: encoded %+v, decoded %+v (%q)", i, ops[i], decoded[i], canon)
			}
		}

		// Property 1b: the frame view is Next's decode, frame by frame — the
		// same operations, each key's bytes equal to Next's string — with
		// one view decoder's payload buffer reused across frames that keep
		// the dictionary.
		strs, views := wire.NewDecoder(bytes.NewReader(stream)), wire.NewDecoder(bytes.NewReader(stream))
		for frameNo := 0; ; frameNo++ {
			want, werr := strs.Next()
			f, ferr := views.NextFrame()
			if werr == io.EOF && ferr == io.EOF {
				break
			}
			if werr != nil || ferr != nil {
				t.Fatalf("frame %d: Next %v, NextFrame %v (%q)", frameNo, werr, ferr, canon)
			}
			if len(f.Ops) != len(want) || len(f.IDs) != len(want) {
				t.Fatalf("frame %d: NextFrame %d ops, Next %d (%q)", frameNo, len(f.Ops), len(want), canon)
			}
			for i := range want {
				if string(f.Key(f.IDs[i])) != want[i].Key || f.Ops[i] != want[i].Op {
					t.Fatalf("frame %d op %d: view %s %+v, Next %+v (%q)",
						frameNo, i, f.Key(f.IDs[i]), f.Ops[i], want[i], canon)
				}
			}
		}

		// Property 2: binary ingest reaches the very verdicts text ingest does.
		sopts := kat.StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: shards}
		textSess := kat.NewOnlineSmallestKSession(kat.Options{}, sopts)
		_, textErr := textSess.AppendTraceBatch(strings.NewReader(canon))
		textFlushErr := textSess.Flush()
		wireSess := kat.NewOnlineSmallestKSession(kat.Options{}, sopts)
		_, wireErr := wireSess.AppendWire(bytes.NewReader(stream))
		wireFlushErr := wireSess.Flush()
		if (textErr == nil) != (wireErr == nil) || (textFlushErr == nil) != (wireFlushErr == nil) {
			t.Fatalf("admission divergence: text %v/%v vs wire %v/%v (%q)",
				textErr, textFlushErr, wireErr, wireFlushErr, canon)
		}
		if textErr != nil || textFlushErr != nil {
			// Batch ingest is non-transactional at shard granularity; after an
			// admission error the accepted prefixes may legitimately differ.
			return
		}
		wantK, _ := textSess.SmallestKByKey()
		gotK, _ := wireSess.SmallestKByKey()
		if len(gotK) != len(wantK) {
			t.Fatalf("key counts differ: wire %v vs text %v (%q)", gotK, wantK, canon)
		}
		for key, k := range wantK {
			if gotK[key] != k {
				t.Fatalf("key %s: wire k=%d, text k=%d (%q)", key, gotK[key], k, canon)
			}
		}
	})
}

// FuzzMultiPropertyEquivalence is the differential fuzz target for the
// pluggable property checkers: for arbitrary keyed traces (canonicalized to
// arrival order) the reader-driven StreamVerdictsByKey and a drained
// push-driven session must agree exactly with each other, and both must
// agree with the offline checkers — smallest k, smallest Δ (exact when the
// staleness horizon was never out-reached, a sound floor otherwise), and
// regularity/safety offending-read counts, which are exact even across the
// horizon. Shard count, segment batching, and horizon are drawn from a PRNG
// seeded by the input's hash, so corpus entries stay deterministic while
// the fuzzer sweeps the configuration space.
func FuzzMultiPropertyEquivalence(f *testing.F) {
	seeds := []string{
		"w a 1 0 10; r a 1 20 30; w b 1 5 15",
		"w a 1 0 10; w a 2 20 30; r a 1 40 50",
		"w a 1 0 10; w a 2 20 30; w a 3 40 50; r a 1 60 70",
		"w a 1 0 10; r a 9 20 30",
		"w a 9 0 100; w a 1 5 15; w a 2 20 30; r a 1 40 50",
		"w a 1 0 1; w a 2 10 11; w a 3 20 21; w a 4 30 31; r a 1 50 51; w a 5 60 61",
		"w a 1 0 10; r a 1 12 14; w a 2 100 110; r a 2 112 114; w b 7 0 50; r b 7 60 70",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := kat.ParseTrace(text)
		if err != nil || tr.Len() == 0 || tr.Len() > 120 || len(tr.Keys) > 12 {
			return
		}
		canon := serializeByStart(tr)
		tr, err = kat.ParseTraceReader(strings.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical trace rejected: %v", err)
		}
		h := fnv.New64a()
		io.WriteString(h, canon)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		sopts := kat.StreamOptions{
			Workers:       2,
			MinSegmentOps: 1,
			IngestShards:  1 + rng.Intn(8),
			Properties:    kat.PropertySetAll,
		}
		if rng.Intn(3) == 0 {
			sopts.MinSegmentOps = 0 // whole-window batching
		}
		if rng.Intn(3) == 0 {
			sopts.Horizon = 1 + rng.Intn(6) // drive the stale-read fold paths
		}

		kvs, _, err := kat.StreamVerdictsByKey(strings.NewReader(canon), kat.Options{}, sopts)
		if err != nil {
			return // admission rejected; the other fuzz targets compare admission
		}

		sess := kat.NewOnlineSmallestKSession(kat.Options{}, sopts)
		if _, err := sess.AppendTraceBatch(strings.NewReader(canon)); err != nil {
			sess.Flush()
			return // non-transactional batch admission; prefixes may differ
		}
		if err := sess.Flush(); err != nil {
			t.Fatalf("session flush errored after clean reader run: %v (%q)", err, canon)
		}
		skvs := sess.Snapshot()

		// Online vs reader-driven: identical, field by field.
		if len(skvs) != len(kvs) {
			t.Fatalf("session %d keys, reader %d (%q)", len(skvs), len(kvs), canon)
		}
		for i := range kvs {
			r, s := kvs[i], skvs[i]
			if r.Key != s.Key || r.Ops != s.Ops || (r.Err == nil) != (s.Err == nil) ||
				r.SmallestK != s.SmallestK || r.Saturated != s.Saturated ||
				r.SmallestDelta != s.SmallestDelta || r.DeltaSaturated != s.DeltaSaturated ||
				r.UnsafeReads != s.UnsafeReads || r.IrregularReads != s.IrregularReads {
				t.Fatalf("key %s: reader %+v vs session %+v (%q)", r.Key, r, s, canon)
			}
		}

		// Online vs offline, per key.
		for _, kv := range kvs {
			hist := tr.Keys[kv.Key]
			wantK, kerr := kat.SmallestK(hist, kat.Options{})
			if (kv.Err != nil) != (kerr != nil) {
				t.Fatalf("key %s: online err %v, offline err %v (%q)", kv.Key, kv.Err, kerr, canon)
			}
			if kv.Err != nil {
				continue
			}
			if kv.Saturated {
				if kv.SmallestK < 1 || kv.SmallestK > wantK {
					t.Fatalf("key %s: saturated k=%d outside (0, %d] (%q)", kv.Key, kv.SmallestK, wantK, canon)
				}
			} else if got := max(1, kv.SmallestK); got != wantK {
				t.Fatalf("key %s: online k=%d, offline %d (%q)", kv.Key, got, wantK, canon)
			}
			wantD, derr := kat.SmallestDelta(hist)
			if derr != nil {
				t.Fatalf("key %s: offline Δ errored where k did not: %v (%q)", kv.Key, derr, canon)
			}
			if kv.DeltaSaturated {
				if kv.SmallestDelta < 1 || kv.SmallestDelta > wantD {
					t.Fatalf("key %s: saturated Δ=%d outside (0, %d] (%q)", kv.Key, kv.SmallestDelta, wantD, canon)
				}
			} else if kv.SmallestDelta != wantD {
				t.Fatalf("key %s: online Δ=%d, offline %d (%q)", kv.Key, kv.SmallestDelta, wantD, canon)
			}
			p, perr := kat.Prepare(kat.Normalize(hist))
			if perr != nil {
				t.Fatalf("key %s: offline Prepare errored where k did not: %v (%q)", kv.Key, perr, canon)
			}
			rv := kat.CheckProperties(p)
			if kv.IrregularReads != len(rv.IrregularReads) || kv.UnsafeReads != len(rv.UnsafeReads) {
				t.Fatalf("key %s: online regularity %d/%d, offline %d/%d (%q)", kv.Key,
					kv.IrregularReads, kv.UnsafeReads, len(rv.IrregularReads), len(rv.UnsafeReads), canon)
			}
		}
	})
}

// FuzzRetirementEquivalence replays the same trace through a plain session
// and a session with quiescent-key retirement enabled (tiny TTL, sweep on
// every op) and demands identical per-property verdicts. Retirement is only
// verdict-neutral when the forced cuts are value-closed, so the harness
// simulates the retirement hazards conservatively (assuming a retirement
// whenever one is eligible) and skips traces where a later op could observe
// the freed state: an op starting at or before a possible carried cut, a
// write reusing a value from a retired lifetime, or a read referencing one.
func FuzzRetirementEquivalence(f *testing.F) {
	seeds := []string{
		"w a 1 0 10; r a 1 20 30; w b 5 100 110; w b 6 200 210; w a 2 300 310; r a 2 320 330",
		"w a 1 0 10; w a 2 20 30; w b 7 500 510; r b 7 520 530; w a 3 900 910; r a 3 920 930",
		"w x 1 0 5; r x 1 6 9; w y 2 10 15; w z 3 20 25; r y 2 30 35; w x 4 200 205; r x 4 210 215",
		"w a 1 0 10; w b 2 0 10; w c 3 0 10; r a 1 50 60; r b 2 70 80; r c 3 90 100",
		"w k 1 0 2; w k 2 3 5; r k 2 6 8; w m 9 40 42; r m 9 44 46; w k 3 80 82; r k 3 84 86",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := kat.ParseTrace(text)
		if err != nil || tr.Len() > 100 || len(tr.Keys) > 8 {
			return
		}
		canon := serializeByStart(tr)
		tr2, err := kat.ParseTraceReader(strings.NewReader(canon))
		if err != nil {
			return
		}
		_ = tr2

		var allOps []kat.KeyedOp
		err = trace.ParseStreamBytes(strings.NewReader(canon), func(key []byte, op kat.Operation) error {
			allOps = append(allOps, kat.KeyedOp{Key: string(key), Op: op})
			return nil
		})
		if err != nil || len(allOps) == 0 {
			return
		}

		h64 := fnv.New64a()
		io.WriteString(h64, canon)
		rng := rand.New(rand.NewSource(int64(h64.Sum64())))
		ttl := int64(1 + rng.Intn(24))

		// Hazard simulation: walk arrival order tracking, per key, the last
		// activity instant, the values written in the current lifetime and in
		// any (possibly) retired earlier lifetimes, and the latest cut a
		// retirement could have carried forward. Retirement is assumed to
		// fire whenever the watermark runs ttl past a key's last activity —
		// a superset of what the engine actually does, so surviving traces
		// are safe under every real retirement schedule.
		type keySim struct {
			lastFinish int64
			cut        int64
			vals       map[int64]bool
			old        map[int64]bool
		}
		sims := make(map[string]*keySim)
		wm := int64(-1) << 62
		for _, ko := range allOps {
			if ko.Op.Start > wm {
				wm = ko.Op.Start
			}
			ks := sims[ko.Key]
			if ks == nil {
				ks = &keySim{lastFinish: int64(-1) << 62, cut: int64(-1) << 62,
					vals: map[int64]bool{}, old: map[int64]bool{}}
				sims[ko.Key] = ks
			}
			// Any key (including this one) may have been retired before this
			// op arrived.
			for _, s := range sims {
				if s.lastFinish > int64(-1)<<61 && wm-s.lastFinish >= ttl {
					for v := range s.vals {
						s.old[v] = true
					}
					s.vals = map[int64]bool{}
					if s.lastFinish > s.cut {
						s.cut = s.lastFinish
					}
				}
			}
			if ko.Op.Start <= ks.cut {
				return // op could collide with a carried retirement cut
			}
			if ks.old[ko.Op.Value] {
				return // value crosses a retired lifetime: verdicts may differ
			}
			if !ko.Op.IsWrite() && !ks.vals[ko.Op.Value] && ko.Op.Value != 0 {
				// A read of a value not written in the current lifetime: the
				// plain run can resolve it against the full index, the
				// retired run cannot.
				seen := false
				for _, s := range sims {
					if s.vals[ko.Op.Value] {
						seen = true
						break
					}
				}
				if !seen {
					return
				}
			}
			if ko.Op.IsWrite() {
				ks.vals[ko.Op.Value] = true
			}
			if ko.Op.Start > ks.lastFinish {
				ks.lastFinish = ko.Op.Start
			}
			if ko.Op.Finish > ks.lastFinish {
				ks.lastFinish = ko.Op.Finish
			}
		}

		base := kat.NewOnlineSmallestKSession(kat.Options{}, kat.StreamOptions{
			Workers: 2, MinSegmentOps: 1, IngestShards: 1 + rng.Intn(4),
			Properties: kat.PropertySetAll,
		})
		life := kat.NewOnlineSmallestKSession(kat.Options{}, kat.StreamOptions{
			Workers: 2, MinSegmentOps: 1, IngestShards: 1 + rng.Intn(4),
			Properties: kat.PropertySetAll, RetireTTL: ttl, RetireSweepOps: 1,
		})

		for _, ko := range allOps {
			errB := base.Append(ko.Key, ko.Op)
			errL := life.Append(ko.Key, ko.Op)
			if (errB == nil) != (errL == nil) {
				t.Fatalf("append divergence key=%q op=%+v base=%v life=%v ttl=%d trace=%q",
					ko.Key, ko.Op, errB, errL, ttl, canon)
			}
			if errB != nil {
				return
			}
			if rng.Intn(5) == 0 {
				if err := life.RetireIdle(ttl); err != nil {
					t.Fatalf("RetireIdle: %v trace=%q", err, canon)
				}
			}
		}

		errB := base.Flush()
		errL := life.Flush()
		if (errB == nil) != (errL == nil) {
			t.Fatalf("flush divergence base=%v life=%v ttl=%d trace=%q", errB, errL, ttl, canon)
		}
		if errB != nil {
			return
		}

		want := base.Snapshot()
		got := life.Snapshot()
		if len(want) != len(got) {
			t.Fatalf("snapshot length %d vs %d ttl=%d trace=%q", len(want), len(got), ttl, canon)
		}
		for i := range want {
			r, s := want[i], got[i]
			if r.Key != s.Key || r.Ops != s.Ops || (r.Err == nil) != (s.Err == nil) {
				t.Fatalf("verdict divergence for %q ttl=%d:\n base=%+v\n life=%+v\n trace=%q",
					r.Key, ttl, r, s, canon)
			}
			if r.Err != nil {
				// Residual property fields are undefined once a key errors:
				// retirement cuts change how far the partial computation got.
				continue
			}
			if r.SmallestK != s.SmallestK || r.Saturated != s.Saturated ||
				r.SmallestDelta != s.SmallestDelta || r.DeltaSaturated != s.DeltaSaturated ||
				r.UnsafeReads != s.UnsafeReads || r.IrregularReads != s.IrregularReads {
				t.Fatalf("verdict divergence for %q ttl=%d:\n base=%+v\n life=%+v\n trace=%q",
					r.Key, ttl, r, s, canon)
			}
		}
	})
}

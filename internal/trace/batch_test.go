package trace

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"kat/internal/core"
	"kat/internal/history"
	"kat/internal/opbuf"
)

// keyedOpsOf parses the canonical text into the batch-ingest element form.
func keyedOpsOf(t *testing.T, text string) []KeyedOp {
	t.Helper()
	var ops []KeyedOp
	err := ParseStreamBytes(strings.NewReader(text), func(key []byte, op history.Operation) error {
		ops = append(ops, KeyedOp{Key: string(key), Op: op})
		return nil
	})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return ops
}

// smallestKVia drains a smallest-k session fed by feed and returns its map.
func smallestKVia(t *testing.T, sopts StreamOptions, feed func(*Session)) map[string]int {
	t.Helper()
	s := NewSmallestKSession(core.Options{}, sopts)
	feed(s)
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got, _ := s.SmallestKByKey()
	return got
}

// TestAppendBatchMatchesAppend proves batch ingest is verdict-equivalent to
// op-granular ingest for a spread of shard counts and batch sizes, with
// per-key order preserved.
func TestAppendBatchMatchesAppend(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		text := genSessionTrace(seed, 5, 80)
		ops := keyedOpsOf(t, text)
		want := smallestKVia(t, StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 1},
			func(s *Session) {
				for _, ko := range ops {
					if err := s.Append(ko.Key, ko.Op); err != nil {
						t.Fatal(err)
					}
				}
			})
		for _, shards := range []int{1, 2, 3, 7, 16} {
			for _, batch := range []int{1, 7, 64, len(ops)} {
				got := smallestKVia(t, StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: shards},
					func(s *Session) {
						for off := 0; off < len(ops); off += batch {
							end := min(off+batch, len(ops))
							n, err := s.AppendBatch(ops[off:end])
							if err != nil {
								t.Fatal(err)
							}
							if n != end-off {
								t.Fatalf("batch appended %d of %d", n, end-off)
							}
						}
					})
				if len(got) != len(want) {
					t.Fatalf("seed %d shards=%d batch=%d: %d keys, want %d", seed, shards, batch, len(got), len(want))
				}
				for key, k := range want {
					if got[key] != k {
						t.Fatalf("seed %d shards=%d batch=%d key %s: k=%d, want %d",
							seed, shards, batch, key, got[key], k)
					}
				}
			}
		}
	}
}

// TestAppendBatchConcurrentProducers runs many producers, each feeding its
// own disjoint key set through AppendBatch concurrently, and checks the
// merged verdicts against per-producer sequential references.
func TestAppendBatchConcurrentProducers(t *testing.T) {
	const producers = 8
	want := make(map[string]int)
	batches := make([][]KeyedOp, producers)
	for p := 0; p < producers; p++ {
		text := genSessionTrace(int64(100+p), 3, 60)
		ops := keyedOpsOf(t, text)
		for i := range ops {
			ops[i].Key = fmt.Sprintf("p%d-%s", p, ops[i].Key)
		}
		batches[p] = ops
		ref := smallestKVia(t, StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 1},
			func(s *Session) {
				if _, err := s.AppendBatch(ops); err != nil {
					t.Fatal(err)
				}
			})
		for k, v := range ref {
			want[k] = v
		}
	}
	for _, shards := range []int{1, 4, 16} {
		s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: shards})
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(ops []KeyedOp) {
				defer wg.Done()
				for off := 0; off < len(ops); off += 32 {
					end := min(off+32, len(ops))
					if _, err := s.AppendBatch(ops[off:end]); err != nil {
						t.Error(err)
						return
					}
				}
			}(batches[p])
		}
		wg.Wait()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		got, _ := s.SmallestKByKey()
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d keys, want %d", shards, len(got), len(want))
		}
		for key, k := range want {
			if got[key] != k {
				t.Fatalf("shards=%d key %s: concurrent batch k=%d, sequential %d", shards, key, got[key], k)
			}
		}
	}
}

// TestAppendTraceBatchMatchesAppendTrace drives the chunked byte path with
// tiny chunk sizes (forcing partial-line carries across reads), ';'
// separators, and comments, checking verdict and count equivalence with the
// op-granular side (a scanner feeding Append, see appendPerOp).
func TestAppendTraceBatchMatchesAppendTrace(t *testing.T) {
	text := genSessionTrace(7, 4, 70)
	// Exercise the multi-segment-line and comment paths too.
	text = "# leading comment\n" + strings.Replace(text, "\n", "; ", 3) + "# trailing\n"

	ref := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1})
	refN, err := appendPerOp(ref, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	want, _ := ref.SmallestKByKey()

	for _, chunk := range []int{16, 64, 1 << 20} {
		s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 4})
		s.batchChunk = chunk
		n, err := s.AppendTraceBatch(strings.NewReader(text))
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if n != refN {
			t.Fatalf("chunk=%d: appended %d, want %d", chunk, n, refN)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		got, _ := s.SmallestKByKey()
		for key, k := range want {
			if got[key] != k {
				t.Fatalf("chunk=%d key %s: k=%d, want %d", chunk, key, got[key], k)
			}
		}
	}
}

// TestAppendTraceBatchLongLine covers the buffer-growth path: a single line
// far longer than the chunk size must still parse (the reader-driven parser
// accepts whole traces on one ';'-separated line).
func TestAppendTraceBatchLongLine(t *testing.T) {
	var b strings.Builder
	clock := int64(0)
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "w key-a %d %d %d; ", i+1, clock, clock+1)
		clock += 5
	}
	line := strings.TrimSuffix(b.String(), "; ") + "\n"
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1})
	s.batchChunk = 32 // forces repeated growth
	n, err := s.AppendTraceBatch(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("appended %d, want 200", n)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.SmallestKByKey(); got["key-a"] != 1 {
		t.Fatalf("k=%d, want 1", got["key-a"])
	}
}

// TestAppendTraceBatchParseError pins the partial-ingest contract of the
// batch path: operations parsed before the malformed segment are ingested,
// the error names the segment, and it is NOT sticky (parse errors reject the
// request, not the session — only engine admission errors poison it).
func TestAppendTraceBatchParseError(t *testing.T) {
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 2})
	n, err := s.AppendTraceBatch(strings.NewReader("w a 1 0 1\nw a 2 10 11\nbogus line\nw a 3 30 31\n"))
	if err == nil || !strings.Contains(err.Error(), "segment 3") {
		t.Fatalf("err = %v, want segment-3 parse error", err)
	}
	if n != 2 {
		t.Fatalf("appended %d before the parse error, want 2", n)
	}
	// The session is still usable: parse errors are per-request.
	if _, err := s.AppendTraceBatch(strings.NewReader("w a 4 40 41\n")); err != nil {
		t.Fatalf("session poisoned by a parse error: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Ops != 3 {
		t.Fatalf("ops = %d, want 3", st.Ops)
	}
}

// errAfterReader yields its payload, then fails with a non-EOF error —
// the shape of a network body that dies mid-request.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestAppendTraceBatchReaderErrorParity pins reader-error behavior to the
// op-granular path's: everything buffered — including a final unterminated
// line — is ingested before the error surfaces, exactly as the scanner
// emits its remaining buffer (final partial token included) on a read
// error.
func TestAppendTraceBatchReaderErrorParity(t *testing.T) {
	boom := errors.New("connection reset")
	payload := "w a 1 0 1\nw b 1 0 1" // no trailing newline
	ref := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1})
	refN, refErr := appendPerOp(ref, &errAfterReader{data: []byte(payload), err: boom})
	ref.Flush()
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 4})
	n, err := s.AppendTraceBatch(&errAfterReader{data: []byte(payload), err: boom})
	s.Flush()
	if !errors.Is(err, boom) || (refErr == nil) == (err == nil) && !errors.Is(refErr, boom) {
		t.Fatalf("errors diverge: op-granular %v, batch %v", refErr, err)
	}
	if n != refN || n != 2 {
		t.Fatalf("ingested %d (op-granular %d), want both 2 incl. the unterminated final line", n, refN)
	}
}

// TestBatchBoundariesStraddleCuts feeds batches whose boundaries land
// exactly on, just before, and just after quiescent cut points, checking
// verdicts never depend on where a batch ends relative to a cut.
func TestBatchBoundariesStraddleCuts(t *testing.T) {
	// Staircase with a quiescent gap after every read: every op index is a
	// potential cut point under MinSegmentOps 1.
	var ops []KeyedOp
	clock := int64(0)
	for i := 0; i < 90; i++ {
		v := int64(i + 1)
		ops = append(ops,
			KeyedOp{Key: "a", Op: history.Operation{Kind: history.KindWrite, Value: v, Start: clock, Finish: clock + 1}},
			KeyedOp{Key: "a", Op: history.Operation{Kind: history.KindRead, Value: v, Start: clock + 2, Finish: clock + 3}})
		clock += 10
	}
	want := smallestKVia(t, StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 1},
		func(s *Session) {
			for _, ko := range ops {
				if err := s.Append(ko.Key, ko.Op); err != nil {
					t.Fatal(err)
				}
			}
		})
	// Boundary sweep: every split position in a window around each cut.
	for split := 1; split < 8; split++ {
		got := smallestKVia(t, StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 3},
			func(s *Session) {
				for off := 0; off < len(ops); {
					end := min(off+split, len(ops))
					if _, err := s.AppendBatch(ops[off:end]); err != nil {
						t.Fatal(err)
					}
					off = end
				}
			})
		for key, k := range want {
			if got[key] != k {
				t.Fatalf("split=%d key %s: k=%d, want %d", split, key, got[key], k)
			}
		}
	}
}

// TestBatchStickyErrorAcrossShards pins the cross-shard sticky-error
// contract: an ErrOutOfOrder admission failure on one shard's key poisons
// the whole session — later batches touching other shards are refused with
// the same error, and Flush reports it.
func TestBatchStickyErrorAcrossShards(t *testing.T) {
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 8})
	w := func(key string, v, start int64) KeyedOp {
		return KeyedOp{Key: key, Op: history.Operation{Kind: history.KindWrite, Value: v, Start: start, Finish: start + 1}}
	}
	// Three quiescent writes commit cuts on key a.
	if _, err := s.AppendBatch([]KeyedOp{w("a", 1, 0), w("a", 2, 10), w("a", 3, 20)}); err != nil {
		t.Fatal(err)
	}
	// A batch mixing many keys, with the out-of-order op on key a: the
	// batch reports the error and the count of ops that got in.
	bad := []KeyedOp{w("b", 1, 0), w("c", 1, 0), w("a", 9, 5), w("d", 1, 0)}
	n, err := s.AppendBatch(bad)
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
	if n < 0 || n >= len(bad) {
		t.Fatalf("appended %d of a failing batch", n)
	}
	// Sticky across shards: keys b..z all hash elsewhere, all refused.
	if _, err := s.AppendBatch([]KeyedOp{w("z", 1, 0)}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("new batch after error: %v, want sticky ErrOutOfOrder", err)
	}
	if err := s.Append("z", w("z", 2, 100).Op); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("append after error: %v, want sticky ErrOutOfOrder", err)
	}
	if ferr := s.Flush(); !errors.Is(ferr, ErrOutOfOrder) {
		t.Fatalf("Flush: %v, want sticky ErrOutOfOrder", ferr)
	}
	// Terminal after flush, and the flushed error wins the gate.
	if _, err := s.AppendBatch([]KeyedOp{w("q", 1, 0)}); !errors.Is(err, ErrSessionFlushed) {
		t.Fatalf("batch after flush: %v, want ErrSessionFlushed", err)
	}
}

// TestIngestLockAcquisitionsBatchReduction is the PR's headline measurement
// as a counted assertion: batch ingest must take at least 10x fewer
// shard-lock acquisitions per operation than op-granular ingest of the very
// same trace.
func TestIngestLockAcquisitionsBatchReduction(t *testing.T) {
	text := genSessionTrace(11, 8, 512)
	ops := keyedOpsOf(t, text)
	sopts := StreamOptions{Workers: 1, IngestShards: 8}

	opGranular := NewSmallestKSession(core.Options{}, sopts)
	for _, ko := range ops {
		if err := opGranular.Append(ko.Key, ko.Op); err != nil {
			t.Fatal(err)
		}
	}
	opLocks := opGranular.IngestLockAcquisitions()
	if err := opGranular.Flush(); err != nil {
		t.Fatal(err)
	}
	if opLocks != int64(len(ops)) {
		t.Fatalf("op-granular ingest took %d lock acquisitions for %d ops", opLocks, len(ops))
	}

	const batch = 512
	batched := NewSmallestKSession(core.Options{}, sopts)
	for off := 0; off < len(ops); off += batch {
		end := min(off+batch, len(ops))
		if _, err := batched.AppendBatch(ops[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	batchLocks := batched.IngestLockAcquisitions()
	if err := batched.Flush(); err != nil {
		t.Fatal(err)
	}
	if batchLocks == 0 {
		t.Fatal("batch ingest took no locks")
	}
	if ratio := float64(opLocks) / float64(batchLocks); ratio < 10 {
		t.Fatalf("batch ingest reduced lock acquisitions only %.1fx (%d -> %d for %d ops), want >= 10x",
			ratio, opLocks, batchLocks, len(ops))
	}
}

// TestAppendTraceBatchSteadyStateAllocs pins the zero-allocation claim of
// the batch hot path: once the session's maps, open-window buffers, and
// scratches are warm, pushing already-seen keys through AppendTraceBatch
// allocates nothing. The measured window extends one open window per key
// (no quiescent cuts fire inside it), isolating the parse/group/append path
// from segment dispatch, which allocates per segment by design.
func TestAppendTraceBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on pool and lock operations")
	}
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, IngestShards: 4, MinSegmentOps: 1 << 30})
	var (
		clock int64
		value int64
	)
	batch := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			value++
			// Overlapping intervals: never quiescent, so no cut commits and
			// the open window just grows. Attributes ride the same in-place
			// parse as the five plain fields.
			fmt.Fprintf(&b, "w key-%d %d %d %d%s\n", i%4, value, clock, clock+10,
				[...]string{"", " client=3", " weight=2 client=9", " client=1 weight=4"}[i%4])
			clock++
		}
		return b.String()
	}
	// Warm-up: grow the open-window buffers, value indexes, and scratches
	// well past what the measured window appends, so neither slice doubling
	// nor map growth fires inside it.
	if _, err := s.AppendTraceBatch(strings.NewReader(batch(80000))); err != nil {
		t.Fatal(err)
	}
	// Payloads are pre-rendered: the measurement must see only the ingest
	// path, not the text generation. AllocsPerRun calls f runs+1 times
	// (one warm-up call), and replaying a payload would be out of order.
	payloads := make([]string, 25)
	for i := range payloads {
		payloads[i] = batch(256)
	}
	run := 0
	r := strings.NewReader("")
	allocs := testing.AllocsPerRun(len(payloads)-1, func() {
		r.Reset(payloads[run])
		run++
		if _, err := s.AppendTraceBatch(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("batch hot path allocates %.1f allocs/batch at steady state, want 0", allocs)
	}
}

// TestSessionShardCountStatsConsistency checks the per-shard observability
// surface: shard ops sum to Stats.Ops, buffered sums to BufferedOps, and
// every key routes consistently (SnapshotKey finds what Snapshot lists) for
// a non-power-of-two shard count.
func TestSessionShardCountStatsConsistency(t *testing.T) {
	text := genSessionTrace(3, 6, 50)
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 5})
	if s.Shards() != 5 {
		t.Fatalf("Shards() = %d, want 5", s.Shards())
	}
	if _, err := s.AppendTraceBatch(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	var shardOps, shardBuf int64
	for i := 0; i < s.Shards(); i++ {
		shardOps += s.ShardIngestedOps(i)
		shardBuf += s.ShardBufferedOps(i)
	}
	if st := s.Stats(); shardOps != st.Ops {
		t.Fatalf("shard ops sum %d != Stats.Ops %d", shardOps, st.Ops)
	}
	if got := s.BufferedOps(); shardBuf != got {
		t.Fatalf("shard buffered sum %d != BufferedOps %d", shardBuf, got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Shards(); i++ {
		if b := s.ShardBufferedOps(i); b != 0 {
			t.Fatalf("shard %d still buffers %d ops after flush", i, b)
		}
	}
	for _, kv := range s.Snapshot() {
		got, ok := s.SnapshotKey(kv.Key)
		if !ok || got.Ops != kv.Ops {
			t.Fatalf("SnapshotKey(%s) = %+v ok=%v, snapshot %+v", kv.Key, got, ok, kv)
		}
	}
}

// TestCountersSettlePerGroup checks the counters addOp no longer writes per
// operation: the shard groups of concurrent producers publish them, so once
// the session is flushed every gauge is exact; and a closing window settles
// the stale reads it drops once, with the bytes their chunks gave back.
func TestCountersSettlePerGroup(t *testing.T) {
	const producers, perProducer = 4, 3000
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 2, MinSegmentOps: 8, IngestShards: 5})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Each producer owns its keys (per-key order needs one producer)
			// and they spread over every shard; write/read pairs quiesce, so
			// windows close, dispatch and drop mid-group.
			var b strings.Builder
			for i := 0; i < perProducer/2; i++ {
				key, at := fmt.Sprintf("p%d-k%d", p, i%7), int64(20*i)
				fmt.Fprintf(&b, "w %s %d %d %d client=%d\nr %s %d %d %d\n", key, i, at, at+5, p+1, key, i, at+10, at+15)
				if i%64 == 63 {
					if _, err := s.AppendTraceBatch(strings.NewReader(b.String())); err != nil {
						t.Error(err)
						return
					}
					b.Reset()
				}
			}
			if _, err := s.AppendTraceBatch(strings.NewReader(b.String())); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var shardOps int64
	for i := 0; i < s.Shards(); i++ {
		shardOps += s.ShardIngestedOps(i)
		if n := s.ShardBufferedOps(i); n != 0 {
			t.Errorf("shard %d still counts %d buffered operations after Flush", i, n)
		}
	}
	st := s.Stats()
	if fed := int64(producers * perProducer); shardOps != fed || st.Ops != fed {
		t.Errorf("fed %d operations: shards count %d, Stats.Ops %d", fed, shardOps, st.Ops)
	}
	if ops, bytes := s.BufferedOps(), s.BufferedBytes(); ops != 0 || bytes != 0 {
		t.Errorf("BufferedOps() = %d, BufferedBytes() = %d after Flush, want 0", ops, bytes)
	}
	if st.PeakBufferedOps <= 0 || st.PeakBufferedOps > st.Ops {
		t.Errorf("PeakBufferedOps = %d, want within (0, %d]", st.PeakBufferedOps, st.Ops)
	}

	// A closing window that drops stale reads takes them out of the live
	// counts in one settlement, not one per read. Five writes each close and,
	// at horizon 2, the first three are dispatched; the window that follows
	// holds a write and 40 reads of values 0..2, all dropped at its close (the
	// operation that quiesces it); what stays live is the kept write and the
	// write before it, both held, and the open operation.
	var b strings.Builder
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, "w k %d %d %d\n", i, 10*i, 10*i+5)
	}
	b.WriteString("w k 5 100 300\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "r k %d %d %d\n", i%3, 110+i, 250)
	}
	b.WriteString("w k 6 400 410\n")
	drop := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 3, Horizon: 2})
	if _, err := drop.AppendTraceBatch(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	// A checkpoint waits out the verification in flight, so the counts below
	// are of what is held and open only.
	if _, err := drop.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	var shardBuf int64
	for i := 0; i < drop.Shards(); i++ {
		shardBuf += drop.ShardBufferedOps(i)
	}
	if st := drop.Stats(); st.StaleReads != 40 || st.Ops != 47 {
		t.Errorf("dropping window: %d stale reads of %d operations, want 40 of 47", st.StaleReads, st.Ops)
	}
	if got := drop.BufferedOps(); got != 3 || shardBuf != 3 {
		t.Errorf("after the dropping close BufferedOps() = %d, shards sum %d; want 3", got, shardBuf)
	}
	if got := drop.BufferedBytes(); got != 3*opbuf.ChunkBytes {
		t.Errorf("after the dropping close BufferedBytes() = %d, want three one-chunk lists", got)
	}
	if err := drop.Flush(); err != nil {
		t.Fatal(err)
	}
	if ops, bytes := drop.BufferedOps(), drop.BufferedBytes(); ops != 0 || bytes != 0 {
		t.Errorf("after Flush the dropping session still counts %d operations, %d bytes", ops, bytes)
	}
}

package trace

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"kat/internal/core"
	"kat/internal/generator"
	"kat/internal/history"
)

// genSessionTrace builds a deterministic multi-key trace text in arrival
// order, with enough quiescent gaps that MinSegmentOps 1 produces real
// segmentation.
func genSessionTrace(seed int64, keys, opsPerKey int) string {
	rng := rand.New(rand.NewSource(seed))
	t := New()
	for ki := 0; ki < keys; ki++ {
		clock := int64(rng.Intn(5))
		vals := 0
		var written []int64
		for i := 0; i < opsPerKey; i++ {
			var op history.Operation
			start := clock
			clock += int64(1 + rng.Intn(4))
			op.Start, op.Finish = start, clock
			clock += int64(rng.Intn(6)) // occasional quiescent gap
			if len(written) == 0 || rng.Float64() < 0.5 {
				vals++
				op.Kind = history.KindWrite
				op.Value = int64(vals)
				written = append(written, op.Value)
			} else {
				op.Kind = history.KindRead
				// Mostly fresh, sometimes stale by a few writes.
				back := rng.Intn(3)
				if back >= len(written) {
					back = len(written) - 1
				}
				op.Value = written[len(written)-1-back]
			}
			t.Add(fmt.Sprintf("key-%02d", ki), op)
		}
	}
	var b strings.Builder
	if err := WriteArrivalOrder(&b, t); err != nil {
		panic(err)
	}
	return b.String()
}

// appendPerOp is the per-operation side of the "batch ≡ op-granular"
// differentials: it scans the keyed text from r and pushes every operation
// through Append, one shard-lock acquisition each, returning how many were
// appended and the first parse, reader or admission error.
func appendPerOp(s *Session, r io.Reader) (int64, error) {
	var n int64
	err := ParseStreamBytes(r, func(key []byte, op history.Operation) error {
		if err := s.Append(string(key), op); err != nil {
			return err
		}
		n++
		return nil
	})
	return n, err
}

// feedPerOp pushes the canonical text into the session one operation at a
// time through Append (exercising the string-key path).
func feedPerOp(t *testing.T, s *Session, text string) {
	t.Helper()
	if _, err := appendPerOp(s, strings.NewReader(text)); err != nil {
		t.Fatalf("feed: %v", err)
	}
}

func TestSessionMatchesStreamCheck(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		text := genSessionTrace(seed, 4, 60)
		for _, k := range []int{1, 2} {
			sopts := StreamOptions{Workers: 2, MinSegmentOps: 1}
			want, wantStats, err := StreamCheck(strings.NewReader(text), k, core.Options{}, sopts)
			if err != nil {
				t.Fatalf("seed %d: StreamCheck: %v", seed, err)
			}
			s, err := NewCheckSession(k, core.Options{}, sopts)
			if err != nil {
				t.Fatal(err)
			}
			feedPerOp(t, s, text)
			if err := s.Flush(); err != nil {
				t.Fatalf("seed %d: Flush: %v", seed, err)
			}
			got, gotStats := s.Report()
			if len(got.Keys) != len(want.Keys) {
				t.Fatalf("seed %d k=%d: key counts differ", seed, k)
			}
			for i := range want.Keys {
				w, g := want.Keys[i], got.Keys[i]
				if w.Key != g.Key || w.Ops != g.Ops || w.Atomic != g.Atomic || (w.Err == nil) != (g.Err == nil) {
					t.Fatalf("seed %d k=%d: key %s: stream %+v vs session %+v", seed, k, w.Key, w, g)
				}
			}
			if gotStats.Ops != wantStats.Ops || gotStats.Keys != wantStats.Keys {
				t.Fatalf("seed %d: stats differ: %+v vs %+v", seed, gotStats, wantStats)
			}
		}

		wantK, _, err := StreamSmallestKByKey(strings.NewReader(text), core.Options{},
			StreamOptions{Workers: 2, MinSegmentOps: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 2, MinSegmentOps: 1})
		if _, err := s.AppendTraceBatch(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		gotK, _ := s.SmallestKByKey()
		for key, want := range wantK {
			if gotK[key] != want {
				t.Fatalf("seed %d: key %s: session k=%d, stream k=%d", seed, key, gotK[key], want)
			}
		}
	}
}

func TestSessionSharedPool(t *testing.T) {
	pool := core.NewPool(3)
	defer pool.Close()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			text := genSessionTrace(seed, 3, 50)
			want, _, err := StreamSmallestKByKey(strings.NewReader(text), core.Options{},
				StreamOptions{Workers: 1, MinSegmentOps: 1})
			if err != nil {
				t.Error(err)
				return
			}
			s := NewSmallestKSession(core.Options{}, StreamOptions{Pool: pool, MinSegmentOps: 1})
			if _, err := s.AppendTraceBatch(strings.NewReader(text)); err != nil {
				t.Error(err)
				return
			}
			if err := s.Flush(); err != nil {
				t.Error(err)
				return
			}
			got, _ := s.SmallestKByKey()
			for key, w := range want {
				if got[key] != w {
					t.Errorf("seed %d key %s: shared-pool k=%d, want %d", seed, key, got[key], w)
				}
			}
		}(int64(i + 1))
	}
	wg.Wait()
	// The shared pool must survive every session: it still runs work.
	s := NewSmallestKSession(core.Options{}, StreamOptions{Pool: pool, MinSegmentOps: 1})
	if err := s.Append("late", history.Operation{Kind: history.KindWrite, Value: 1, Start: 0, Finish: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.SmallestKByKey(); got["late"] != 1 {
		t.Fatalf("post-sessions pool run: k=%d, want 1", got["late"])
	}
}

func TestSessionConcurrentAppend(t *testing.T) {
	// Each goroutine owns disjoint keys, so per-key arrival order is
	// preserved no matter how the appends interleave.
	const producers = 8
	texts := make([]string, producers)
	for i := range texts {
		texts[i] = genSessionTrace(int64(1000+i), 2, 40)
	}
	// Distinct keys per producer: prefix them.
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 2, MinSegmentOps: 1})
	seq := make(map[string]int, producers*2)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, text := range texts {
		wg.Add(1)
		go func(i int, text string) {
			defer wg.Done()
			err := ParseStreamBytes(strings.NewReader(text), func(key []byte, op history.Operation) error {
				return s.Append(fmt.Sprintf("p%d-%s", i, string(key)), op)
			})
			if err != nil {
				t.Error(err)
			}
		}(i, text)
		// Sequential reference under the same prefixed keys.
		ref := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1})
		ParseStreamBytes(strings.NewReader(text), func(key []byte, op history.Operation) error {
			return ref.Append(fmt.Sprintf("p%d-%s", i, string(key)), op)
		})
		ref.Flush()
		refK, _ := ref.SmallestKByKey()
		mu.Lock()
		for k, v := range refK {
			seq[k] = v
		}
		mu.Unlock()
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _ := s.SmallestKByKey()
	if len(got) != len(seq) {
		t.Fatalf("key count %d, want %d", len(got), len(seq))
	}
	for k, v := range seq {
		if got[k] != v {
			t.Fatalf("key %s: concurrent k=%d, sequential %d", k, got[k], v)
		}
	}
}

func TestSessionAppendAfterFlush(t *testing.T) {
	s, err := NewCheckSession(2, core.Options{}, StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("a", history.Operation{Kind: history.KindWrite, Value: 1, Start: 0, Finish: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // idempotent
		t.Fatal(err)
	}
	err = s.Append("a", history.Operation{Kind: history.KindRead, Value: 1, Start: 2, Finish: 3})
	if !errors.Is(err, ErrSessionFlushed) {
		t.Fatalf("append after flush: %v, want ErrSessionFlushed", err)
	}
	if _, err := s.AppendTraceBatch(strings.NewReader("w a 9 9 10\n")); !errors.Is(err, ErrSessionFlushed) {
		t.Fatalf("AppendTraceBatch after flush: %v, want ErrSessionFlushed", err)
	}
}

func TestSessionStickyOutOfOrder(t *testing.T) {
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1})
	ops := []struct {
		start, finish int64
	}{{0, 1}, {10, 11}, {20, 21}}
	for i, iv := range ops {
		op := history.Operation{Kind: history.KindWrite, Value: int64(i + 1), Start: iv.start, Finish: iv.finish}
		if err := s.Append("a", op); err != nil {
			t.Fatal(err)
		}
	}
	// Starts before the committed cut: out of order.
	bad := history.Operation{Kind: history.KindWrite, Value: 9, Start: 5, Finish: 6}
	err := s.Append("a", bad)
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order append: %v, want ErrOutOfOrder", err)
	}
	// Sticky: even a well-formed append now fails with the same error.
	good := history.Operation{Kind: history.KindWrite, Value: 10, Start: 50, Finish: 51}
	if err2 := s.Append("a", good); !errors.Is(err2, ErrOutOfOrder) {
		t.Fatalf("append after error: %v, want sticky ErrOutOfOrder", err2)
	}
	if ferr := s.Flush(); !errors.Is(ferr, ErrOutOfOrder) {
		t.Fatalf("Flush: %v, want sticky ErrOutOfOrder", ferr)
	}
}

// TestErroredKeyVerdictIsZero pins that an error dominates every property: a
// clean first segment that needs k=2 and holds an irregular read is verified
// before a dangling read in the next one settles the key in error, and the
// key still reports a zero Verdict — what segments folded in before the
// anomaly depends on scheduling.
func TestErroredKeyVerdictIsZero(t *testing.T) {
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1, Properties: PropertySetAll})
	trace := "w x 1 0 1\nw x 2 2 3\nr x 1 4 5\nr x 999 10 11\n"
	if _, err := s.AppendTraceBatch(strings.NewReader(trace)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	kv, ok := s.SnapshotKey("x")
	if !ok || kv.Err == nil {
		t.Fatalf("SnapshotKey(x) = %+v, %v; want the dangling read's error", kv, ok)
	}
	if kv.Verdict != (Verdict{}) {
		t.Fatalf("errored key reports %+v, want a zero Verdict", kv.Verdict)
	}
}

func TestSessionSnapshotLifecycle(t *testing.T) {
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1, Horizon: 2})
	if snaps := s.Snapshot(); len(snaps) != 0 {
		t.Fatalf("fresh session snapshot: %v", snaps)
	}
	// A staircase of writes each read back immediately: smallest k = 1,
	// segments close at every quiescent gap.
	clock := int64(0)
	for i := 0; i < 30; i++ {
		w := history.Operation{Kind: history.KindWrite, Value: int64(i + 1), Start: clock, Finish: clock + 1}
		r := history.Operation{Kind: history.KindRead, Value: int64(i + 1), Start: clock + 2, Finish: clock + 3}
		clock += 4
		if err := s.Append("a", w); err != nil {
			t.Fatal(err)
		}
		if err := s.Append("a", r); err != nil {
			t.Fatal(err)
		}
	}
	mid := s.Snapshot()
	if len(mid) != 1 || mid[0].Key != "a" || mid[0].Ops != 60 {
		t.Fatalf("mid snapshot: %+v", mid)
	}
	if mid[0].Err != nil || !mid[0].Atomic {
		t.Fatalf("mid snapshot flags: %+v", mid[0])
	}
	if s.BufferedOps() < 0 {
		t.Fatalf("negative buffered ops")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fin := s.Snapshot()
	if len(fin) != 1 || fin[0].PendingOps != 0 {
		t.Fatalf("final snapshot still pending: %+v", fin)
	}
	if fin[0].SmallestK != 1 {
		t.Fatalf("final smallest k = %d, want 1", fin[0].SmallestK)
	}
	st := s.Stats()
	if st.Ops != 60 || st.Keys != 1 || st.Segments == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestLadderCountsSettlePerSegment: a segment's ladder counts reach
// StreamStats once it has verified — one key decided by each rung, the
// 3-atomic one in one oracle call.
func TestLadderCountsSettlePerSegment(t *testing.T) {
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 2, MinSegmentOps: 1000})
	text := "w one 1 0 10\nr one 1 20 30\n" +
		"w two 1 0 10\nw two 2 20 30\nr two 1 40 50\n" +
		"w three 1 0 10\nw three 2 20 30\nw three 3 40 50\nr three 1 60 70\n"
	if _, err := s.AppendTraceBatch(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := core.Ladder{Zone: 1, FZF: 1, Climb: 1, OracleProbes: 1}
	if st := s.Stats(); st.Segments != 3 || st.Ladder != want {
		t.Errorf("%d segments, ladder %+v; want 3, %+v", st.Segments, st.Ladder, want)
	}
}

// TestBufferedBytesPerOperation pins what a held operation costs: 4 096 keys
// arriving interleaved, 128 generator operations each — no window closes, so
// every key holds one open list with its half-filled last chunk — stay within
// 16 bytes an operation, against the 56 of a history.Operation.
func TestBufferedBytesPerOperation(t *testing.T) {
	const keys, perKey = 4096, 128
	var hists [16]*history.History
	for i := range hists {
		hists[i] = generator.KAtomic(generator.Config{Seed: int64(i + 1), Ops: perKey, StalenessDepth: 1})
	}
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1})
	batch := make([]KeyedOp, keys)
	for k := range batch {
		batch[k].Key = fmt.Sprintf("key-%04d", k)
	}
	for i := 0; i < perKey; i++ {
		for k := range batch {
			batch[k].Op = hists[k%len(hists)].Ops[i]
		}
		if _, err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	ops, bytes := s.BufferedOps(), s.BufferedBytes()
	if ops != keys*perKey {
		t.Fatalf("%d operations buffered, want all %d", ops, keys*perKey)
	}
	if per := float64(bytes) / float64(ops); per > 16 {
		t.Errorf("a buffered operation costs %.1f bytes (%d in all), want <= 16", per, bytes)
	} else {
		t.Logf("%.1f bytes a buffered operation", per)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.BufferedBytes(); got != 0 {
		t.Errorf("BufferedBytes() = %d after Flush, want 0", got)
	}
}

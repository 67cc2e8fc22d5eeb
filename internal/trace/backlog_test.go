package trace

// The verification backlog bounds the operations dispatched and not yet
// verified, not the number of segments: these tests override the cap
// (engine.backlogCap) and hold verdicts in OnSegment to watch a producer
// block at the cap, an oversize segment go alone, a drain of small segments
// pass without waiting, and concurrent producers, checkpoints and a flush
// under a tiny cap reach the verdicts of the default.

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kat/internal/core"
	"kat/internal/generator"
	"kat/internal/history"
)

// backlogWaiters counts the dispatches parked in admit.
func backlogWaiters(s *Session) uint64 {
	s.e.backlogMu.Lock()
	defer s.e.backlogMu.Unlock()
	return s.e.backlogNext - s.e.backlogServing
}

// waitUntil polls cond until it holds, failing the test after ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// heldVerdicts returns StreamOptions whose OnSegment counts each landing
// verdict and then blocks until hold yields (or is closed), so the job's
// operations stay in the backlog.
func heldVerdicts(sopts StreamOptions, landed *atomic.Int64, hold chan struct{}) StreamOptions {
	sopts.OnSegment = func(SegmentVerdict) {
		landed.Add(1)
		<-hold
	}
	return sopts
}

func writeOp(key string, v, start int64) KeyedOp {
	return KeyedOp{Key: key, Op: history.Operation{Kind: history.KindWrite, Value: v, Start: start, Finish: start + 1}}
}

// TestBacklogBlocksProducerAtCap: with four-op segments and a cap of eight
// operations, the third dispatch waits while the first verdict is held; one
// verdict landing lets exactly one more segment in.
func TestBacklogBlocksProducerAtCap(t *testing.T) {
	var landed atomic.Int64
	hold := make(chan struct{})
	s := NewSmallestKSession(core.Options{}, heldVerdicts(StreamOptions{Workers: 1, MinSegmentOps: 4, Horizon: 1}, &landed, hold))
	s.e.backlogCap = 8
	var appended atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := int64(0); i < 200; i++ {
			if err := s.Append("a", writeOp("a", i+1, 10*i).Op); err != nil {
				done <- err
				return
			}
			appended.Add(1)
		}
		done <- nil
	}()

	waitUntil(t, "the producer to wait at the cap", func() bool { return backlogWaiters(s) == 1 && landed.Load() == 1 })
	if got := s.BacklogOps(); got != 8 {
		t.Fatalf("backlog %d ops while the producer waits, want the cap 8", got)
	}
	at := appended.Load()
	time.Sleep(20 * time.Millisecond)
	if got := appended.Load(); got != at || s.BacklogWaits() != 1 {
		t.Fatalf("producer moved %d → %d ops (%d waits) with the backlog full", at, got, s.BacklogWaits())
	}

	hold <- struct{}{} // one verdict lands
	waitUntil(t, "the producer to wait again", func() bool { return s.BacklogWaits() == 2 && backlogWaiters(s) == 1 && landed.Load() == 2 })
	if got := appended.Load(); got <= at {
		t.Fatalf("producer did not resume after a verdict landed: %d ops, %d before", got, at)
	}
	if got := s.BacklogOps(); got != 8 {
		t.Fatalf("backlog %d ops, want the cap 8", got)
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.BacklogOps(); got != 0 {
		t.Fatalf("backlog %d ops after Flush, want 0", got)
	}
	if kv, _ := s.SnapshotKey("a"); kv.Ops != 200 || kv.Err != nil || kv.SmallestK != 1 {
		t.Fatalf("key a: %+v", kv)
	}
}

// TestBacklogOversizeSegmentGoesAlone: two ten-operation segments under a
// cap of four. The first is dispatched into the empty backlog although it
// is larger than the cap, the second waits for its verdict, and the drain
// finishes.
func TestBacklogOversizeSegmentGoesAlone(t *testing.T) {
	var landed atomic.Int64
	hold := make(chan struct{})
	s := NewSmallestKSession(core.Options{}, heldVerdicts(StreamOptions{Workers: 1, IngestShards: 1}, &landed, hold))
	s.e.backlogCap = 4
	var batch []KeyedOp
	for i := int64(0); i < 10; i++ {
		batch = append(batch, writeOp("a", i+1, 10*i), writeOp("b", i+1, 10*i))
	}
	if _, err := s.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush() }()

	waitUntil(t, "the second segment to wait", func() bool { return backlogWaiters(s) == 1 && landed.Load() == 1 })
	if got := s.BacklogOps(); got != 10 {
		t.Fatalf("backlog %d ops, want the lone 10-op segment", got)
	}
	close(hold)
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush deadlocked behind an oversize segment")
	}
	if got, waits := s.BacklogOps(), s.BacklogWaits(); got != 0 || waits != 1 {
		t.Fatalf("after Flush: backlog %d ops, %d waits; want 0 and 1", got, waits)
	}
	for _, kv := range s.Snapshot() {
		if kv.Ops != 10 || kv.Err != nil || kv.SmallestK != 1 {
			t.Fatalf("key %s: %+v", kv.Key, kv)
		}
	}
}

// TestBacklogDrainOfSmallSegmentsNeverWaits: a drain of 1 000 four-op
// segments, 4 000 operations under the one-worker cap, dispatches every one
// of them while the first verdict is still held.
func TestBacklogDrainOfSmallSegmentsNeverWaits(t *testing.T) {
	const keys, perKey = 1000, 4
	var landed atomic.Int64
	hold := make(chan struct{})
	s := NewSmallestKSession(core.Options{}, heldVerdicts(StreamOptions{Workers: 1}, &landed, hold))
	batch := make([]KeyedOp, 0, keys*perKey)
	for i := int64(0); i < perKey; i++ {
		for k := 0; k < keys; k++ {
			batch = append(batch, writeOp(fmt.Sprintf("k%04d", k), i+1, 10*i))
		}
	}
	if _, err := s.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush() }()
	waitUntil(t, "every segment to be dispatched", func() bool { return s.BacklogOps() == keys*perKey })
	if waits := s.BacklogWaits(); waits != 0 {
		t.Fatalf("%d dispatches waited with %d of %d ops in the backlog", waits, s.BacklogOps(), s.e.backlogCap)
	}
	close(hold)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if got, waits, n := s.BacklogOps(), s.BacklogWaits(), landed.Load(); got != 0 || waits != 0 || n != keys {
		t.Fatalf("after Flush: backlog %d ops, %d waits, %d verdicts; want 0, 0 and %d", got, waits, n, keys)
	}
}

// TestBacklogTinyCapSameVerdicts races four AppendBatch producers, a loop of
// checkpoints (each freezes every shard lock while producers may be parked
// on the backlog) and the final flush under a one-operation cap, and
// requires the verdicts of a default-cap session fed the same batches in
// order.
func TestBacklogTinyCapSameVerdicts(t *testing.T) {
	const producers, keysPer, opsPer, batchOps = 4, 6, 240, 16
	batches := make([][][]KeyedOp, producers) // per producer, in order
	for p := range batches {
		var ops []KeyedOp
		hists := make([]*history.History, keysPer)
		for k := range hists {
			seed := int64(p*keysPer + k + 1)
			hists[k] = generator.KAtomic(generator.Config{Seed: seed, Ops: opsPer, StalenessDepth: 1})
			if seed%3 == 0 {
				hists[k] = generator.InjectStaleness(hists[k], seed, 0.2, 1+int(seed%2))
			}
		}
		for i := 0; i < opsPer; i++ {
			for k, h := range hists {
				if i < len(h.Ops) {
					ops = append(ops, KeyedOp{Key: fmt.Sprintf("p%d-k%d", p, k), Op: h.Ops[i]})
				}
			}
		}
		for len(ops) > 0 {
			n := min(batchOps, len(ops))
			batches[p] = append(batches[p], ops[:n])
			ops = ops[n:]
		}
	}
	sopts := StreamOptions{Workers: 2, MinSegmentOps: 4, IngestShards: 4, Properties: PropertySetAll}

	want := NewSmallestKSession(core.Options{}, sopts)
	for _, bs := range batches {
		for _, b := range bs {
			if _, err := want.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := want.Flush(); err != nil {
		t.Fatal(err)
	}

	s := NewSmallestKSession(core.Options{}, sopts)
	s.e.backlogCap = 1
	var wg sync.WaitGroup
	for p := range batches {
		wg.Add(1)
		go func(bs [][]KeyedOp) {
			defer wg.Done()
			for _, b := range bs {
				if _, err := s.AppendBatch(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(batches[p])
	}
	stop := make(chan struct{})
	checkpoints := make(chan int)
	go func() {
		n := 0
		for {
			if _, err := s.Checkpoint(nil); err != nil {
				t.Error(err)
			}
			n++
			select {
			case <-stop:
				checkpoints <- n
				return
			default:
			}
		}
	}()
	wg.Wait()
	err := s.Flush()
	close(stop)
	if n := <-checkpoints; err != nil || n == 0 {
		t.Fatalf("Flush: %v after %d checkpoints", err, n)
	}
	if s.BacklogWaits() == 0 || s.BacklogOps() != 0 {
		t.Fatalf("tiny cap: %d waits, %d ops left in the backlog; want some waits and none left", s.BacklogWaits(), s.BacklogOps())
	}
	if got, wantKV := s.Snapshot(), want.Snapshot(); !reflect.DeepEqual(got, wantKV) {
		t.Fatalf("verdicts under a one-operation cap differ from the default cap:\n got %+v\nwant %+v", got, wantKV)
	}
}

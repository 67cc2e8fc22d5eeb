package wal_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kat/internal/checkpoint"
	"kat/internal/core"
	"kat/internal/faultfs"
	"kat/internal/history"
	"kat/internal/trace"
	"kat/internal/wal"
)

// TestCommitOneFsync: records appended from every shard of a 16-shard
// session share one file, so committing them costs one fsync under
// SyncBatch and none under SyncNever — for the log alone and for a durable
// session's AppendBatch that spans every shard.
func TestCommitOneFsync(t *testing.T) {
	const shards = 16
	for _, c := range []struct {
		policy wal.SyncPolicy
		fsyncs int64
	}{{wal.SyncBatch, 1}, {wal.SyncNever, 0}} {
		l, err := wal.Open(faultfs.NewMem(), ".", shards, 0, c.policy)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < shards; s++ {
			if err := l.AppendShard(s, []byte(fmt.Sprint("group ", s))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Fsyncs != c.fsyncs || st.Records != shards {
			t.Errorf("%v: after one commit of %d groups: %+v, want %d fsyncs", c.policy, shards, st, c.fsyncs)
		}
		l.Close()
	}

	mem := faultfs.NewMem()
	mgr, err := checkpoint.Open(mem, "data", checkpoint.Config{Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	sess := trace.NewSmallestKSession(core.Options{}, trace.StreamOptions{Workers: 1, IngestShards: shards})
	defer sess.Flush()
	if _, err := mgr.Recover(sess); err != nil {
		t.Fatal(err)
	}
	// One key per shard, by the session's routing.
	var batch []trace.KeyedOp
	var covered [shards]bool
	for i := 0; len(batch) < shards; i++ {
		key := fmt.Sprint("key", i)
		if s := trace.KeyHash(key) % shards; !covered[s] {
			covered[s] = true
			batch = append(batch, trace.KeyedOp{Key: key,
				Op: history.Operation{Kind: history.KindWrite, Value: 1, Start: 0, Finish: 1}})
		}
	}
	before := mgr.Stats().WAL
	if _, err := sess.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		if sess.ShardIngestedOps(s) != 1 {
			t.Fatalf("shard %d ingested %d ops, want 1", s, sess.ShardIngestedOps(s))
		}
	}
	after := mgr.Stats().WAL
	if d := after.Fsyncs - before.Fsyncs; d != 1 || after.Records-before.Records != shards {
		t.Errorf("one AppendBatch over %d shards: %d fsyncs, %d records; want 1 fsync, %d records",
			shards, d, after.Records-before.Records, shards)
	}
	names, err := mem.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	for _, name := range names {
		if _, _, ok := wal.ParseFileName(name); ok {
			logs = append(logs, name)
		}
	}
	if len(logs) != 1 || logs[0] != wal.FileName(0, 0) {
		t.Errorf("WAL files = %v, want only %s", logs, wal.FileName(0, 0))
	}
}

// lenFile records how many bytes were written through it and how many the
// last completed Sync covered: those written when that Sync began.
type lenFile struct {
	faultfs.File
	mu              sync.Mutex
	written, synced int64
}

func (f *lenFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.mu.Lock()
	f.written += int64(n)
	f.mu.Unlock()
	return n, err
}

func (f *lenFile) Sync() error {
	f.mu.Lock()
	at := f.written
	f.mu.Unlock()
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.mu.Lock()
	f.synced = max(f.synced, at)
	f.mu.Unlock()
	return nil
}

func (f *lenFile) lengths() (written, synced int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written, f.synced
}

// lenFS hands out lenFiles and keeps the last one created.
type lenFS struct {
	faultfs.FS
	last *lenFile
}

func (fs *lenFS) Create(name string) (faultfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	fs.last = &lenFile{File: f}
	return fs.last, nil
}

// TestCommitCoversOwnAppend: producers append and commit concurrently, and
// a Commit that returns nil has made durable at least every byte that was in
// the file when its producer's append returned — whether it fsynced itself
// or found an earlier fsync covering them.
func TestCommitCoversOwnAppend(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncBatch, wal.SyncAlways} {
		fsys := &lenFS{FS: faultfs.NewMem()}
		l, err := wal.Open(fsys, ".", 4, 0, policy)
		if err != nil {
			t.Fatal(err)
		}
		f := fsys.last
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload := []byte(fmt.Sprint("producer ", g))
				for i := 0; i < 300; i++ {
					if err := l.AppendShard(g, payload); err != nil {
						errs <- err
						return
					}
					mine, _ := f.lengths()
					if err := l.Commit(); err != nil {
						errs <- err
						return
					}
					if _, synced := f.lengths(); synced < mine {
						errs <- fmt.Errorf("%v: producer %d commit %d returned with %d bytes synced, %d written at its append",
							policy, g, i, synced, mine)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if st := l.Stats(); st.Records != 4*300 {
			t.Errorf("%v: %d records, want %d", policy, st.Records, 4*300)
		}
		l.Close()
	}
}

// TestCommitRacingRotate: a committer loops while the log rotates under it.
// MemFS refuses to sync a closed file, so a rotation that closed the old
// epoch's file under an in-flight fsync would surface here as an error.
// Fsyncs are held in flight for 0 to 150 µs, so a committer's long fsync of
// the first records can still run when the rotation's own short seal of the
// rest has ended.
func TestCommitRacingRotate(t *testing.T) {
	mem := faultfs.NewMem()
	slowSync := faultfs.NewFaulty(mem, func(op faultfs.Op, _ string, seq int64) *faultfs.Fault {
		if op == faultfs.OpSync {
			return &faultfs.Fault{Delay: func() { time.Sleep(time.Duration(seq%4) * 50 * time.Microsecond) }}
		}
		return nil
	})
	l, err := wal.Open(slowSync, ".", 16, 0, wal.SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var stop atomic.Bool
	done := make(chan error)
	go func() {
		var first error
		for !stop.Load() {
			if err := l.Commit(); err != nil && first == nil {
				first = err
			}
		}
		done <- first
	}()
	const rotations = 50
	for e := 1; e <= rotations; e++ {
		for s := 0; s < 16; s += 5 {
			if err := l.AppendShard(s, []byte(fmt.Sprint("epoch ", e-1, " shard ", s))); err != nil {
				t.Fatal(err)
			}
			runtime.Gosched() // let the committer start an fsync mid-epoch
		}
		if err := l.Rotate(e); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatalf("commit racing rotation: %v", err)
	}
	for e := 0; e <= rotations; e++ {
		recs, _, err := wal.ReadFile(mem, wal.FileName(e, 0))
		want := 4
		if e == rotations {
			want = 0
		}
		if err != nil || len(recs) != want {
			t.Fatalf("epoch %d: %d records (%v), want %d", e, len(recs), err, want)
		}
	}
}

package wal

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"kat/internal/faultfs"
)

// walEpochs lists the sorted distinct epochs of the WAL files in dir, the
// way recovery scans a directory: ReadDir, then ParseFileName.
func walEpochs(fsys faultfs.FS, dir string) ([]int, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var epochs []int
	for _, name := range names {
		if e, _, ok := ParseFileName(name); ok && !slices.Contains(epochs, e) {
			epochs = append(epochs, e)
		}
	}
	slices.Sort(epochs)
	return epochs, nil
}

func TestWriterReaderRoundTrip(t *testing.T) {
	mem := faultfs.NewMem()
	f, _ := mem.Create("log")
	w := NewWriter(f)
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma with spaces\nand newline")}
	for _, p := range payloads {
		if err := w.Append(RecordBatch, p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if w.synced == w.written {
		t.Fatal("writer should be dirty before sync")
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if w.synced != w.written {
		t.Fatal("writer dirty after sync")
	}

	recs, torn, err := ReadFile(mem, "log")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if torn != 0 {
		t.Fatalf("torn = %d, want 0", torn)
	}
	if len(recs) != len(payloads) {
		t.Fatalf("got %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.Type != RecordBatch || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d = (%d, %q)", i, r.Type, r.Payload)
		}
	}
}

// TestTornTailEveryByte truncates a three-record file at every byte offset
// and checks the reader returns exactly the records whose frames fit.
func TestTornTailEveryByte(t *testing.T) {
	mem := faultfs.NewMem()
	f, _ := mem.Create("log")
	w := NewWriter(f)
	var ends []int64 // cumulative file size after each record
	for i := 0; i < 3; i++ {
		p := bytes.Repeat([]byte{byte('a' + i)}, 10+i*7)
		if err := w.Append(RecordBatch, p); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.Written())
	}
	full, _ := faultfs.ReadFile(mem, "log")
	for cut := 0; cut <= len(full); cut++ {
		recs, torn, err := ReadAll(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := 0
		for _, e := range ends {
			if int64(cut) >= e {
				want++
			}
		}
		if len(recs) != want {
			t.Fatalf("cut %d: got %d records, want %d", cut, len(recs), want)
		}
		wantTorn := int64(cut)
		if want > 0 {
			wantTorn = int64(cut) - ends[want-1]
		}
		if torn != wantTorn {
			t.Fatalf("cut %d: torn = %d, want %d", cut, torn, wantTorn)
		}
	}
}

func TestCorruptMiddleStops(t *testing.T) {
	mem := faultfs.NewMem()
	f, _ := mem.Create("log")
	w := NewWriter(f)
	w.Append(RecordBatch, []byte("first"))
	firstEnd := w.Written()
	w.Append(RecordBatch, []byte("second"))
	data, _ := faultfs.ReadFile(mem, "log")
	data[firstEnd+9]++ // flip a payload byte of the second record
	recs, torn, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "first" {
		t.Fatalf("recs = %v", recs)
	}
	if torn != int64(len(data))-firstEnd {
		t.Fatalf("torn = %d", torn)
	}
}

func TestWriterSticky(t *testing.T) {
	mem := faultfs.NewMem()
	ff := faultfs.NewFaulty(mem, faultfs.FailOnce(faultfs.OpWrite, 1, 3))
	f, _ := ff.Create("log")
	w := NewWriter(f)
	if err := w.Append(RecordBatch, []byte("ok")); err != nil {
		t.Fatalf("first append: %v", err)
	}
	// Second append: its one write (op 1) tears after three bytes.
	if err := w.Append(RecordBatch, []byte("doomed")); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append err = %v, want injected", err)
	}
	if err := w.Append(RecordBatch, []byte("after")); !errors.Is(err, ErrSticky) {
		t.Fatalf("append after failure = %v, want ErrSticky", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrSticky) {
		t.Fatalf("sync after failure = %v, want ErrSticky", err)
	}
	// The torn file still yields the first record cleanly.
	recs, torn, err := ReadFile(mem, "log")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != "ok" {
		t.Fatalf("recs = %+v", recs)
	}
	if torn == 0 {
		t.Fatal("expected torn bytes from the failed append")
	}
}

func TestGroupSyncSkipsCleanFile(t *testing.T) {
	mem := faultfs.NewMem()
	syncs := 0
	ff := faultfs.NewFaulty(mem, func(op faultfs.Op, _ string, _ int64) *faultfs.Fault {
		if op == faultfs.OpSync {
			syncs++
		}
		return nil
	})
	f, _ := ff.Create("log")
	w := NewWriter(f)
	w.Append(RecordBatch, []byte("x"))
	w.Sync()
	w.Sync()
	w.Sync()
	if syncs != 1 {
		t.Fatalf("underlying syncs = %d, want 1 (group-commit skip)", syncs)
	}
}

func TestFileNameRoundTrip(t *testing.T) {
	name := FileName(7, 12)
	if name != "wal-ep00000007-s0012.log" {
		t.Fatalf("FileName = %q", name)
	}
	e, s, ok := ParseFileName(name)
	if !ok || e != 7 || s != 12 {
		t.Fatalf("ParseFileName = %d, %d, %v", e, s, ok)
	}
	for _, bad := range []string{"ckpt-00000007", "wal-ep.log", "random.txt"} {
		if _, _, ok := ParseFileName(bad); ok {
			t.Fatalf("ParseFileName(%q) unexpectedly ok", bad)
		}
	}
}

// TestLogEpochsRotatePurge: an epoch is one file holding every shard's
// records in append order; rotation opens the next, PurgeBefore removes the
// covered one.
func TestLogEpochsRotatePurge(t *testing.T) {
	mem := faultfs.NewMem()
	mem.MkdirAll("d")
	l, err := Open(mem, "d", 2, 0, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		shard   int
		payload string
	}{{1, "s1 e0"}, {0, "s0 e0"}, {1, "s1 e0 again"}} {
		if err := l.AppendShard(p.shard, []byte(p.payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(1); err != nil {
		t.Fatal(err)
	}
	if l.Epoch() != 1 {
		t.Fatalf("epoch = %d", l.Epoch())
	}
	if err := l.AppendShard(0, []byte("s0 e1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	names, err := mem.ReadDir("d")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{FileName(0, 0), FileName(1, 0)}; !slices.Equal(names, want) {
		t.Fatalf("files = %v, want %v", names, want)
	}
	for _, c := range []struct {
		epoch int
		want  []string
	}{{0, []string{"s1 e0", "s0 e0", "s1 e0 again"}}, {1, []string{"s0 e1"}}} {
		recs, _, err := ReadFile(mem, "d/"+FileName(c.epoch, 0))
		var got []string
		for _, r := range recs {
			got = append(got, string(r.Payload))
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Fatalf("epoch %d records = %q (%v), want %q", c.epoch, got, err, c.want)
		}
	}
	l.PurgeBefore(1)
	epochs, _ := walEpochs(mem, "d")
	if fmt.Sprint(epochs) != "[1]" {
		t.Fatalf("epochs after purge = %v", epochs)
	}
	// One fsync per Commit; the rotation's seal found epoch 0 synced.
	st := l.Stats()
	if st.Records != 4 || st.Rotations != 1 || st.EpochsPurged != 1 || st.Fsyncs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRotateBackwardsRejected(t *testing.T) {
	mem := faultfs.NewMem()
	l, err := Open(mem, ".", 1, 3, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(3); err == nil {
		t.Fatal("rotate to same epoch should fail")
	}
	if err := l.Rotate(2); err == nil {
		t.Fatal("rotate backwards should fail")
	}
}

func TestRotateCreateFailureLeavesWholeEpochs(t *testing.T) {
	mem := faultfs.NewMem()
	// Creates: epoch 0's file passes (op 0); the rotation's one create, of
	// epoch 1's file, fails (op 1).
	ff := faultfs.NewFaulty(mem, faultfs.FailOnce(faultfs.OpCreate, 1, 0))
	l, err := Open(ff, ".", 2, 0, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	l.AppendShard(0, []byte("keep"))
	if err := l.Rotate(1); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("rotate err = %v", err)
	}
	// No epoch-1 file; epoch 0 still complete, current and writable.
	epochs, _ := walEpochs(mem, ".")
	if fmt.Sprint(epochs) != "[0]" || l.Epoch() != 0 {
		t.Fatalf("epochs = %v, current %d", epochs, l.Epoch())
	}
	if err := l.AppendShard(1, []byte("still writable")); err != nil {
		t.Fatalf("append after failed rotate: %v", err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("commit after failed rotate: %v", err)
	}
	recs, _, _ := ReadFile(mem, FileName(0, 0))
	if len(recs) != 2 {
		t.Fatalf("epoch 0 records = %d", len(recs))
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    SyncPolicy
		wantErr bool
	}{
		{"never", SyncNever, false},
		{"", SyncNever, false},
		{"batch", SyncBatch, false},
		{"always", SyncAlways, false},
		{"nope", 0, true},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if SyncBatch.String() != "batch" || SyncAlways.String() != "always" || SyncNever.String() != "never" {
		t.Fatal("String round-trip broken")
	}
}

func TestSyncAlwaysFsyncsPerAppend(t *testing.T) {
	mem := faultfs.NewMem()
	l, err := Open(mem, ".", 1, 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	l.AppendShard(0, []byte("a"))
	l.AppendShard(0, []byte("b"))
	if st := l.Stats(); st.Fsyncs != 2 {
		t.Fatalf("fsyncs = %d, want 2", st.Fsyncs)
	}
}

func TestAppendShardFaultSticky(t *testing.T) {
	mem := faultfs.NewMem()
	ff := faultfs.NewFaulty(mem, faultfs.FailOnce(faultfs.OpSync, 0, 0))
	l, err := Open(ff, ".", 1, 0, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendShard(0, []byte("x")); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append err = %v", err)
	}
	if err := l.AppendShard(0, []byte("y")); !errors.Is(err, ErrSticky) {
		t.Fatalf("second append err = %v, want sticky", err)
	}
	if err := l.Commit(); !errors.Is(err, ErrSticky) {
		t.Fatalf("commit err = %v, want sticky", err)
	}
}

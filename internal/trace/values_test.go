package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"kat/internal/core"
	"kat/internal/generator"
)

// TestDuplicateValueErrors pins what the value index reports for a value
// written twice on one key: the error text and the sequence number it is
// charged to, whether the two writes share a window, sit in two segments, or
// straddle a checkpoint restore (the first write indexed before the
// checkpoint, or still in the open window the checkpoint lists), and which
// duplicate a window with several is charged with.
func TestDuplicateValueErrors(t *testing.T) {
	const dupOfOne = `core: history: duplicate written value (value 1 written twice on key "a")`
	for _, tc := range []struct {
		name       string
		head, tail string // the tail is fed to a session restored from the head's checkpoint
		errSeq     int
	}{
		{"one window", "w a 1 0 10\nw a 1 5 15\nw a 2 20 30\n", "", 0},
		{"two segments", "w a 1 0 10\nw a 2 20 30\nw a 1 40 50\nw a 3 60 70\n", "", 2},
		{"indexed before a restore", "w a 1 0 10\nw a 2 20 30\n", "w a 1 40 50\nw a 3 60 70\n", 2},
		{"open at a restore", "w a 2 0 10\nw a 1 20 30\n", "w a 1 40 50\nw a 3 60 70\n", 2},
		// A window with more than one duplicate is charged with the first in
		// operation order, not the smallest value.
		{"first of two in one window", "w a 1 0 10\nw a -5 1 11\nw a 1 2 12\nw a -5 3 13\n", "", 0},
		{"first of two earlier values", "w a -5 0 10\nw a 1 20 30\nw a 2 40 50\nw a 1 41 51\nw a -5 42 52\n", "", 2},
		{"in the window before an earlier value", "w a -5 0 10\nw a 1 20 30\nw a 1 21 31\nw a -5 22 32\n", "", 1},
	} {
		sopts := StreamOptions{Workers: 1, MinSegmentOps: 1}
		s := NewSmallestKSession(core.Options{}, sopts)
		if _, err := s.AppendTraceBatch(strings.NewReader(tc.head)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.tail != "" {
			cp, err := s.Checkpoint(nil)
			if err != nil {
				t.Fatalf("%s: checkpoint: %v", tc.name, err)
			}
			s = NewSmallestKSession(core.Options{}, sopts)
			if err := s.RestoreCheckpoint(cp); err != nil {
				t.Fatalf("%s: restore: %v", tc.name, err)
			}
			if _, err := s.AppendTraceBatch(strings.NewReader(tc.tail)); err != nil {
				t.Fatalf("%s: tail: %v", tc.name, err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("%s: flush: %v", tc.name, err)
		}
		cp, err := s.Checkpoint(nil)
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", tc.name, err)
		}
		if len(cp.Keys) != 1 || cp.Keys[0].Err != dupOfOne || cp.Keys[0].ErrSeq != tc.errSeq {
			t.Fatalf("%s: key state %+v, want err %q at seq %d", tc.name, cp.Keys, dupOfOne, tc.errSeq)
		}
	}
}

// TestCheckpointDeterministic checks that a checkpoint is a function of the
// session's state: two checkpoints of one frozen session — live keys with
// value indexes and open windows, retired keys, epoch summaries — marshal to
// the same bytes.
func TestCheckpointDeterministic(t *testing.T) {
	text := churnTraceText(generator.ChurnConfig{Seed: 4, Lifetimes: 60, OpsPerLifetime: 24, NamePool: 16, Gap: 300})
	sopts := lifecycleOpts(500)
	sopts.EpochLength = 400
	s := NewSmallestKSession(core.Options{}, sopts)
	lines := strings.SplitAfter(text, "\n")
	feedChunked(t, s, strings.Join(lines[:len(lines)/2], ""), 11)
	if s.RetiredKeys() == 0 {
		t.Fatal("no key retired: the checkpoint would list no retired records")
	}
	var first []byte
	for i := 0; i < 4; i++ {
		cp, err := s.Checkpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(cp.Keys) < 2 || len(cp.Epochs) < 2 {
			t.Fatalf("checkpoint lists %d keys and %d epochs, want several of each", len(cp.Keys), len(cp.Epochs))
		}
		b, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Fatalf("checkpoint %d of a frozen session differs from the first", i)
		}
	}
}

// TestRestoreRebuildsValueIndex checks a restore against the session it was
// checkpointed from, on a session shaped like the serve-wire-uniform
// benchmark: many keys, each a register of two-way concurrent operations
// with staleness depth 1 writing consecutive values. Checkpoint, restore
// into a fresh session, checkpoint again: the two checkpoints marshal to the
// same bytes, and the restored session's live heap is within 10 % of the
// original's, so the restore gathered the runs of consecutive values the
// closes did rather than one table slot per value.
func TestRestoreRebuildsValueIndex(t *testing.T) {
	const keys, perKey = 1024, 366
	tr := New()
	for i := 0; i < keys; i++ {
		h := generator.KAtomic(generator.Config{Seed: int64(i + 1), Ops: perKey, Concurrency: 2, StalenessDepth: 1})
		for _, op := range h.Ops {
			tr.Add(fmt.Sprintf("key-%04d", i), op)
		}
	}
	text := streamText(tr)
	sopts := StreamOptions{Workers: 1, IngestShards: 4}

	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	checkpoint := func(s *Session) (*SessionCheckpoint, []byte) {
		cp, err := s.Checkpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		return cp, b
	}

	base := heap()
	s := NewSmallestKSession(core.Options{}, sopts)
	if _, err := s.AppendTraceBatch(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	original := heap() - base
	runtime.KeepAlive(text)
	_, first := checkpoint(s)
	runtime.KeepAlive(s)

	// The restored session is built from the decoded bytes, as a restart reads
	// them, so no part of it aliases the original.
	base = heap()
	cp := new(SessionCheckpoint)
	if err := json.Unmarshal(first, cp); err != nil {
		t.Fatal(err)
	}
	r := NewSmallestKSession(core.Options{}, sopts)
	if err := r.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	cp = nil
	restored := heap() - base
	if _, again := checkpoint(r); !bytes.Equal(again, first) {
		t.Fatal("the restored session's checkpoint differs from the original's")
	}
	runtime.KeepAlive(r)
	t.Logf("live heap: original %d B, restored %d B (%+.1f %%)", original, restored, 100*float64(restored-original)/float64(original))
	if d := restored - original; 10*d > original || -10*d > original {
		t.Fatalf("restored session holds %d B of live heap, the original %d B: more than 10 %% apart", restored, original)
	}
}

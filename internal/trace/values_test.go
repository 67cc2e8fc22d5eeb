package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"kat/internal/core"
	"kat/internal/generator"
)

// TestDuplicateValueErrors pins what the value index reports for a value
// written twice on one key: the error text and the sequence number it is
// charged to, whether the two writes share a window, sit in two segments, or
// straddle a checkpoint restore (the first write indexed before the
// checkpoint, or still in the open window the checkpoint lists).
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

package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"testing"

	"kat/internal/core"
	"kat/internal/history"
	"kat/internal/wire"
)

// wireStreamOf encodes ops as a wire stream of frameOps-sized frames
// sharing one key dictionary.
func wireStreamOf(t *testing.T, ops []KeyedOp, frameOps int, compress bool) []byte {
	t.Helper()
	enc := wire.NewEncoder()
	enc.SetCompress(compress)
	var buf []byte
	for i, ko := range ops {
		if err := enc.Add(ko.Key, ko.Op); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if enc.Pending() >= frameOps || i == len(ops)-1 {
			buf = enc.AppendFrame(buf)
		}
	}
	return buf
}

// TestAppendWireMatchesAppendBatch proves binary ingest is
// verdict-equivalent to the pre-parsed batch path for a spread of shard
// counts, frame sizes, and compression settings.
func TestAppendWireMatchesAppendBatch(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		text := genSessionTrace(seed, 5, 80)
		ops := keyedOpsOf(t, text)
		want := smallestKVia(t, StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 1},
			func(s *Session) {
				if _, err := s.AppendBatch(ops); err != nil {
					t.Fatal(err)
				}
			})
		for _, shards := range []int{1, 3, 16} {
			for _, frameOps := range []int{1, 7, 64, len(ops)} {
				for _, compress := range []bool{false, true} {
					stream := wireStreamOf(t, ops, frameOps, compress)
					s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: shards})
					n, err := s.AppendWire(bytes.NewReader(stream))
					if err != nil {
						t.Fatalf("seed %d shards=%d frame=%d compress=%v: %v", seed, shards, frameOps, compress, err)
					}
					if n != int64(len(ops)) {
						t.Fatalf("appended %d of %d", n, len(ops))
					}
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					got, _ := s.SmallestKByKey()
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("seed %d shards=%d frame=%d compress=%v: verdicts %v, want %v",
							seed, shards, frameOps, compress, got, want)
					}
				}
			}
		}
	}
}

// TestAppendWireDecodeErrorNotSticky pins the error contract: frames before
// a malformed one are ingested, the error is a *wire.DecodeError carrying a
// stream offset, and — like a text parse error — it rejects only the
// request, not the session.
func TestAppendWireDecodeErrorNotSticky(t *testing.T) {
	text := genSessionTrace(2, 3, 40)
	ops := keyedOpsOf(t, text)
	half := len(ops) / 2
	good := wireStreamOf(t, ops[:half], 16, false)
	bad := append(bytes.Clone(good), "not a frame"...)

	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 4})
	n, err := s.AppendWire(bytes.NewReader(bad))
	var de *wire.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *wire.DecodeError", err)
	}
	if de.Offset != int64(len(good)) {
		t.Fatalf("decode error offset %d, want %d (start of the garbage)", de.Offset, len(good))
	}
	if n != int64(half) {
		t.Fatalf("appended %d before the bad frame, want %d", n, half)
	}
	// The session is still usable: decode errors are per-request.
	rest := wireStreamOf(t, ops[half:], 16, false)
	if _, err := s.AppendWire(bytes.NewReader(rest)); err != nil {
		t.Fatalf("session poisoned by a decode error: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Ops != int64(len(ops)) {
		t.Fatalf("ops = %d, want %d", st.Ops, len(ops))
	}
}

// TestAppendWireShardLoggerLogsWireFrames checks the durable contract of
// binary ingest: the WAL receives self-contained wire frames (binary in,
// binary logged — no text materialization), and replaying each shard's
// logged bytes through AppendWire into a fresh session with a different
// shard count reproduces the verdicts.
func TestAppendWireShardLoggerLogsWireFrames(t *testing.T) {
	text := genSessionTrace(9, 5, 120)
	ops := keyedOpsOf(t, text)
	base := StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 4}
	want := smallestKOf(t, text, base)

	logger := newCaptureLogger()
	s := NewSmallestKSession(core.Options{}, base)
	s.SetShardLogger(logger)
	stream := wireStreamOf(t, ops, 32, true)
	if _, err := s.AppendWire(bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if logger.commits == 0 {
		t.Fatal("logger never committed")
	}
	got, _ := s.SmallestKByKey()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("logged session verdicts differ: %v vs %v", got, want)
	}

	replay := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 7})
	total := int64(0)
	for shard := 0; shard < s.Shards(); shard++ {
		payload := logger.shards[shard]
		if len(payload) == 0 {
			continue
		}
		if !wire.IsMagic(payload) {
			t.Fatalf("shard %d WAL payload is not wire-framed: %q...", shard, payload[:min(16, len(payload))])
		}
		n, err := replay.AppendWire(bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("replay shard %d: %v", shard, err)
		}
		total += n
	}
	if total != int64(len(ops)) {
		t.Fatalf("replayed %d ops, want %d", total, len(ops))
	}
	if err := replay.Flush(); err != nil {
		t.Fatal(err)
	}
	replayed, _ := replay.SmallestKByKey()
	if fmt.Sprint(replayed) != fmt.Sprint(want) {
		t.Fatalf("replayed verdicts differ: %v vs %v", replayed, want)
	}
}

// TestAppendWireSteadyStateAllocs pins the "skip string materialization"
// claim: once the scratch, decoder arena, and session state are warm, binary
// batches of already-seen keys ingest with zero allocations — the text batch
// path's guarantee, now without even the parse.
func TestAppendWireSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on pool and lock operations")
	}
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, IngestShards: 4, MinSegmentOps: 1 << 30})
	var clock, value int64
	batch := func(n int) []byte {
		enc := wire.NewEncoder()
		enc.SetSelfContained(true)
		for i := 0; i < n; i++ {
			value++
			op := KeyedOp{Key: fmt.Sprintf("key-%d", i%4), Op: history.Operation{
				Kind: history.KindWrite, Value: value, Start: clock, Finish: clock + 10,
			}}
			if err := enc.Add(op.Key, op.Op); err != nil {
				t.Fatal(err)
			}
			clock++
		}
		return enc.AppendFrame(nil)
	}
	if _, err := s.AppendWire(bytes.NewReader(batch(80000))); err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, 25)
	for i := range payloads {
		payloads[i] = batch(256)
	}
	run := 0
	r := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(len(payloads)-1, func() {
		r.Reset(payloads[run])
		run++
		if _, err := s.AppendWire(r); err != nil {
			t.Fatal(err)
		}
	})
	// Keys stay bytes in the decoder's dictionary from the frame to the shard
	// map, so even a fresh stream per call (each batch re-lists its keys)
	// makes no key string.
	if allocs > 0 {
		t.Fatalf("wire hot path allocates %.1f allocs/batch at steady state, want 0", allocs)
	}
}

// walSink is a ShardLogger that keeps only the last record, in one reused
// buffer: a logger that allocates nothing of its own.
type walSink struct{ last []byte }

func (w *walSink) LogShardBatch(_ int, encoded []byte) error {
	w.last = append(w.last[:0], encoded...)
	return nil
}

func (w *walSink) Commit() error { return nil }

// TestAppendWireDurableSteadyStateAllocs is TestAppendWireSteadyStateAllocs
// with a ShardLogger attached, through the wire door, the keyed text door and
// AppendBatch: each shard group's write-ahead record is encoded as the group
// is admitted, naming every key by the dictionary id cached on its keyState,
// so durable ingest allocates nothing through any door, and logs wire frames
// through every one.
func TestAppendWireDurableSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on pool and lock operations")
	}
	// Each door turns a batch into a call that feeds it, built before the
	// measurement so that building it is not counted.
	reader := func(door func(*Session, io.Reader) (int64, error), payload []byte) func(*Session) error {
		r := bytes.NewReader(nil)
		return func(s *Session) error {
			r.Reset(payload)
			_, err := door(s, r)
			return err
		}
	}
	doors := []struct {
		name string
		call func(t *testing.T, ops []KeyedOp) func(*Session) error
	}{
		{"AppendWire", func(t *testing.T, ops []KeyedOp) func(*Session) error {
			frame, err := wire.EncodeSelfContained(nil, ops, false)
			if err != nil {
				t.Fatal(err)
			}
			return reader((*Session).AppendWire, frame)
		}},
		{"AppendTraceBatch", func(_ *testing.T, ops []KeyedOp) func(*Session) error {
			var text []byte
			for _, kop := range ops {
				text = history.AppendOpText(text, kop.Key, kop.Op)
			}
			return reader((*Session).AppendTraceBatch, text)
		}},
		{"AppendBatch", func(_ *testing.T, ops []KeyedOp) func(*Session) error {
			return func(s *Session) error {
				_, err := s.AppendBatch(ops)
				return err
			}
		}},
	}
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, IngestShards: 4, MinSegmentOps: 1 << 30})
			sink := &walSink{}
			s.SetShardLogger(sink)
			var clock, value int64
			batch := func(n int) func(*Session) error {
				ops := make([]KeyedOp, n)
				for i := range ops {
					value++
					ops[i] = KeyedOp{Key: fmt.Sprintf("key-%d", i%6), Op: history.Operation{
						Kind: history.KindWrite, Value: value, Start: clock, Finish: clock + 10, Client: i % 3,
					}}
					clock++
				}
				return door.call(t, ops)
			}
			if err := batch(80000)(s); err != nil {
				t.Fatal(err)
			}
			calls := make([]func(*Session) error, 25)
			for i := range calls {
				calls[i] = batch(256)
			}
			run := 0
			allocs := testing.AllocsPerRun(len(calls)-1, func() {
				if err := calls[run](s); err != nil {
					t.Fatal(err)
				}
				run++
			})
			if allocs > 0 {
				t.Fatalf("durable %s hot path allocates %.1f allocs/batch at steady state, want 0", door.name, allocs)
			}
			if !wire.IsMagic(sink.last) {
				t.Fatalf("last WAL record is not a wire frame: %q", sink.last[:min(16, len(sink.last))])
			}
		})
	}
}

// walRecorder is a ShardLogger that keeps every record in call order, each
// behind its shard and length as uvarints.
type walRecorder struct{ log []byte }

func (w *walRecorder) LogShardBatch(shard int, encoded []byte) error {
	w.log = binary.AppendUvarint(w.log, uint64(shard))
	w.log = binary.AppendUvarint(w.log, uint64(len(encoded)))
	w.log = append(w.log, encoded...)
	return nil
}

func (w *walRecorder) Commit() error { return nil }

// walGoldenInput is a fixed wire input for the write-ahead log golden: two
// streams of frames sharing one dictionary each, compressed and plain frames
// interleaved.
func walGoldenInput(t *testing.T) [][]byte {
	ops := keyedOpsOf(t, genSessionTrace(17, 7, 90))
	var streams [][]byte
	for _, part := range [][]KeyedOp{ops[:len(ops)/3], ops[len(ops)/3:]} {
		enc := wire.NewEncoder()
		var buf []byte
		frames := 0
		for i, ko := range part {
			if err := enc.Add(ko.Key, ko.Op); err != nil {
				t.Fatal(err)
			}
			if enc.Pending() >= 23+i%5 || i == len(part)-1 {
				frames++
				enc.SetCompress(frames%2 == 0)
				buf = enc.AppendFrame(buf)
			}
		}
		streams = append(streams, buf)
	}
	return streams
}

// TestAppendWireWALGolden pins the bytes durable binary ingest logs: a fixed
// multi-frame, multi-shard input, compressed and plain frames alike, must
// write exactly the records in testdata/wire_wal.golden, in the same order.
func TestAppendWireWALGolden(t *testing.T) {
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 5})
	rec := &walRecorder{}
	s.SetShardLogger(rec)
	for _, stream := range walGoldenInput(t) {
		if _, err := s.AppendWire(bytes.NewReader(stream)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/wire_wal.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.log, want) {
		t.Fatalf("WAL records differ from testdata/wire_wal.golden (%d bytes logged, %d pinned)", len(rec.log), len(want))
	}
}

package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"kat/internal/core"
	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/opbuf"
	"kat/internal/wire"
)

// memStore is an in-memory BlobStore for spill tests.
type memStore struct {
	mu    sync.Mutex
	next  uint64
	blobs map[uint64][]byte
	puts  int
	fail  error // when set, Put/Get fail with it
}

func newMemStore() *memStore { return &memStore{blobs: map[uint64][]byte{}} }

func (m *memStore) Put(data []byte) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return 0, m.fail
	}
	m.next++
	m.blobs[m.next] = append([]byte(nil), data...)
	m.puts++
	return m.next, nil
}

func (m *memStore) Get(id uint64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return nil, m.fail
	}
	data, ok := m.blobs[id]
	if !ok {
		return nil, fmt.Errorf("memStore: no blob %d", id)
	}
	return data, nil
}

func (m *memStore) Del(id uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blobs, id)
	return nil
}

func (m *memStore) live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blobs)
}

// parseOpsText decodes a keyed-text payload back into operations, IDs
// renumbered from base. The keys inside the payload are ignored (spill and
// checkpoint blobs are single-key by construction).
func parseOpsText(data []byte, base int) ([]history.Operation, error) {
	var ops []history.Operation
	d := history.TextDecoder{Keyed: true}
	err := d.Scan(data, func(_ []byte, op history.Operation) error {
		op.ID = base + len(ops)
		ops = append(ops, op)
		return nil
	})
	return ops, err
}

// captureLogger is a ShardLogger that accumulates per-shard payloads.
type captureLogger struct {
	mu      sync.Mutex
	shards  map[int][]byte
	commits int
	fail    error
}

func newCaptureLogger() *captureLogger { return &captureLogger{shards: map[int][]byte{}} }

func (c *captureLogger) LogShardBatch(shard int, encoded []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		return c.fail
	}
	c.shards[shard] = append(c.shards[shard], encoded...)
	return nil
}

func (c *captureLogger) Commit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		return c.fail
	}
	c.commits++
	return nil
}

// replay feeds the captured records into a fresh session with sopts through
// Session.Replay, shard by shard as recovery does (replay routes keys by hash
// again, so only per-key, per-shard order matters).
func (c *captureLogger) replay(t *testing.T, nshards int, sopts StreamOptions) *Session {
	t.Helper()
	s := NewSmallestKSession(core.Options{}, sopts)
	for shard := 0; shard < nshards; shard++ {
		if _, err := s.Replay(c.shards[shard]); err != nil {
			t.Fatalf("replay shard %d: %v", shard, err)
		}
	}
	return s
}

// logged decodes every captured record, wire frames and keyed text alike.
func (c *captureLogger) logged(t *testing.T) []KeyedOp {
	t.Helper()
	var out []KeyedOp
	for _, rec := range c.shards {
		if !wire.IsMagic(rec) {
			out = append(out, keyedOpsOf(t, string(rec))...)
			continue
		}
		d := wire.NewDecoder(bytes.NewReader(rec))
		for {
			ops, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("logged wire record: %v", err)
			}
			out = append(out, ops...)
		}
	}
	return out
}

func smallestKOf(t *testing.T, text string, sopts StreamOptions) map[string]int {
	t.Helper()
	s := NewSmallestKSession(core.Options{}, sopts)
	if _, err := s.AppendTraceBatch(strings.NewReader(text)); err != nil {
		t.Fatalf("feed: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	m, _ := s.SmallestKByKey()
	return m
}

// TestShardLoggerReplayEquivalence checks the WAL invariant end to end at
// the session layer: replaying the logged per-shard records through
// Session.Replay into a fresh session with a different shard count
// reproduces the original verdicts, for every ingest door, each of which logs
// wire frames.
func TestShardLoggerReplayEquivalence(t *testing.T) {
	text := genSessionTrace(11, 5, 120)
	base := StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 4}
	want := smallestKOf(t, text, base)

	feed := []struct {
		name string
		run  func(t *testing.T, s *Session)
	}{
		{"Append", func(t *testing.T, s *Session) { feedPerOp(t, s, text) }},
		{"AppendTraceBatch", func(t *testing.T, s *Session) {
			if _, err := s.AppendTraceBatch(strings.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		}},
		{"AppendBatch", func(t *testing.T, s *Session) {
			kops := keyedOpsOf(t, text)
			for len(kops) > 0 {
				n := min(37, len(kops))
				if _, err := s.AppendBatch(kops[:n]); err != nil {
					t.Fatal(err)
				}
				kops = kops[n:]
			}
		}},
		{"AppendWire", func(t *testing.T, s *Session) {
			stream := wireStreamOf(t, keyedOpsOf(t, text), 37, false)
			if _, err := s.AppendWire(bytes.NewReader(stream)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, f := range feed {
		t.Run(f.name, func(t *testing.T) {
			logger := newCaptureLogger()
			s := NewSmallestKSession(core.Options{}, base)
			s.SetShardLogger(logger)
			f.run(t, s)
			if err := s.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			got, _ := s.SmallestKByKey()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("logged session verdicts differ: %v vs %v", got, want)
			}
			if logger.commits == 0 {
				t.Fatal("logger never committed")
			}
			for shard, rec := range logger.shards {
				if !wire.IsMagic(rec) {
					t.Fatalf("shard %d logged %q..., want wire frames", shard, rec[:min(16, len(rec))])
				}
			}
			replay := logger.replay(t, s.Shards(), StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 7})
			if err := replay.Flush(); err != nil {
				t.Fatal(err)
			}
			replayed, _ := replay.SmallestKByKey()
			if fmt.Sprint(replayed) != fmt.Sprint(want) {
				t.Fatalf("replayed verdicts differ: %v vs %v", replayed, want)
			}
		})
	}
}

// TestRejectLogsAcceptedPrefix sends, through every ingest door, a batch in
// which key a's fifth operation starts before a's committed cut, with
// operations of other keys on every side of it and more of a's after it. The
// log must hold exactly what the engine admitted: each shard group's accepted
// prefix, logged on feed's error exit, and never the rejected operation or
// anything after it in its group. Replaying the log must give every key the
// ingesting session's operation count, less the rejected one.
func TestRejectLogsAcceptedPrefix(t *testing.T) {
	w := func(key string, v, start int64) KeyedOp {
		return KeyedOp{Key: key, Op: history.Operation{Kind: history.KindWrite, Value: v, Start: start, Finish: start + 1}}
	}
	var batch []KeyedOp
	for i, key := range []string{"b", "c", "d", "e", "f", "g", "h"} {
		batch = append(batch, w(key, 1, int64(i)), w("a", int64(i+1), int64(10*i)))
	}
	rejected := w("a", 99, 5)
	batch = append(batch[:8], append([]KeyedOp{rejected}, batch[8:]...)...)
	batch = append(batch, w("b", 2, 100), w("h", 2, 100))
	var text strings.Builder
	for _, kop := range batch {
		text.Write(history.AppendOpText(nil, kop.Key, kop.Op))
	}

	doors := []struct {
		name string
		run  func(s *Session) error
	}{
		{"Append", func(s *Session) error {
			var first error
			for _, kop := range batch {
				if err := s.Append(kop.Key, kop.Op); first == nil {
					first = err
				}
			}
			return first
		}},
		{"AppendBatch", func(s *Session) error { _, err := s.AppendBatch(batch); return err }},
		{"AppendTraceBatch", func(s *Session) error {
			_, err := s.AppendTraceBatch(strings.NewReader(text.String()))
			return err
		}},
		{"AppendWire", func(s *Session) error {
			_, err := s.AppendWire(bytes.NewReader(wireStreamOf(t, batch, len(batch), false)))
			return err
		}},
	}
	sopts := StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 3}
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			logger := newCaptureLogger()
			s := NewSmallestKSession(core.Options{}, sopts)
			s.SetShardLogger(logger)
			if err := door.run(s); !errors.Is(err, ErrOutOfOrder) {
				t.Fatalf("err = %v, want ErrOutOfOrder", err)
			}
			for _, kop := range logger.logged(t) {
				if kop.Key == rejected.Key && kop.Op.Value >= rejected.Op.Value {
					t.Fatalf("the log holds %v, which the engine refused", kop)
				}
			}
			replay := logger.replay(t, s.Shards(), sopts)
			want, got := map[string]int{}, map[string]int{}
			for _, kv := range s.Snapshot() {
				want[kv.Key] = kv.Ops
			}
			for _, kv := range replay.Snapshot() {
				got[kv.Key] = kv.Ops
			}
			// The refused operation still counts in its key's Ops, as it does
			// in Stats.Ops (TestReaderDrivenPinned); the log holds the rest.
			want[rejected.Key]--
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("replayed per-key ops %v, ingested %v without the refused one", got, want)
			}
			if want["a"] != 4 {
				t.Fatalf("key a holds %d operations, want the 4 before the refused one", want["a"])
			}
		})
	}
}

// TestDurableRefusesUnloggable sends AppendBatch and Append, with a
// ShardLogger attached, a batch holding one operation a write-ahead record
// cannot carry: a key outside the trace grammar's alphabet, or a kind that is
// neither read nor write. The batch must be refused whole, with an error that
// names the key, and the session must take the batches after it. Replaying
// the log must give back exactly the operations the session admitted.
func TestDurableRefusesUnloggable(t *testing.T) {
	op := func(kind history.Kind, v, start int64) history.Operation {
		return history.Operation{Kind: kind, Value: v, Start: start, Finish: start + 5}
	}
	w, r := history.KindWrite, history.KindRead
	before := []KeyedOp{{Key: "x", Op: op(w, 1, 0)}, {Key: "y", Op: op(w, 1, 0)}}
	after := []KeyedOp{{Key: "x", Op: op(r, 1, 10)}, {Key: "y", Op: op(w, 2, 10)}}
	cases := []struct {
		name string
		bad  KeyedOp
	}{
		{"key with a space", KeyedOp{Key: "a b", Op: op(w, 1, 20)}},
		{"key with a semicolon", KeyedOp{Key: "a;b", Op: op(w, 1, 20)}},
		{"empty key", KeyedOp{Key: "", Op: op(w, 1, 20)}},
		{"neither read nor write", KeyedOp{Key: "z", Op: op(history.Kind(3), 1, 20)}},
	}
	doors := []struct {
		name string
		run  func(s *Session, ops []KeyedOp) error
	}{
		{"AppendBatch", func(s *Session, ops []KeyedOp) error { _, err := s.AppendBatch(ops); return err }},
		{"Append", func(s *Session, ops []KeyedOp) error {
			for _, kop := range ops {
				if err := s.Append(kop.Key, kop.Op); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	sopts := StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 3}
	for _, door := range doors {
		for _, c := range cases {
			t.Run(door.name+"/"+c.name, func(t *testing.T) {
				logger := newCaptureLogger()
				s := NewSmallestKSession(core.Options{}, sopts)
				s.SetShardLogger(logger)
				if err := door.run(s, before); err != nil {
					t.Fatal(err)
				}
				// AppendBatch gets the refused operation among good ones of
				// other keys; for Append a batch is one operation.
				bad := []KeyedOp{c.bad}
				if door.name == "AppendBatch" {
					bad = []KeyedOp{{Key: "v", Op: op(w, 1, 20)}, c.bad, {Key: "x", Op: op(w, 3, 20)}}
				}
				refused := door.run(s, bad)
				if err := door.run(s, after); err != nil {
					t.Fatalf("the session refuses the next batch: %v", err)
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				replay := logger.replay(t, s.Shards(), sopts)
				if err := replay.Flush(); err != nil {
					t.Fatal(err)
				}
				if got, want := replay.Snapshot(), s.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("the log replays to %+v, the session admitted %+v", got, want)
				}
				if refused == nil || !strings.Contains(refused.Error(), fmt.Sprintf("%q", c.bad.Key)) {
					t.Fatalf("err = %v, want a refusal naming key %q", refused, c.bad.Key)
				}
				if st := s.Stats(); st.Ops != int64(len(before)+len(after)) {
					t.Fatalf("the session holds %d operations, want the %d outside the refused batch", st.Ops, len(before)+len(after))
				}
			})
		}
	}
}

// TestDoorsLogIdenticalRecords sends one batch through AppendBatch,
// AppendTraceBatch and AppendWire (one frame): each door feeds each shard
// group once, so each must log the same bytes for every shard — one
// self-contained wire frame per group, whatever codec the batch arrived in.
func TestDoorsLogIdenticalRecords(t *testing.T) {
	ops := keyedOpsOf(t, genSessionTrace(5, 9, 40))
	var text []byte
	for i := range ops {
		ops[i].Op.Weight = int64(1 + i%3)
		ops[i].Op.Client = i%5 - 2
		text = history.AppendOpText(text, ops[i].Key, ops[i].Op)
	}
	frame, err := wire.EncodeSelfContained(nil, ops, true)
	if err != nil {
		t.Fatal(err)
	}
	doors := []struct {
		name string
		run  func(s *Session) (int64, error)
	}{
		{"AppendBatch", func(s *Session) (int64, error) { n, err := s.AppendBatch(ops); return int64(n), err }},
		{"AppendTraceBatch", func(s *Session) (int64, error) { return s.AppendTraceBatch(bytes.NewReader(text)) }},
		{"AppendWire", func(s *Session) (int64, error) { return s.AppendWire(bytes.NewReader(frame)) }},
	}
	sopts := StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 4}
	var want map[int][]byte
	for _, door := range doors {
		logger := newCaptureLogger()
		s := NewSmallestKSession(core.Options{}, sopts)
		s.SetShardLogger(logger)
		if n, err := door.run(s); err != nil || n != int64(len(ops)) {
			t.Fatalf("%s: %d of %d operations, %v", door.name, n, len(ops), err)
		}
		if len(logger.shards) != sopts.IngestShards {
			t.Fatalf("%s logged %d shards, want %d", door.name, len(logger.shards), sopts.IngestShards)
		}
		for shard, rec := range logger.shards {
			if !wire.IsMagic(rec) {
				t.Fatalf("%s: shard %d logged %q..., want a wire frame", door.name, shard, rec[:min(16, len(rec))])
			}
		}
		if want == nil {
			want = logger.shards
			continue
		}
		for shard, rec := range logger.shards {
			if !bytes.Equal(rec, want[shard]) {
				t.Fatalf("%s logged shard %d as %q\n%s logged %q", door.name, shard, rec, doors[0].name, want[shard])
			}
		}
	}
}

// orderedLog is a ShardLogger that keeps every record in log order and
// yields after each, so concurrent producers' calls overlap and their pooled
// scratches trade places.
type orderedLog struct {
	mu   sync.Mutex
	recs [][]byte
}

func (l *orderedLog) LogShardBatch(_ int, encoded []byte) error {
	l.mu.Lock()
	l.recs = append(l.recs, bytes.Clone(encoded))
	l.mu.Unlock()
	runtime.Gosched()
	return nil
}

func (l *orderedLog) Commit() error { return nil }

// TestRecordsStandAlone drives two concurrent producers, on disjoint keys that
// share shards, through the wire, text and AppendBatch doors in turn, so each
// key shows up in many consecutive shard groups, encoded by whichever scratch
// the pool hands out — a fresh one numbers its groups from the start again. A
// key's id cached for one group must never name it in another: every record
// decodes alone, and replaying the records in log order rebuilds the live
// session's verdicts.
func TestRecordsStandAlone(t *testing.T) {
	const batchOps = 12
	var producers [2][]func(s *Session) error
	for p := range producers {
		ops := keyedOpsOf(t, genSessionTrace(int64(31+p), 6, 150))
		for i := range ops {
			ops[i].Key = fmt.Sprintf("p%d-%s", p, ops[i].Key)
		}
		for b := 0; len(ops) > 0; b++ {
			batch := ops[:min(batchOps, len(ops))]
			ops = ops[len(batch):]
			var call func(s *Session) error
			switch (b + p) % 3 {
			case 0:
				frame, err := wire.EncodeSelfContained(nil, batch, b%2 == 0)
				if err != nil {
					t.Fatal(err)
				}
				call = func(s *Session) error { _, err := s.AppendWire(bytes.NewReader(frame)); return err }
			case 1:
				var text []byte
				for _, kop := range batch {
					text = history.AppendOpText(text, kop.Key, kop.Op)
				}
				call = func(s *Session) error { _, err := s.AppendTraceBatch(bytes.NewReader(text)); return err }
			default:
				call = func(s *Session) error { _, err := s.AppendBatch(batch); return err }
			}
			producers[p] = append(producers[p], call)
		}
	}
	for shards := 2; shards <= 4; shards++ {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sopts := StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: shards}
			log := &orderedLog{}
			live := NewSmallestKSession(core.Options{}, sopts)
			live.SetShardLogger(log)
			var wg sync.WaitGroup
			errs := make([]error, len(producers))
			for p, calls := range producers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, call := range calls {
						// Two collections empty the scratch pool: the call
						// encodes with a fresh scratch or with one the other
						// producer just put back.
						runtime.GC()
						runtime.GC()
						if errs[p] = call(live); errs[p] != nil {
							return
						}
					}
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			replay := NewSmallestKSession(core.Options{}, sopts)
			for i, rec := range log.recs {
				d := wire.NewDecoder(bytes.NewReader(rec))
				if _, err := d.NextFrame(); err != nil {
					t.Fatalf("record %d of %d does not decode alone: %v", i, len(log.recs), err)
				}
				if _, err := d.NextFrame(); err != io.EOF {
					t.Fatalf("record %d holds more than one frame: %v", i, err)
				}
				if _, err := replay.Replay(rec); err != nil {
					t.Fatalf("replay record %d: %v", i, err)
				}
			}
			for _, s := range []*Session{live, replay} {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := replay.Snapshot(), live.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed verdicts differ from the live session's:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestReplayNeverRetires replays a retiring session's log the way recovery
// does — shard 0's payloads first, then shard 1's, ... — through
// Session.Replay, with a TTL far smaller than the trace span: after shard 0
// the watermark stands at the end of the trace, and a sweep believing it
// would retire every key of the later shards under its own overlapping next
// operation. Replay must not sweep, and the replayed session, swept once at
// the end, must equal the arrival-order run.
func TestReplayNeverRetires(t *testing.T) {
	// Staggered lifetimes of linked, overlapping writes: a key never
	// quiesces while it lives, and lives ~360 of the trace's ~2200 units.
	text := churnTraceText(generator.ChurnConfig{Seed: 1, Lifetimes: 40, OpsPerLifetime: 20, NoQuiesce: true})
	sopts := lifecycleOpts(100)
	logger := newCaptureLogger()
	live := NewSmallestKSession(core.Options{}, sopts)
	live.SetShardLogger(logger)
	feedChunked(t, live, text, 16)
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := live.Stats(); st.Retirements == 0 {
		t.Fatal("the arrival-order run retired nothing: the TTL is not exercising the lifecycle")
	}

	s := NewSmallestKSession(core.Options{}, sopts)
	for shard := 0; shard < live.Shards(); shard++ {
		if _, err := s.Replay(logger.shards[shard]); err != nil {
			t.Fatalf("replay shard %d: %v", shard, err)
		}
	}
	if st := s.Stats(); st.Retirements != 0 {
		t.Fatalf("replay retired %d keys; the watermark is no evidence inside a replay", st.Retirements)
	}
	if err := s.RetireIdle(0); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Retirements == 0 {
		t.Fatal("the sweep that ends a replay retired nothing")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	compareSnapshots(t, "replayed", live.Snapshot(), s.Snapshot())
}

func TestShardLoggerErrorSticky(t *testing.T) {
	logger := newCaptureLogger()
	logger.fail = errors.New("disk on fire")
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, IngestShards: 2})
	s.SetShardLogger(logger)
	err := s.Append("a", history.Operation{Kind: history.KindWrite, Value: 1, Start: 0, Finish: 1})
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("append err = %v, want logger failure", err)
	}
	if err := s.Append("a", history.Operation{Kind: history.KindWrite, Value: 2, Start: 2, Finish: 3}); err == nil {
		t.Fatal("sticky error did not gate later appends")
	}
}

// TestCheckpointRestoreEquivalence cuts a trace at several points, snapshots
// the session mid-stream, restores into a fresh session (same and different
// shard counts), feeds the remainder, and requires verdicts identical to an
// uninterrupted run.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		text := genSessionTrace(seed, 4, 100)
		lines := strings.SplitAfter(text, "\n")
		base := StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 4}
		want := smallestKOf(t, text, base)
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			cut := int(float64(len(lines)) * frac)
			head, tail := strings.Join(lines[:cut], ""), strings.Join(lines[cut:], "")

			s1 := NewSmallestKSession(core.Options{}, base)
			if _, err := s1.AppendTraceBatch(strings.NewReader(head)); err != nil {
				t.Fatalf("seed %d cut %v: head: %v", seed, frac, err)
			}
			froze := false
			cp, err := s1.Checkpoint(func() error { froze = true; return nil })
			if err != nil {
				t.Fatalf("seed %d cut %v: checkpoint: %v", seed, frac, err)
			}
			if !froze {
				t.Fatal("frozen callback did not run")
			}
			// s1 keeps running after the checkpoint — snapshotting must not
			// disturb it.
			if _, err := s1.AppendTraceBatch(strings.NewReader(tail)); err != nil {
				t.Fatalf("seed %d cut %v: s1 tail: %v", seed, frac, err)
			}
			if err := s1.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, _ := s1.SmallestKByKey(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d cut %v: checkpointed session drifted: %v vs %v", seed, frac, got, want)
			}

			for _, shards := range []int{4, 9} {
				s2 := NewSmallestKSession(core.Options{},
					StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: shards})
				if err := s2.RestoreCheckpoint(cp); err != nil {
					t.Fatalf("seed %d cut %v shards %d: restore: %v", seed, frac, shards, err)
				}
				if _, err := s2.AppendTraceBatch(strings.NewReader(tail)); err != nil {
					t.Fatalf("seed %d cut %v shards %d: tail: %v", seed, frac, shards, err)
				}
				if err := s2.Flush(); err != nil {
					t.Fatal(err)
				}
				got, _ := s2.SmallestKByKey()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d cut %v shards %d: restored verdicts differ: %v vs %v",
						seed, frac, shards, got, want)
				}
			}
		}
	}
}

func TestCheckpointRestoreGuards(t *testing.T) {
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1})
	cp, err := s.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	chk, _ := NewCheckSession(2, core.Options{}, StreamOptions{Workers: 1})
	if err := chk.RestoreCheckpoint(cp); err == nil {
		t.Fatal("mode mismatch accepted")
	}
	other := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, Horizon: cp.Threshold + 1})
	if err := other.RestoreCheckpoint(cp); err == nil {
		t.Fatal("horizon mismatch accepted")
	}
	used := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1})
	used.Append("x", history.Operation{Kind: history.KindWrite, Value: 1, Start: 0, Finish: 1})
	if err := used.RestoreCheckpoint(cp); err == nil {
		t.Fatal("restore onto a used session accepted")
	}
	// A value index entry must name a segment of its key, the open one at most.
	for _, seq := range []int64{-1, 2} {
		bad := &SessionCheckpoint{Mode: cp.Mode, Threshold: cp.Threshold,
			Keys: []KeyState{{Key: "x", Seq: 1, Values: [][2]int64{{7, 0}, {8, seq}}}}}
		if err := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1}).RestoreCheckpoint(bad); err == nil {
			t.Fatalf("value index naming segment %d of a key at seq 1 accepted", seq)
		}
	}
}

func TestCheckpointOfFlushedSession(t *testing.T) {
	text := genSessionTrace(3, 3, 60)
	base := StreamOptions{Workers: 2, MinSegmentOps: 1}
	want := smallestKOf(t, text, base)

	s := NewSmallestKSession(core.Options{}, base)
	if _, err := s.AppendTraceBatch(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Flushed {
		t.Fatal("checkpoint of flushed session not marked Flushed")
	}
	s2 := NewSmallestKSession(core.Options{}, base)
	if err := s2.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if !s2.Flushed() {
		t.Fatal("restored session not flushed")
	}
	if err := s2.Append("x", history.Operation{Kind: history.KindWrite, Value: 1, Start: 0, Finish: 1}); !errors.Is(err, ErrSessionFlushed) {
		t.Fatalf("append on restored-flushed session: %v", err)
	}
	got, _ := s2.SmallestKByKey()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restored final verdicts differ: %v vs %v", got, want)
	}
}

// feedRelieving feeds text to s n lines at a time and relieves s down to
// nothing after each piece, so with a store every held run spills between
// feeds.
func feedRelieving(t *testing.T, s *Session, text string, n int) {
	t.Helper()
	lines := strings.SplitAfter(text, "\n")
	for i := 0; i < len(lines); i += n {
		if _, err := s.AppendTraceBatch(strings.NewReader(strings.Join(lines[i:min(i+n, len(lines))], ""))); err != nil {
			t.Fatal(err)
		}
		if err := s.Relieve(0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpillEquivalence runs the same traces with and without spill-to-disk,
// relieving every held run to the store after every four lines, and requires
// identical verdicts, real spill traffic, and an empty store at the end.
func TestSpillEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		text := genSessionTrace(seed, 4, 150)
		base := StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 2}
		want := smallestKOf(t, text, base)

		store := newMemStore()
		sopts := base
		sopts.Store = store
		s := NewSmallestKSession(core.Options{}, sopts)
		feedRelieving(t, s, text, 4)
		if err := s.Flush(); err != nil {
			t.Fatalf("seed %d: flush: %v", seed, err)
		}
		got, stats := s.SmallestKByKey()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: spilled verdicts differ: %v vs %v", seed, got, want)
		}
		if stats.Spills == 0 || stats.OpsSpilled == 0 {
			t.Fatalf("seed %d: no spill traffic (stats %+v)", seed, stats)
		}
		if s.SpilledOps() != 0 {
			t.Fatalf("seed %d: %d ops still on disk after flush", seed, s.SpilledOps())
		}
		if store.live() != 0 {
			t.Fatalf("seed %d: %d blobs leaked", seed, store.live())
		}
	}
}

// TestSpillBoundsOpenWindow feeds one never-quiescing window, relieving the
// session between feeds of eight operations, and checks that relief bounds
// the in-memory tail to one feed while the full window lands on disk.
func TestSpillBoundsOpenWindow(t *testing.T) {
	store := newMemStore()
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, IngestShards: 1, Store: store})
	const n = 200
	for i := 0; i < n; i++ {
		// Overlapping intervals: no quiescent instant, the window never cuts.
		op := history.Operation{Kind: history.KindWrite, Value: int64(i + 1),
			Start: int64(2 * i), Finish: int64(2*i + 3)}
		if err := s.Append("hot", op); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			if err := s.Relieve(0); err != nil {
				t.Fatal(err)
			}
		}
		if buf := s.BufferedOps(); buf > 8 {
			t.Fatalf("after operation %d: %d operations in memory, want at most one feed of 8", i, buf)
		}
	}
	if disk := s.SpilledOps(); disk < n/2 {
		t.Fatalf("on disk = %d, want most of %d", disk, n)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _ := s.SmallestKByKey()
	if got["hot"] != 1 {
		t.Fatalf("hot key k = %d, want 1", got["hot"])
	}
	if store.live() != 0 {
		t.Fatalf("%d blobs leaked", store.live())
	}
}

// TestSpillWithCheckpoint exercises both features together: a mid-stream
// checkpoint with spilled state inlines the spilled ops and restores cleanly.
func TestSpillWithCheckpoint(t *testing.T) {
	text := genSessionTrace(7, 3, 120)
	base := StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 2}
	want := smallestKOf(t, text, base)

	lines := strings.SplitAfter(text, "\n")
	cut := len(lines) / 2
	head, tail := strings.Join(lines[:cut], ""), strings.Join(lines[cut:], "")

	store := newMemStore()
	sopts := base
	sopts.Store = store
	s := NewSmallestKSession(core.Options{}, sopts)
	feedRelieving(t, s, head, 4)
	if s.SpilledOps() == 0 {
		t.Fatal("nothing spilled before the checkpoint")
	}
	cp, err := s.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Restore into a spill-less session: checkpoints inline spilled ops, so
	// the restored session does not need the original store.
	s2 := NewSmallestKSession(core.Options{}, base)
	if err := s2.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.AppendTraceBatch(strings.NewReader(tail)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _ := s2.SmallestKByKey()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restored-from-spilled verdicts differ: %v vs %v", got, want)
	}
}

func TestSpillErrorPoisonsSession(t *testing.T) {
	store := newMemStore()
	s := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, IngestShards: 1, Store: store})
	store.fail = errors.New("spill device gone")
	for i := 0; i < 20; i++ {
		op := history.Operation{Kind: history.KindWrite, Value: int64(i + 1),
			Start: int64(2 * i), Finish: int64(2*i + 3)}
		if err := s.Append("hot", op); err != nil {
			t.Fatal(err)
		}
	}
	if sawErr := s.Relieve(0); sawErr == nil || !strings.Contains(sawErr.Error(), "spill device gone") {
		t.Fatalf("spill failure not surfaced: %v", sawErr)
	}
	if err := s.Append("hot", history.Operation{Kind: history.KindWrite, Value: 99, Start: 100, Finish: 101}); err == nil {
		t.Fatal("session not sticky after spill failure")
	}
}

// TestSpillFailedFlushPopsDispatched fails the reload of a spilled segment
// halfway through a retirement flush. The resident segment before it has
// already gone to a worker, which frees its chunks, so it must have left the
// deque: a checkpoint listing it again would decode freed chunks, and a
// restore would verify it a second time.
func TestSpillFailedFlushPopsDispatched(t *testing.T) {
	store := newMemStore()
	s := NewSmallestKSession(core.Options{}, StreamOptions{
		Workers: 1, IngestShards: 1, MinSegmentOps: 1, Horizon: 1000, Store: store,
	})
	// k holds a resident segment (w 1), a two-chunk segment of 80 overlapping
	// writes and an open window (w 100), a chunk each: relief to half of it
	// spills the largest, the middle segment.
	var b strings.Builder
	b.WriteString("w k 1 0 1\n")
	for i := 0; i < 80; i++ {
		fmt.Fprintf(&b, "w k %d %d %d\n", i+2, 10+i, 15+i)
	}
	b.WriteString("w k 100 200 201\n")
	if _, err := s.AppendTraceBatch(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	if got := s.BufferedBytes(); got != 4*opbuf.ChunkBytes {
		t.Fatalf("%d bytes buffered, want the three runs' four chunks", got)
	}
	if err := s.Relieve(2 * opbuf.ChunkBytes); err != nil {
		t.Fatal(err)
	}
	if store.live() != 1 || s.SpilledOps() != 80 {
		t.Fatalf("%d blobs, %d operations in the store; want the one spilled segment", store.live(), s.SpilledOps())
	}
	// z moves the watermark past all of k.
	if _, err := s.AppendTraceBatch(strings.NewReader("w z 1 1000 1001\n")); err != nil {
		t.Fatal(err)
	}
	store.fail = errors.New("spill device gone")
	if err := s.RetireIdle(1); err == nil {
		t.Fatal("the retirement flush read a spilled segment from a failing store")
	}
	store.fail = nil
	cp, err := s.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ks := range cp.Keys {
		for _, seg := range ks.Deque {
			if seg.HiSeq <= ks.DispatchedThrough {
				t.Errorf("checkpoint holds segment %d..%d already dispatched (through %d)", seg.LoSeq, seg.HiSeq, ks.DispatchedThrough)
			}
		}
	}
}

// TestSpillCheckpointEqualsResident freezes the same input with and without a
// spill store, relieved after every feed. With one, a never-quiescing key's
// open window is ten blobs and another key's held segments and open window
// are on disk too; the checkpoint must read every form back to the document
// the resident session writes.
func TestSpillCheckpointEqualsResident(t *testing.T) {
	var feeds []string
	for i := 0; i < 40; i += 4 { // chain-overlapping: the window never cuts
		var b strings.Builder
		for j := i; j < i+4; j++ {
			fmt.Fprintf(&b, "w hot %d %d %d\n", j+1, 2*j, 2*j+3)
		}
		feeds = append(feeds, b.String())
	}
	for j := 0; j < 6; j++ { // six 5-operation windows, held under the horizon
		v, at := int64(3*j), int64(100*j)
		// Relief after every feed but the last spills the segment a window's
		// first operation closed and the window so far: only the last
		// window's fifth operation stays in memory.
		feeds = append(feeds, fmt.Sprintf("w cold %d %d %d\nw cold %d %d %d\nr cold %d %d %d\nw cold %d %d %d\n",
			v+1, at, at+3, v+2, at+2, at+5, v+1, at+4, at+7, v+3, at+6, at+9),
			fmt.Sprintf("r cold %d %d %d\n", v+3, at+8, at+11))
	}
	doc := func(sopts StreamOptions) ([]byte, *Session) {
		t.Helper()
		s := NewSmallestKSession(core.Options{}, sopts)
		for i, feed := range feeds {
			if _, err := s.AppendTraceBatch(strings.NewReader(feed)); err != nil {
				t.Fatal(err)
			}
			if i == len(feeds)-1 {
				break
			}
			if err := s.Relieve(0); err != nil {
				t.Fatal(err)
			}
		}
		cp, err := s.Checkpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Both lists come from map order; the carried stats count the spill
		// traffic and the buffered peak it lowers.
		sort.Slice(cp.Keys, func(i, j int) bool { return cp.Keys[i].Key < cp.Keys[j].Key })
		for _, ks := range cp.Keys {
			sort.Slice(ks.Values, func(i, j int) bool { return ks.Values[i][0] < ks.Values[j][0] })
		}
		cp.Stats = CarriedStats{}
		out, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		return out, s
	}
	base := StreamOptions{Workers: 2, IngestShards: 2, MinSegmentOps: 1, Horizon: 1000}
	want, _ := doc(base)
	spilling := base
	spilling.Store = newMemStore()
	got, s := doc(spilling)
	// hot's 40 operations, cold's five segments of five and four of its open
	// window's five.
	if disk := s.SpilledOps(); disk != 40+25+4 {
		t.Fatalf("%d operations on disk at the freeze, want 69", disk)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("spilled checkpoint differs from the resident one:\n got %s\nwant %s", got, want)
	}
}

// TestOlderCheckpointOpenWindowRestores pins the checkpoint format across the
// move of the value index from append to close. The literal below was written
// by a build that indexed every write as it arrived, so `values` lists the
// open windows' writes under the open seq (a: 3 at seq 4; b: 2 and 3 at seq
// 1). The running build must write the same document for the same input, and
// restoring it must not take those pairs into the index — the windows' own
// close would then read each as a second write of its value.
func TestOlderCheckpointOpenWindowRestores(t *testing.T) {
	const head = "w a 1 0 5\nr a 1 10 15\nw a 2 100 105\nr a 1 110 115\nw a 3 200 205\nr a 2 203 215\n" +
		"w b 1 0 10\nw b 2 20 30\nw b 3 25 35\n"
	const tail = "w a 4 300 305\nr b 3 40 50\n" // one more quiescent operation per key
	const older = `{"mode":"smallestk","properties":"k","threshold":2,"stats":{"merges":3},"keys":[
		{"key":"a","seq":4,"ops":6,"open":"w a 3 200 205\nr a 2 203 215\n","openMaxFinish":215,"maxClosedFinish":115,"closedAny":true,
		 "deque":[{"lo":0,"hi":3,"writes":2,"cutAt":115,"ops":"w a 1 0 5\nr a 1 10 15\nw a 2 100 105\nr a 1 110 115\n"}],"dispatched":-1,
		 "values":[[1,0],[2,2],[3,4]],"cumWrites":[1,1,2,2],"cumMaxFinish":[5,15,105,115],"totalClosed":2,"atomic":true},
		{"key":"b","seq":1,"ops":3,"open":"w b 2 20 30\nw b 3 25 35\n","openMaxFinish":35,"maxClosedFinish":10,"closedAny":true,
		 "deque":[{"lo":0,"hi":0,"writes":1,"cutAt":10,"ops":"w b 1 0 10\n"}],"dispatched":-1,
		 "values":[[1,0],[2,1],[3,1]],"cumWrites":[1],"cumMaxFinish":[10],"totalClosed":1,"atomic":true}],"watermark":203}`
	sopts := StreamOptions{Workers: 1, MinSegmentOps: 1, Horizon: 2, IngestShards: 2}
	feed := func(s *Session, text string) {
		t.Helper()
		if _, err := s.AppendTraceBatch(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}
	asValue := func(doc []byte) (v any) {
		t.Helper()
		if err := json.Unmarshal(doc, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	s := NewSmallestKSession(core.Options{}, sopts)
	feed(s, head)
	cp, err := s.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(cp.Keys, func(i, j int) bool { return cp.Keys[i].Key < cp.Keys[j].Key })
	for _, ks := range cp.Keys {
		sort.Slice(ks.Values, func(i, j int) bool { return ks.Values[i][0] < ks.Values[j][0] })
	}
	cp.Stats.PeakBufferedOps, cp.Stats.FirstVerdictOps = 0, 0
	doc, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asValue(doc), asValue([]byte(older))) {
		t.Errorf("checkpoint of the same input changed:\n got %s\nwant %s", doc, older)
	}
	// Listing the open writes must leave the live index as it was.
	feed(s, tail)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := s.Snapshot()

	var restored SessionCheckpoint
	if err := json.Unmarshal([]byte(older), &restored); err != nil {
		t.Fatal(err)
	}
	r := NewSmallestKSession(core.Options{}, sopts)
	if err := r.RestoreCheckpoint(&restored); err != nil {
		t.Fatal(err)
	}
	feed(r, tail)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	got := r.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("restored %d keys, want %d", len(got), len(want))
	}
	for i, g := range got {
		if w := want[i]; g.Err != nil || w.Err != nil || g.Key != w.Key || g.Ops != w.Ops || g.Verdict != w.Verdict {
			t.Errorf("restored run diverges from the uninterrupted one:\n got %+v\nwant %+v", g, w)
		}
	}
}

// TestCheckpointAcrossChunks freezes a session whose state is spread over the
// packed store every way it can be — an open window of several chunks, a held
// segment of several, and a held segment two windows were spliced into, whose
// first window's half-filled last chunk sits in the middle of the list — and
// holds the restored session's continued run (which splices once more, across
// the restore) to the uninterrupted one. With a spill store the same windows
// are on disk, relieved every 64 lines, when the checkpoint reads them.
func TestCheckpointAcrossChunks(t *testing.T) {
	// Write/read pairs of one key, every operation quiescent, values and
	// times wide enough that a record takes at least nine bytes. back, when
	// not zero, replaces the value of the window's tenth read: a read that
	// reaches into an earlier window.
	const window = 150
	var clock, value int64 = 1 << 30, 1 << 40
	ops := func(n int, back int64) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				value++
				fmt.Fprintf(&b, "w k %d %d %d weight=%d\n", value, clock, clock+5, 2+i%3)
			} else if v := value; i == 19 && back != 0 {
				fmt.Fprintf(&b, "r k %d %d %d\n", back, clock, clock+5)
			} else {
				fmt.Fprintf(&b, "r k %d %d %d client=%d\n", v, clock, clock+5, i%4-5)
			}
			clock += 10
		}
		return b.String()
	}
	first := value + 1
	head := ops(window, 0) + ops(window, first) + ops(window, 0) + ops(100, 0)
	tail := ops(50, first+2) + ops(window+30, 0)

	for _, tc := range []struct {
		name  string
		spill bool
	}{{"memory", false}, {"spill", true}} {
		t.Run(tc.name, func(t *testing.T) {
			sopts := func() StreamOptions {
				o := StreamOptions{Workers: 1, MinSegmentOps: window, IngestShards: 2, Properties: PropertySetAll}
				if tc.spill {
					o.Store = newMemStore()
				}
				return o
			}
			feed := func(s *Session, text string) {
				t.Helper()
				if _, err := s.AppendTraceBatch(strings.NewReader(text)); err != nil {
					t.Fatal(err)
				}
			}
			s := NewSmallestKSession(core.Options{}, sopts())
			feedRelieving(t, s, head, 64)
			cp, err := s.Checkpoint(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(cp.Keys) != 1 || strings.Count(cp.Keys[0].Open, "\n") != 100 || len(cp.Keys[0].Deque) != 2 ||
				cp.Keys[0].Deque[0].LoSeq != 0 || cp.Keys[0].Deque[0].HiSeq != 1 ||
				strings.Count(cp.Keys[0].Deque[0].Ops, "\n") != 2*window || strings.Count(cp.Keys[0].Deque[1].Ops, "\n") != window {
				t.Fatalf("checkpoint is not the spliced segment, the plain one and the open window: %+v", cp.Keys)
			}
			if got := cp.Keys[0].Deque[0].Ops + cp.Keys[0].Deque[1].Ops + cp.Keys[0].Open; got != head {
				t.Errorf("checkpoint text (%d bytes) is not the input (%d bytes) in order", len(got), len(head))
			}
			if !tc.spill {
				// Nine bytes a record and more: the 100-operation window is
				// four chunks at least, the segments six.
				if ops, bytes := s.BufferedOps(), s.BufferedBytes(); ops != 3*window+100 || bytes < 9*ops {
					t.Errorf("%d operations buffered in %d bytes", ops, bytes)
				}
			} else if s.SpilledOps() == 0 {
				t.Error("nothing spilled")
			}
			feed(s, tail)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			want := s.Snapshot()
			if st := s.Stats(); st.Merges != 3 || want[0].Ops != 4*window+180 || want[0].Err != nil {
				t.Fatalf("uninterrupted run: %d merges, %+v", st.Merges, want)
			}

			// Through JSON, as the checkpoint file holds it.
			doc, err := json.Marshal(cp)
			if err != nil {
				t.Fatal(err)
			}
			var loaded SessionCheckpoint
			if err := json.Unmarshal(doc, &loaded); err != nil {
				t.Fatal(err)
			}
			r := NewSmallestKSession(core.Options{}, sopts())
			if err := r.RestoreCheckpoint(&loaded); err != nil {
				t.Fatal(err)
			}
			feed(r, tail)
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("restored run diverges from the uninterrupted one:\n got %+v\nwant %+v", got, want)
			}
			if st := r.Stats(); st.Merges != 3 || r.BufferedOps() != 0 || r.BufferedBytes() != 0 {
				t.Errorf("restored run: %d merges, %d operations and %d bytes still buffered", st.Merges, r.BufferedOps(), r.BufferedBytes())
			}
		})
	}
}

// TestPersistedTextPinned pins what a data directory holds, byte for byte.
// The text literals were read off the disk of a kavserve built at commit
// 802faec (`-data-dir d -ingest-shards 1 -min-segment-ops 1
// -spill-threshold-ops 2`, fed the seven lines below in one request, killed):
// the body of the write-ahead record, the three spill blobs, and the `open` /
// `ops` strings of the checkpoint. Relief after each of the first three pairs
// spills the same runs that threshold did. The write-ahead log has since
// become wire frames: walFrames pins what the same input logs now, one
// self-contained frame per AppendBatch call, and walText stays as a record
// that Replay must still read. The running build must write the same bytes
// for the same input and read them back to the same operations.
func TestPersistedTextPinned(t *testing.T) {
	const walText = "w acct:7 1 0 10 weight=2 client=3\nr acct:7 1 5 20 client=-4\n" +
		"w acct:7 2 30 40\nr acct:7 2 35 50 client=9\n" +
		"w acct:7 3 60 70\nw acct:7 4 65 80 weight=5\nr acct:7 4 75 90\n"
	// Each frame: magic, version 1, the dict-reset flag, the payload length;
	// one key, the operation count and the operations; CRC-32C.
	walFrames := []string{
		"KAVW\x01\x02\x14" + "\x01\x06acct:7\x02" + "\x03\x02\x00\x14\x02\x06" + "\x05\x02\x0a\x1e\x07" + "\xbf\x6d\x69\x59",
		"KAVW\x01\x02\x12" + "\x01\x06acct:7\x02" + "\x00\x04\x3c\x14" + "\x05\x04\x0a\x1e\x12" + "\xe7\x17\x00\x03",
		"KAVW\x01\x02\x12" + "\x01\x06acct:7\x02" + "\x00\x06\x78\x14" + "\x02\x08\x0a\x1e\x05" + "\xd7\xd0\xab\xaf",
		"KAVW\x01\x02\x0e" + "\x01\x06acct:7\x01" + "\x04\x08\x96\x01\x1e" + "\x99\x4b\x2a\xe1",
	}
	walRecord := strings.Join(walFrames, "")
	spillBlobs := []string{
		"w acct:7 1 0 10 weight=2 client=3\nr acct:7 1 5 20 client=-4\n",
		"w acct:7 2 30 40\nr acct:7 2 35 50 client=9\n",
		"w acct:7 3 60 70\nw acct:7 4 65 80 weight=5\n",
	}
	const ckptOpen = "w acct:7 3 60 70\nw acct:7 4 65 80 weight=5\nr acct:7 4 75 90\n"
	ckptOps := []string{
		"w acct:7 1 0 10 weight=2 client=3\nr acct:7 1 5 20 client=-4\n",
		"w acct:7 2 30 40\nr acct:7 2 35 50 client=9\n",
	}
	w, r := history.KindWrite, history.KindRead
	ops := []history.Operation{
		{Kind: w, Value: 1, Start: 0, Finish: 10, Weight: 2, Client: 3},
		{Kind: r, Value: 1, Start: 5, Finish: 20, Client: -4},
		{Kind: w, Value: 2, Start: 30, Finish: 40},
		{Kind: r, Value: 2, Start: 35, Finish: 50, Client: 9},
		{Kind: w, Value: 3, Start: 60, Finish: 70},
		{Kind: w, Value: 4, Start: 65, Finish: 80, Weight: 5},
		{Kind: r, Value: 4, Start: 75, Finish: 90},
	}

	// Encode: the same input writes the same record, blobs and checkpoint.
	store, logger := newMemStore(), newCaptureLogger()
	sopts := StreamOptions{Workers: 1, IngestShards: 1, MinSegmentOps: 1, Store: store}
	s := NewSmallestKSession(core.Options{}, sopts)
	s.SetShardLogger(logger)
	batch := make([]KeyedOp, len(ops))
	for i, op := range ops {
		batch[i] = KeyedOp{Key: "acct:7", Op: op}
	}
	for i := 0; i < len(batch); i += 2 {
		if _, err := s.AppendBatch(batch[i:min(i+2, len(batch))]); err != nil {
			t.Fatal(err)
		}
		if i+2 < len(batch) {
			if err := s.Relieve(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := string(logger.shards[0]); got != walRecord {
		t.Errorf("write-ahead record:\n got %q\nwant %q", got, walRecord)
	}
	var logged []history.Operation
	d := wire.NewDecoder(strings.NewReader(walRecord))
	for {
		frame, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decoding the write-ahead record: %v", err)
		}
		for _, kop := range frame {
			if kop.Key != "acct:7" {
				t.Fatalf("the write-ahead record names key %q", kop.Key)
			}
			kop.Op.ID = len(logged)
			logged = append(logged, kop.Op)
		}
	}
	if len(logged) != len(ops) {
		t.Fatalf("the write-ahead record decodes to %d operations, want %d", len(logged), len(ops))
	}
	for i, op := range logged {
		want := ops[i]
		want.ID = i
		if op != want {
			t.Errorf("write-ahead record: operation %d = %+v, want %+v", i, op, want)
		}
	}
	var blobs []string
	for _, b := range store.blobs {
		blobs = append(blobs, string(b))
	}
	sort.Strings(blobs)
	if !reflect.DeepEqual(blobs, spillBlobs) {
		t.Errorf("spill blobs:\n got %q\nwant %q", blobs, spillBlobs)
	}
	cp, err := s.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Keys) != 1 || cp.Keys[0].Open != ckptOpen || len(cp.Keys[0].Deque) != 2 ||
		cp.Keys[0].Deque[0].Ops != ckptOps[0] || cp.Keys[0].Deque[1].Ops != ckptOps[1] {
		t.Errorf("checkpoint text: %+v\nwant open %q, ops %q", cp.Keys, ckptOpen, ckptOps)
	}

	// Decode: every literal reads back to the operations it was written from,
	// and prints back to itself.
	for text, want := range map[string][]history.Operation{
		walText: ops, ckptOpen: ops[4:], spillBlobs[0]: ops[:2], spillBlobs[1]: ops[2:4], spillBlobs[2]: ops[4:6],
	} {
		got, err := parseOpsText([]byte(text), 0)
		if err != nil || len(got) != len(want) {
			t.Fatalf("%q decodes to %d operations (%v), want %d", text, len(got), err, len(want))
		}
		for i := range want {
			want[i].ID = i
			if got[i] != want[i] {
				t.Errorf("%q: operation %d = %+v, want %+v", text, i, got[i], want[i])
			}
		}
		if again := string(appendOpsText(nil, "acct:7", got)); again != text {
			t.Errorf("%q re-encodes as %q", text, again)
		}
	}
	replayed := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1})
	if n, err := replayed.Replay([]byte(walRecord)); err != nil || n != int64(len(ops)) {
		t.Fatalf("replaying the record: %d operations, %v", n, err)
	}
	replayedText := NewSmallestKSession(core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1})
	if n, err := replayedText.Replay([]byte(walText)); err != nil || n != int64(len(ops)) {
		t.Fatalf("replaying the text record: %d operations, %v", n, err)
	}
	restored := NewSmallestKSession(core.Options{}, sopts)
	if err := restored.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*Session{s, replayed, replayedText, restored} {
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Snapshot()
	if len(want) != 1 || want[0].Ops != len(ops) || want[0].SmallestK != 1 || want[0].Err != nil {
		t.Fatalf("verdict of the pinned input: %+v", want)
	}
	for name, sess := range map[string]*Session{"replayed": replayed, "replayed text": replayedText, "restored": restored} {
		if got := sess.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s session: %+v, want %+v", name, got, want)
		}
	}
}

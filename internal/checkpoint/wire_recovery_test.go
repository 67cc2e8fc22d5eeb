package checkpoint

// Crash recovery with binary ingest: the same prefix-equivalence oracle as
// checkpoint_test.go, but the session is fed wire frames through
// Session.AppendWire — so the WAL holds self-contained wire frames and
// Recover exercises the magic-sniffing replay path.

import (
	"bytes"
	"testing"

	"kat/internal/core"
	"kat/internal/faultfs"
	"kat/internal/trace"
	"kat/internal/wal"
	"kat/internal/wire"
)

// buildWireScenario is buildScenario with binary ingest: each batch is
// encoded as one wire frame (one shared dictionary per stream) and pushed
// through AppendWire.
func buildWireScenario(t testing.TB, seed int64, shards, ckptEvery, batchSize int,
	policy wal.SyncPolicy, compress bool) *scenario {
	t.Helper()
	perKey, all := genWorkload(seed, 4, 60, false)
	mem := faultfs.NewMem()
	sc := &scenario{perKey: perKey, mem: mem, policy: policy}
	mgr, err := Open(mem, "data", Config{Policy: policy})
	if err != nil {
		return sc
	}
	sess := trace.NewSmallestKSession(core.Options{},
		trace.StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: shards})
	if _, err := mgr.Recover(sess); err != nil {
		mgr.Close()
		return sc
	}
	enc := wire.NewEncoder()
	enc.SetCompress(compress)
	// One frame per batch, each its own AppendWire stream — so frames must
	// be self-contained rather than share a dictionary.
	enc.SetSelfContained(true)
	var frame []byte
	batch := 0
feed:
	for off := 0; off < len(all); off += batchSize {
		end := off + batchSize
		if end > len(all) {
			end = len(all)
		}
		for _, ko := range all[off:end] {
			if err := enc.Add(ko.Key, ko.Op); err != nil {
				t.Fatalf("encode: %v", err)
			}
		}
		frame = enc.AppendFrame(frame[:0])
		if _, err := sess.AppendWire(bytes.NewReader(frame)); err != nil {
			break feed
		}
		batch++
		if ckptEvery > 0 && batch%ckptEvery == 0 {
			if err := mgr.Checkpoint(); err != nil {
				break feed
			}
		}
	}
	sess.Flush()
	mgr.Close()
	return sc
}

// TestCrashSweepWireIngest cuts a binary-ingest scenario's disk at a spread
// of byte offsets and requires every image — whose WAL records are wire
// frames, possibly torn mid-frame — to recover to a verdict-identical
// prefix run.
func TestCrashSweepWireIngest(t *testing.T) {
	for _, compress := range []bool{false, true} {
		sc := buildWireScenario(t, 29, 4, 2, 17, wal.SyncBatch, compress)
		total := sc.mem.TotalWriteBytes()
		if total == 0 {
			t.Fatal("scenario wrote nothing")
		}
		step := total/43 + 1
		var cuts []int64
		for cut := int64(0); cut <= total; cut += step {
			cuts = append(cuts, cut)
		}
		for d := int64(0); d < 4 && d <= total; d++ {
			cuts = append(cuts, total-d)
		}
		for _, cut := range cuts {
			checkRecovery(t, sc, sc.mem.CrashImage(cut), 4)
		}
		// Full-image recovery into a different shard count.
		rs := checkRecovery(t, sc, sc.mem.CrashImage(total), 7)
		if rs.CheckpointEpoch < 0 {
			t.Fatalf("wire sweep scenario published no checkpoint: %+v", rs)
		}
	}
}

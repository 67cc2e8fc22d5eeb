package checkpoint

// Crash-point fuzzing of the full durability loop. The oracle throughout is
// per-key prefix equivalence: whatever a recovery rebuilds must be, key by
// key, some prefix of the acknowledged operation stream, and the recovered
// session's final verdicts must equal those of an uninterrupted in-memory
// run over exactly those prefixes. The crash model is faultfs.MemFS's
// journal: a kill at an arbitrary global write byte, the straddling write
// torn at exactly that byte. Fault injection (failed or short writes,
// failed fsyncs/creates/renames) covers the errors a *surviving* process
// sees; the same oracle applies because the session stickies on the first
// durability error and never acknowledges past it.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kat/internal/core"
	"kat/internal/faultfs"
	"kat/internal/history"
	"kat/internal/trace"
	"kat/internal/wal"
	"kat/internal/wire"
)

// genWorkload builds a deterministic multi-key workload: per-key operation
// lists in arrival order (nondecreasing starts, first op a write, reads of
// possibly stale but always-written values) plus the globally merged
// arrival sequence used to drive batch ingest. With stagger, the first two
// keys live twice: halfway through they go quiet for longer than any
// lifecycle TTL while the others keep the watermark moving, then come back
// writing fresh values and reading only those (a retired lifetime's value
// index is gone) — so a retiring session retires and re-admits them mid-run.
func genWorkload(seed int64, nkeys, opsPerKey int, stagger bool) (map[string][]history.Operation, []trace.KeyedOp) {
	rng := rand.New(rand.NewSource(seed))
	perKey := make(map[string][]history.Operation, nkeys)
	var all []trace.KeyedOp
	for ki := 0; ki < nkeys; ki++ {
		key := fmt.Sprintf("key%02d", ki)
		clock := int64(rng.Intn(8))
		var vals []int64
		next := int64(1)
		ops := make([]history.Operation, 0, opsPerKey)
		for i := 0; i < opsPerKey; i++ {
			if stagger && ki < 2 && i == opsPerKey/2 {
				clock += int64(100 + 50*ki)
				vals = vals[:0]
			}
			start := clock
			dur := int64(1 + rng.Intn(6))
			var op history.Operation
			if len(vals) == 0 || rng.Intn(3) == 0 {
				op = history.Operation{Kind: history.KindWrite, Value: next,
					Start: start, Finish: start + dur}
				vals = append(vals, next)
				next++
			} else {
				lag := rng.Intn(3)
				if lag >= len(vals) {
					lag = len(vals) - 1
				}
				op = history.Operation{Kind: history.KindRead,
					Value: vals[len(vals)-1-lag], Start: start, Finish: start + dur}
			}
			ops = append(ops, op)
			clock += int64(rng.Intn(4))
		}
		perKey[key] = ops
		for _, op := range ops {
			all = append(all, trace.KeyedOp{Key: key, Op: op})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Op.Start < all[j].Op.Start })
	return perKey, all
}

// scenario is one completed (or fault-aborted) durable ingest run whose
// MemFS can be crash-imaged at any byte.
type scenario struct {
	perKey map[string][]history.Operation
	mem    *faultfs.MemFS
	policy wal.SyncPolicy
	// life is the lifecycle axis (see lifeOpts); live the feeding session's
	// final statistics.
	life uint8
	live trace.StreamStats
}

// lifeOpts layers the scenario's lifecycle axis over sopts, the same on both
// sides of the crash (a checkpoint only restores into the configuration that
// wrote it). 0 leaves the plain session; anything else verifies every
// property, rotates epoch windows, and retires at a TTL above the workload's
// largest mid-lifetime gap and below its staggered keys' absence, with a
// sweep due after every feed.
func (sc *scenario) lifeOpts(sopts trace.StreamOptions) trace.StreamOptions {
	if sc.life != 0 {
		sopts.Properties = trace.PropertySetAll
		sopts.EpochLength = 16 << (sc.life / 2 % 4)
		sopts.RetireTTL = 10 + 15*int64(sc.life%2)
		sopts.RetireSweepOps = 1
	}
	return sopts
}

// buildScenario runs a durable session over the generated workload,
// checkpointing every ckptEvery batches. inject, when non-nil, wraps the
// MemFS in a fault injector; on the first session or checkpoint error the
// feed stops (the session is sticky — nothing past the error is
// acknowledged). spill relieves the session to nothing after every batch, so
// every held run spills through the manager's store; life != 0 turns the
// keyspace lifecycle on (lifeOpts).
func buildScenario(t testing.TB, seed int64, shards, ckptEvery, batchSize int,
	policy wal.SyncPolicy, inject faultfs.Injector, spill bool, life uint8) *scenario {
	t.Helper()
	perKey, all := genWorkload(seed, 4, 60, life != 0)
	mem := faultfs.NewMem()
	var fsys faultfs.FS = mem
	if inject != nil {
		fsys = faultfs.NewFaulty(mem, inject)
	}
	sc := &scenario{perKey: perKey, mem: mem, policy: policy, life: life}
	mgr, err := Open(fsys, "data", Config{Policy: policy})
	if err != nil {
		return sc // nothing durable was written; recovery sees an empty dir
	}
	sopts := sc.lifeOpts(trace.StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: shards, Store: mgr.Store()})
	sess := trace.NewSmallestKSession(core.Options{}, sopts)
	if _, err := mgr.Recover(sess); err != nil {
		mgr.Close()
		return sc
	}
	batch := 0
feed:
	for off := 0; off < len(all); off += batchSize {
		end := off + batchSize
		if end > len(all) {
			end = len(all)
		}
		if _, err := sess.AppendBatch(all[off:end]); err != nil {
			break feed
		}
		if spill && sess.Relieve(0) != nil {
			break feed
		}
		batch++
		if ckptEvery > 0 && batch%ckptEvery == 0 {
			if err := mgr.Checkpoint(); err != nil {
				break feed
			}
		}
	}
	sc.live = sess.Stats()
	sess.Flush() // reap pool workers; errors (sticky faults) are the point
	mgr.Close()
	return sc
}

// checkRecovery recovers img into a fresh session of shards2 ingest shards
// and holds the recovered state to the prefix-equivalence oracle.
func checkRecovery(t *testing.T, sc *scenario, img *faultfs.MemFS, shards2 int) RecoveryStats {
	t.Helper()
	mgr, err := Open(img, "data", Config{Policy: sc.policy})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer mgr.Close()
	sess := trace.NewSmallestKSession(core.Options{}, sc.lifeOpts(trace.StreamOptions{
		Workers: 2, MinSegmentOps: 1, IngestShards: shards2, Store: mgr.Store(),
	}))
	rs, err := mgr.Recover(sess)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatalf("recovered session Flush: %v", err)
	}
	got := sess.Snapshot()

	// Reference: an uninterrupted in-memory run over exactly the per-key
	// prefixes recovery rebuilt — the same properties, no lifecycle.
	refOpts := sc.lifeOpts(trace.StreamOptions{Workers: 2, MinSegmentOps: 1, IngestShards: 3})
	refOpts.RetireTTL, refOpts.EpochLength = 0, 0
	ref := trace.NewSmallestKSession(core.Options{}, refOpts)
	var recovered int64
	for _, kv := range got {
		full, ok := sc.perKey[kv.Key]
		if !ok {
			t.Fatalf("recovered unknown key %q", kv.Key)
		}
		if kv.Ops > len(full) {
			t.Fatalf("key %q: recovered %d ops, only %d were ever sent", kv.Key, kv.Ops, len(full))
		}
		recovered += int64(kv.Ops)
		for _, op := range full[:kv.Ops] {
			if err := ref.Append(kv.Key, op); err != nil {
				t.Fatalf("reference Append(%q): %v", kv.Key, err)
			}
		}
	}
	if err := ref.Flush(); err != nil {
		t.Fatalf("reference Flush: %v", err)
	}
	want := ref.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("recovered %d keys, reference %d (stats %+v)", len(got), len(want), rs)
	}
	for i, g := range got {
		// Every property's verdict, not only k; a retired key's is as final
		// as a live one's.
		if w := want[i]; g.Key != w.Key || g.Ops != w.Ops || g.Err != nil || w.Err != nil || g.Verdict != w.Verdict {
			t.Fatalf("recovered verdict diverges from uninterrupted prefix run:\n got %+v\nwant %+v\n(recovered %d ops, stats %+v)",
				g, w, recovered, rs)
		}
	}
	if sc.life != 0 {
		// Epoch windows survive the crash without losing or double-counting:
		// every recovered operation landed in exactly one of them.
		var windowed int64
		for _, es := range sess.Epochs() {
			windowed += es.Ops
		}
		if windowed != recovered {
			t.Fatalf("epoch windows hold %d ops, recovered %d (stats %+v)", windowed, recovered, rs)
		}
	}
	return rs
}

func TestRecoverEmptyDir(t *testing.T) {
	mem := faultfs.NewMem()
	mgr, err := Open(mem, "data", Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := trace.NewSmallestKSession(core.Options{}, trace.StreamOptions{IngestShards: 2})
	rs, err := mgr.Recover(sess)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CheckpointEpoch != -1 || rs.ReplayedOps != 0 {
		t.Fatalf("cold start reported recovery work: %+v", rs)
	}
	// The WAL is live from the first append.
	if err := sess.Append("a", history.Operation{Kind: history.KindWrite, Value: 1, Start: 0, Finish: 1}); err != nil {
		t.Fatal(err)
	}
	if st := mgr.Stats(); st.WAL.Records == 0 {
		t.Fatalf("append did not reach the WAL: %+v", st.WAL)
	}
	mgr.Close()
}

// TestCrashSweep cuts one scenario's disk at a spread of byte offsets —
// including every boundary-adjacent offset around the end — and requires
// every image to recover to a verdict-identical prefix run.
func TestCrashSweep(t *testing.T) {
	sc := buildScenario(t, 7, 4, 2, 17, wal.SyncBatch, nil, false, 0)
	total := sc.mem.TotalWriteBytes()
	if total == 0 {
		t.Fatal("scenario wrote nothing")
	}
	step := total/97 + 1
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
	// Full-image recovery rebuilds everything that was acknowledged.
	rs := checkRecovery(t, sc, sc.mem.CrashImage(total), 6)
	var totalOps int
	for _, ops := range sc.perKey {
		totalOps += len(ops)
	}
	if rs.CheckpointEpoch < 0 {
		t.Fatalf("sweep scenario published no checkpoint: %+v", rs)
	}
}

// TestRecoverShardCountChange recovers one run into sessions with different
// ingest shard counts — keys re-route by hash, verdicts must not move.
func TestRecoverShardCountChange(t *testing.T) {
	sc := buildScenario(t, 11, 8, 3, 23, wal.SyncNever, nil, false, 0)
	total := sc.mem.TotalWriteBytes()
	for _, shards := range []int{1, 2, 7, 16} {
		checkRecovery(t, sc, sc.mem.CrashImage(total), shards)
	}
}

// TestRecoverWithSpill runs ingest relieved to the store after every batch,
// then recovers mid-crash: spilled segments are inlined into checkpoints and
// reconstructed from WAL replay, never read from stale blobs.
func TestRecoverWithSpill(t *testing.T) {
	sc := buildScenario(t, 13, 4, 2, 17, wal.SyncBatch, nil, true, 0)
	if sc.live.Spills == 0 || sc.live.SpillLoads == 0 {
		t.Fatalf("the scenario spilled %d runs and reloaded %d; want both", sc.live.Spills, sc.live.SpillLoads)
	}
	total := sc.mem.TotalWriteBytes()
	for _, frac := range []float64{0.3, 0.7, 1.0} {
		checkRecovery(t, sc, sc.mem.CrashImage(int64(frac*float64(total))), 4)
	}
}

// TestRecoveryIsRepeatable recovers the same crash image twice (the second
// recovery runs on top of the first one's re-anchor) — a crash during or
// right after recovery must itself be recoverable.
func TestRecoveryIsRepeatable(t *testing.T) {
	sc := buildScenario(t, 17, 4, 2, 19, wal.SyncBatch, nil, false, 0)
	img := sc.mem.CrashImage(sc.mem.TotalWriteBytes() * 2 / 3)
	checkRecovery(t, sc, img, 4)
	// img now holds the first recovery's fresh epoch + re-anchor checkpoint.
	checkRecovery(t, sc, img, 4)
	// And a crash torn into the re-anchor itself.
	checkRecovery(t, sc, img.CrashImage(img.TotalWriteBytes()-3), 4)
}

// TestFaultInjectionSweep drives a fault into the nth write, sync, create,
// and rename the durable path performs, for a range of n, and requires the
// surviving disk (page cache intact — the process kept running, only the
// call failed) to recover cleanly every time.
func TestFaultInjectionSweep(t *testing.T) {
	for _, op := range []faultfs.Op{faultfs.OpWrite, faultfs.OpSync, faultfs.OpCreate, faultfs.OpRename} {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			t.Parallel()
			for n := int64(0); n < 30; n++ {
				short := int(n % 7)
				sc := buildScenario(t, 19, 4, 2, 17, wal.SyncBatch,
					faultfs.FailOnce(op, n, short), false, 0)
				checkRecovery(t, sc, sc.mem, 4)
			}
		})
	}
}

// TestDrainedRestart drains a session, publishes the terminal checkpoint,
// and restarts from the directory: the recovered session is flushed,
// serves identical final verdicts, and refuses ingest.
func TestDrainedRestart(t *testing.T) {
	_, all := genWorkload(23, 4, 60, false)
	mem := faultfs.NewMem()
	mgr, err := Open(mem, "data", Config{Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	sess := trace.NewSmallestKSession(core.Options{}, trace.StreamOptions{
		Workers: 2, MinSegmentOps: 1, IngestShards: 4,
	})
	if _, err := mgr.Recover(sess); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AppendBatch(all); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatalf("terminal checkpoint: %v", err)
	}
	want, _ := sess.SmallestKByKey()
	mgr.Close()

	mgr2, err := Open(mem, "data", Config{Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	sess2 := trace.NewSmallestKSession(core.Options{}, trace.StreamOptions{
		Workers: 2, MinSegmentOps: 1, IngestShards: 4,
	})
	rs, err := mgr2.Recover(sess2)
	if err != nil {
		t.Fatal(err)
	}
	if !sess2.Flushed() {
		t.Fatal("restart of a drained directory is not flushed")
	}
	if rs.ReplayedOps != 0 {
		t.Fatalf("drained restart replayed %d ops", rs.ReplayedOps)
	}
	got, _ := sess2.SmallestKByKey()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drained restart verdicts:\n got %v\nwant %v", got, want)
	}
	if err := sess2.Append("a", history.Operation{Kind: history.KindWrite, Value: 1, Start: 1 << 40, Finish: 1<<40 + 1}); err == nil {
		t.Fatal("drained restart accepted ingest")
	}
}

// TestShrinkPurgesDroppedShardWAL recovers a data directory written with one
// WAL file per ingest shard — epoch 0 as four s000N files, keys routed by
// trace.KeyHash % 4, self-contained wire frames and one keyed-text record —
// into a 16-shard session, whose log writes one file per epoch and so never
// opens s0001-s0003. The verdicts must equal the offline check's, and the
// next checkpoint must leave no epoch-0 file behind.
func TestShrinkPurgesDroppedShardWAL(t *testing.T) {
	_, all := genWorkload(29, 16, 20, false)
	mem := faultfs.NewMem()
	mem.MkdirAll("data")
	const oldShards = 4
	var files [oldShards]*wal.Writer
	for s := range files {
		f, err := mem.Create("data/" + wal.FileName(0, s))
		if err != nil {
			t.Fatal(err)
		}
		files[s] = wal.NewWriter(f)
	}
	offline := trace.New()
	enc := wire.NewEncoder()
	enc.SetSelfContained(true)
	for off := 0; off < len(all); off += 64 {
		req := all[off:min(off+64, len(all))]
		for s, w := range files {
			var text []byte
			for _, kop := range req {
				if trace.KeyHash(kop.Key)%oldShards != uint32(s) {
					continue
				}
				text = history.AppendOpText(text, kop.Key, kop.Op)
				if err := enc.Add(kop.Key, kop.Op); err != nil {
					t.Fatal(err)
				}
			}
			rec := enc.AppendFrame(nil)
			if off == 0 && s == 0 {
				rec = text // the directory predates wire-framed records
			}
			if len(text) > 0 {
				if err := w.Append(wal.RecordBatch, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, kop := range req {
			offline.Add(kop.Key, kop.Op)
		}
	}
	for _, w := range files {
		w.Close()
	}

	mgr, err := Open(mem, "data", Config{Policy: wal.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	sess := trace.NewSmallestKSession(core.Options{}, trace.StreamOptions{Workers: 1, MinSegmentOps: 1, IngestShards: 16})
	rs, err := mgr.Recover(sess)
	if err != nil {
		t.Fatal(err)
	}
	if rs.ReplayedOps != int64(len(all)) || rs.ReplayedEpochs != 1 {
		t.Fatalf("recovered %+v, want %d operations of one epoch", rs, len(all))
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	names, err := mem.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if e, _, ok := wal.ParseFileName(name); ok && e == 0 {
			t.Errorf("%s outlived the checkpoints that cover its epoch (files %v)", name, names)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _ := sess.SmallestKByKey()
	if want := trace.SmallestKByKey(offline, core.Options{}); len(want) != 16 || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered smallest k %v\noffline check  %v", got, want)
	}
}

// TestCorruptCheckpointFallsBack truncates the newest checkpoint file;
// recovery must fall back to replaying the full WAL chain (or an older
// checkpoint) and still satisfy the oracle.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	sc := buildScenario(t, 29, 4, 3, 17, wal.SyncBatch, nil, false, 0)
	img := sc.mem.CrashImage(sc.mem.TotalWriteBytes())
	var newest string
	var newestEpoch int
	for name := range img.Files() {
		const prefix = "data/"
		if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
			continue
		}
		if e, ok := parseCkptName(name[len(prefix):]); ok && (newest == "" || e > newestEpoch) {
			newest, newestEpoch = name, e
		}
	}
	if newest == "" {
		t.Fatal("scenario published no checkpoint")
	}
	// Truncate by rewriting a prefix: remove, recreate, write half.
	data, err := faultfs.ReadFile(img, newest)
	if err != nil {
		t.Fatal(err)
	}
	img.Remove(newest)
	f, err := img.Create(newest)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data[:len(data)/2])
	f.Close()
	checkRecovery(t, sc, img, 4)
}

// TestCheckpointNameParsing pins the file-name grammar, and the name shape
// recovery finds a data directory's checkpoints by as a literal.
func TestCheckpointNameParsing(t *testing.T) {
	const persisted = "ckpt-00000007" // epoch 7
	if got := CkptFileName(7); got != persisted {
		t.Errorf("CkptFileName(7) = %q, want %q", got, persisted)
	}
	if e, ok := parseCkptName(persisted); !ok || e != 7 {
		t.Errorf("parseCkptName(%q) = %d, %v; want 7, true", persisted, e, ok)
	}
	for _, e := range []int{0, 1, 42, 99999999} {
		got, ok := parseCkptName(CkptFileName(e))
		if !ok || got != e {
			t.Fatalf("round trip of epoch %d: got %d, %v", e, got, ok)
		}
	}
	for _, bad := range []string{"ckpt-0000003", "ckpt-00000003.tmp", "ckpt-0000000x",
		"wal-ep00000000-s0000.log", "ckpt-000000031"} {
		if _, ok := parseCkptName(bad); ok {
			t.Fatalf("parsed %q", bad)
		}
	}
}

// TestCrashSweepLifecycle is TestCrashSweep over the composition: retirement
// swept after every feed, epoch windows and every property, on a workload
// whose staggered keys retire and come back before most of the crash points.
// Recovery replays the log one shard group at a time; it must not retire on
// the watermark an early record leaves behind.
func TestCrashSweepLifecycle(t *testing.T) {
	for life := uint8(1); life <= 2; life++ {
		sc := buildScenario(t, 7, 4, 2, 17, wal.SyncBatch, nil, false, life)
		if sc.live.Retirements == 0 || sc.live.Readmissions == 0 {
			t.Fatalf("life %d: %d retirements, %d re-admissions before the crash; the workload is not exercising the lifecycle", life, sc.live.Retirements, sc.live.Readmissions)
		}
		total := sc.mem.TotalWriteBytes()
		for cut := int64(0); cut <= total; cut += total/61 + 1 {
			checkRecovery(t, sc, sc.mem.CrashImage(cut), 4)
		}
		checkRecovery(t, sc, sc.mem.CrashImage(total), 6)
	}
}

// FuzzCrashPointRecovery is the randomized form of the sweeps above: fuzzed
// workload seed, crash byte, checkpoint cadence, shard counts on both sides
// of the crash, sync policy, an optional injected fault, and the lifecycle
// axis (retirement, epochs and every property at once; see lifeOpts).
// Registered in the CI fuzz smoke (go test -fuzz is also supported).
func FuzzCrashPointRecovery(f *testing.F) {
	f.Add(int64(1), uint16(30000), uint8(2), uint8(4), uint8(7), uint8(255), uint16(0), uint8(0), uint8(1), uint8(0))
	f.Add(int64(2), uint16(65535), uint8(1), uint8(1), uint8(1), uint8(255), uint16(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint16(100), uint8(4), uint8(8), uint8(2), uint8(0), uint16(5), uint8(3), uint8(2), uint8(0))
	f.Add(int64(4), uint16(60000), uint8(3), uint8(2), uint8(5), uint8(1), uint16(2), uint8(0), uint8(1), uint8(0))
	f.Add(int64(5), uint16(40000), uint8(2), uint8(3), uint8(3), uint8(2), uint16(7), uint8(0), uint8(1), uint8(0))
	// Crash x retirement x epochs x properties. A replay that swept on the
	// watermark of the records before it refused a later one ("operation
	// starts at or before a committed cut").
	f.Add(int64(6), uint16(65535), uint8(3), uint8(3), uint8(5), uint8(255), uint16(0), uint8(0), uint8(1), uint8(1))
	f.Add(int64(7), uint16(45000), uint8(1), uint8(7), uint8(2), uint8(255), uint16(1), uint8(0), uint8(2), uint8(6))
	// A checkpoint after every batch, so each is cut mid-window, with windows
	// spilled: the open windows' writes are listed in the checkpoint but enter
	// the value index only when the restored window closes — taken at restore
	// as well, every such close reported a duplicate value.
	f.Add(int64(8), uint16(50000), uint8(0), uint8(2), uint8(4), uint8(255), uint16(1), uint8(0), uint8(1), uint8(0))
	f.Add(int64(9), uint16(65535), uint8(0), uint8(3), uint8(1), uint8(255), uint16(0), uint8(0), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, cutFrac uint16, ckptEvery, s1, s2, faultOp uint8, faultSeq uint16, short, pol, life uint8) {
		shards1 := 1 + int(s1%8)
		shards2 := 1 + int(s2%8)
		policy := []wal.SyncPolicy{wal.SyncNever, wal.SyncBatch, wal.SyncAlways}[int(pol)%3]
		var inject faultfs.Injector
		spill := false
		if op := int(faultOp); op <= int(faultfs.OpRemove) {
			inject = faultfs.FailOnce(faultfs.Op(op), int64(faultSeq%150), int(short%16))
		} else if faultSeq%2 == 1 {
			spill = true
		}
		sc := buildScenario(t, seed, shards1, 1+int(ckptEvery%5), 17, policy, inject, spill, life)
		total := sc.mem.TotalWriteBytes()
		cut := int64(float64(cutFrac) / 65535 * float64(total))
		checkRecovery(t, sc, sc.mem.CrashImage(cut), shards2)
		// The fault-survivor disk (no crash) must recover too.
		checkRecovery(t, sc, sc.mem, shards2)
	})
}

// TestParentWALRecordPinned pins one whole write-ahead record, WAL framing
// and body. The 172 bytes of record are wal-ep00000000-s0000.log as a
// kavserve built at commit 802faec left it (`-ingest-shards 1`, one request
// of seven lines, killed), with a keyed-text body: they must recover to the
// seven operations. The same request now logs framed, the 62 bytes of
// current: one self-contained wire frame of the seven operations, which
// must recover to them too.
func TestParentWALRecordPinned(t *testing.T) {
	const body = "w acct:7 1 0 10 weight=2 client=3\nr acct:7 1 5 20 client=-4\n" +
		"w acct:7 2 30 40\nr acct:7 2 35 50 client=9\n" +
		"w acct:7 3 60 70\nw acct:7 4 65 80 weight=5\nr acct:7 4 75 90\n"
	const record = "\xd4\xb1\x42\x59" + "\xa3\x00\x00\x00" + "\x01" + body // crc, length, RecordBatch
	// The frame: magic, version 1, the dict-reset flag, the payload length;
	// one key, the operation count and the seven operations; CRC-32C.
	const frame = "KAVW\x01\x02\x2a" + "\x01\x06acct:7\x07" +
		"\x03\x02\x00\x14\x02\x06" + "\x05\x02\x0a\x1e\x07" + "\x00\x04\x32\x14" + "\x05\x04\x0a\x1e\x12" +
		"\x00\x06\x32\x14" + "\x02\x08\x0a\x1e\x05" + "\x04\x08\x14\x1e" + "\xa1\x3c\xd6\x3f"
	const current = "\x88\x9f\x33\x9b" + "\x35\x00\x00\x00" + "\x01" + frame // crc, length, RecordBatch
	name := "data/" + wal.FileName(0, 0)
	open := func(mem *faultfs.MemFS) (*Manager, *trace.Session, RecoveryStats) {
		t.Helper()
		mgr, err := Open(mem, "data", Config{})
		if err != nil {
			t.Fatal(err)
		}
		sess := trace.NewSmallestKSession(core.Options{}, trace.StreamOptions{Workers: 1, IngestShards: 1})
		rs, err := mgr.Recover(sess)
		if err != nil {
			t.Fatal(err)
		}
		return mgr, sess, rs
	}

	old := faultfs.NewMem()
	f, err := old.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte(record))
	f.Sync()
	f.Close()
	mgr, sess, rs := open(old)
	if rs.ReplayedOps != 7 || rs.ReplayedRecords != 1 {
		t.Fatalf("recovered %+v, want 7 operations from 1 record", rs)
	}
	if kv, ok := sess.SnapshotKey("acct:7"); !ok || kv.Ops != 7 {
		t.Fatalf("recovered key: %+v %v", kv, ok)
	}
	mgr.Close()

	fresh := faultfs.NewMem()
	mgr, sess, _ = open(fresh)
	if _, err := sess.AppendTraceBatch(strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	got, err := faultfs.ReadFile(fresh, name)
	if err != nil || string(got) != current {
		t.Fatalf("the same request logged %q (%v)\nwant %q", got, err, current)
	}
	mgr, sess, rs = open(fresh)
	defer mgr.Close()
	if rs.ReplayedOps != 7 || rs.ReplayedRecords != 1 {
		t.Fatalf("the framed record recovered %+v, want 7 operations from 1 record", rs)
	}
	if kv, ok := sess.SnapshotKey("acct:7"); !ok || kv.Ops != 7 {
		t.Fatalf("the framed record recovered key: %+v %v", kv, ok)
	}
}

// Package checkpoint is the durability orchestrator of the online
// verifier: it owns a data directory holding the per-shard write-ahead log
// (package wal), periodic checkpoint files (trace.SessionCheckpoint encoded
// with the same CRC framing as the WAL), and the spill area for segment
// bodies evicted from memory.
//
// The epoch protocol ties the three together. WAL files are grouped into
// epochs; checkpoint N snapshots exactly the session state produced by the
// operations logged in epochs < N. Taking a checkpoint therefore rotates the
// log *inside* the session freeze (every ingest lock held, verification
// drained), so the boundary is exact: operations accepted after the freeze
// land in epoch N and are replayed on top of checkpoint N. The checkpoint
// file is published atomically — written to a temp name, fsynced, renamed —
// and only after a successful publish are the covered WAL epochs and older
// checkpoints garbage-collected. A crash at any byte leaves either the old
// checkpoint or the new one, never a half state.
//
// Recovery inverts the protocol: restore the newest valid checkpoint (CRC
// framing and a keyed footer reject torn or partial files, falling back to
// the previous one), replay the batch records of every WAL epoch >= the
// checkpoint's number in epoch order, then open a fresh epoch, write a new
// checkpoint covering everything replayed, and attach the log to the
// session so ingest resumes. Torn WAL tails truncate cleanly (a record is
// either fully durable or ignored), and because the session stickies on any
// WAL append failure, the log can never be missing an operation that a
// later acknowledged operation of the same key depends on — what recovery
// rebuilds is always a per-key prefix of the acknowledged stream, which the
// crash-point fuzzer checks verdict-for-verdict against an uninterrupted
// run of that prefix.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kat/internal/faultfs"
	"kat/internal/trace"
	"kat/internal/wal"
)

// Config tunes a Manager.
type Config struct {
	// Policy selects the WAL fsync policy (see wal.SyncPolicy).
	Policy wal.SyncPolicy
	// OnError, when non-nil, receives failures of the periodic checkpoint
	// ticker (manual Checkpoint calls return their errors directly).
	OnError func(error)
}

// RecoveryStats describes what Recover found and replayed.
type RecoveryStats struct {
	// CheckpointEpoch is the epoch of the checkpoint restored, -1 if the
	// directory held none (cold start or pre-checkpoint crash).
	CheckpointEpoch int
	// RestoredKeys is the number of keys the checkpoint carried.
	RestoredKeys int
	// ReplayedEpochs counts WAL epochs visited during replay.
	ReplayedEpochs int
	// ReplayedRecords counts WAL batch records fed back into the session.
	ReplayedRecords int64
	// ReplayedOps counts operations re-ingested from the WAL.
	ReplayedOps int64
	// TornBytes counts trailing bytes discarded from torn WAL tails.
	TornBytes int64
}

// Stats snapshots the manager's counters.
type Stats struct {
	Checkpoints         int64 // successfully published checkpoints
	CheckpointFailures  int64 // failed attempts (state on disk unchanged)
	LastCheckpointBytes int64
	WAL                 wal.Stats
	Recovery            RecoveryStats
}

// Manager owns one data directory. Lifecycle: Open -> (Store into the
// session's StreamOptions) -> Recover -> optional Start ticker -> Checkpoint
// on demand -> Close. Recover attaches the manager to the session as its
// ShardLogger, so every accepted operation hits the WAL from then on.
type Manager struct {
	fs      faultfs.FS
	dir     string
	policy  wal.SyncPolicy
	onError func(error)

	store *blobStore
	log   *wal.Log       // set by Recover
	sess  *trace.Session // set by Recover

	ckptMu sync.Mutex // serializes checkpoint attempts (ticker vs manual)
	// sealed: Checkpoint has published a Flushed snapshot. A drained session
	// is terminal, so a later one would be byte-equal and is skipped.
	sealed bool // guarded by ckptMu

	checkpoints   atomic.Int64
	ckptFailures  atomic.Int64
	lastCkptBytes atomic.Int64
	recovery      RecoveryStats // written once by Recover

	tickerStop chan struct{}
	tickerDone chan struct{}
	closeOnce  sync.Once
}

// Open prepares the data directory: creates it (and the spill area) if
// missing, removes half-published checkpoint temporaries, and wipes stale
// spill blobs — spilled segments are reconstructible from checkpoint + WAL,
// so blobs never outlive the process that wrote them.
func Open(fsys faultfs.FS, dir string, cfg Config) (*Manager, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("checkpoint: create data dir: %w", err)
	}
	spillDir := wal.Join(dir, "spill")
	if err := fsys.MkdirAll(spillDir); err != nil {
		return nil, fmt.Errorf("checkpoint: create spill dir: %w", err)
	}
	m := &Manager{fs: fsys, dir: dir, policy: cfg.Policy, onError: cfg.OnError,
		store: &blobStore{fs: fsys, dir: spillDir}}
	m.recovery.CheckpointEpoch = -1
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scan data dir: %w", err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			fsys.Remove(wal.Join(dir, name))
		}
	}
	if blobs, err := fsys.ReadDir(spillDir); err == nil {
		for _, name := range blobs {
			fsys.Remove(wal.Join(spillDir, name))
		}
	}
	return m, nil
}

// Store returns the spill BlobStore rooted in the data directory, for the
// session's StreamOptions.Store.
func (m *Manager) Store() trace.BlobStore { return m.store }

// Recover loads the directory's state into sess (which must be fresh and
// configured with the same mode, k, and horizon as the previous run), opens
// a fresh WAL epoch, re-anchors it with a new checkpoint, and attaches the
// WAL to the session. Call exactly once, before serving ingest. A recovered
// drained session (final checkpoint had Flushed set) is left terminal: no
// WAL is attached and no re-anchor is written.
func (m *Manager) Recover(sess *trace.Session) (RecoveryStats, error) {
	rs := RecoveryStats{CheckpointEpoch: -1}
	names, err := m.fs.ReadDir(m.dir)
	if err != nil {
		return rs, fmt.Errorf("checkpoint: scan data dir: %w", err)
	}
	var ckptEpochs []int
	walEpochs := map[int][]string{} // epoch -> shard file names, sorted
	for _, name := range names {
		if e, ok := parseCkptName(name); ok {
			ckptEpochs = append(ckptEpochs, e)
		} else if e, _, ok := wal.ParseFileName(name); ok {
			walEpochs[e] = append(walEpochs[e], name)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ckptEpochs)))

	// Newest structurally valid checkpoint wins; torn or partial files are
	// skipped (they can only arise from filesystems without atomic rename,
	// but the fallback costs nothing).
	for _, e := range ckptEpochs {
		cp, ok := m.readCheckpoint(e)
		if !ok {
			continue
		}
		if err := sess.RestoreCheckpoint(cp); err != nil {
			return rs, fmt.Errorf("checkpoint: restore ckpt %d: %w", e, err)
		}
		rs.CheckpointEpoch = e
		rs.RestoredKeys = len(cp.Keys)
		break
	}

	// Replay every WAL epoch the checkpoint does not cover, oldest first.
	// Within an epoch a key's operations live in exactly one shard file (in
	// append order), so file order within an epoch is irrelevant and per-key
	// order is preserved across the whole replay.
	replayFrom := 0
	if rs.CheckpointEpoch >= 0 {
		replayFrom = rs.CheckpointEpoch
	}
	epochs := make([]int, 0, len(walEpochs))
	for e := range walEpochs {
		epochs = append(epochs, e)
	}
	sort.Ints(epochs)
	newEpoch := 0
	for _, e := range epochs {
		if e+1 > newEpoch {
			newEpoch = e + 1
		}
		if e < replayFrom || sess.Flushed() {
			continue
		}
		rs.ReplayedEpochs++
		sort.Strings(walEpochs[e])
		for _, name := range walEpochs[e] {
			recs, torn, err := wal.ReadFile(m.fs, wal.Join(m.dir, name))
			if err != nil {
				return rs, fmt.Errorf("checkpoint: replay %s: %w", name, err)
			}
			rs.TornBytes += torn
			for _, rec := range recs {
				if rec.Type != wal.RecordBatch {
					continue
				}
				n, err := sess.Replay(rec.Payload)
				rs.ReplayedOps += n
				if err != nil {
					return rs, fmt.Errorf("checkpoint: replay %s: %w", name, err)
				}
				rs.ReplayedRecords++
			}
		}
	}
	if rs.CheckpointEpoch > newEpoch {
		newEpoch = rs.CheckpointEpoch
	}

	l, err := wal.Open(m.fs, m.dir, sess.Shards(), newEpoch, m.policy)
	if err != nil {
		return rs, err
	}
	m.log = l
	m.sess = sess
	m.recovery = rs
	if sess.Flushed() {
		return rs, nil
	}
	if newEpoch > 0 {
		// Every logged operation is back, so the watermark is evidence of
		// idleness again: one sweep retires what the live run had retired,
		// or the whole replayed tail would ride buffered into the re-anchor.
		if err := sess.RetireIdle(0); err != nil {
			return rs, fmt.Errorf("checkpoint: sweep after replay: %w", err)
		}
		// Re-anchor: a fresh checkpoint covering everything just replayed,
		// so the next crash replays from here instead of from the old epoch
		// chain, and the old files can be collected.
		cp, err := sess.Checkpoint(nil)
		if err != nil {
			return rs, fmt.Errorf("checkpoint: re-anchor: %w", err)
		}
		if err := m.publish(cp, newEpoch); err != nil {
			return rs, fmt.Errorf("checkpoint: re-anchor: %w", err)
		}
	}
	sess.SetShardLogger(m)
	return rs, nil
}

// LogShardBatch implements trace.ShardLogger: one WAL record per
// (ingest call, shard) group, appended under that shard's ingest lock.
func (m *Manager) LogShardBatch(shard int, encoded []byte) error {
	return m.log.AppendShard(shard, encoded)
}

// Commit implements trace.ShardLogger: the group-commit point, fsyncing
// dirty shard files under the batch policy.
func (m *Manager) Commit() error { return m.log.Commit() }

// Checkpoint takes and publishes a checkpoint of the attached session:
// freeze, rotate the WAL to the next epoch while frozen, snapshot, publish
// atomically, then garbage-collect the covered epochs and older
// checkpoints. On any failure the directory keeps its previous recovery
// line and the error is returned.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	if m.log == nil || m.sess == nil {
		return errors.New("checkpoint: manager has no recovered session")
	}
	if m.sealed {
		return nil
	}
	next := m.log.Epoch() + 1
	cp, err := m.sess.Checkpoint(func() error { return m.log.Rotate(next) })
	if err == nil {
		err = m.publish(cp, next)
	}
	if err != nil {
		m.ckptFailures.Add(1)
		return err
	}
	m.sealed = cp.Flushed
	return nil
}

// Start runs Checkpoint every interval until Close. Failures are counted,
// reported to Config.OnError, and retried at the next tick.
func (m *Manager) Start(interval time.Duration) {
	if interval <= 0 || m.tickerStop != nil {
		return
	}
	m.tickerStop = make(chan struct{})
	m.tickerDone = make(chan struct{})
	go func() {
		defer close(m.tickerDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-m.tickerStop:
				return
			case <-t.C:
				if err := m.Checkpoint(); err != nil && m.onError != nil {
					m.onError(err)
				}
			}
		}
	}()
}

// Close stops the ticker and closes the WAL files (without a final
// checkpoint — callers wanting a clean shutdown point call Checkpoint, or
// Flush + Checkpoint for a drained-terminal directory, first).
func (m *Manager) Close() error {
	var err error
	m.closeOnce.Do(func() {
		if m.tickerStop != nil {
			close(m.tickerStop)
			<-m.tickerDone
		}
		if m.log != nil {
			err = m.log.Close()
		}
	})
	return err
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	st := Stats{
		Checkpoints:         m.checkpoints.Load(),
		CheckpointFailures:  m.ckptFailures.Load(),
		LastCheckpointBytes: m.lastCkptBytes.Load(),
		Recovery:            m.recovery,
	}
	if m.log != nil {
		st.WAL = m.log.Stats()
	}
	return st
}

// ---- checkpoint files ----

// CkptFileName returns the checkpoint file name of one epoch.
func CkptFileName(epoch int) string { return fmt.Sprintf("ckpt-%08d", epoch) }

// parseCkptName inverts CkptFileName ("ckpt-NNNNNNNN", exactly).
func parseCkptName(name string) (int, bool) {
	const prefix = "ckpt-"
	if len(name) != len(prefix)+8 || !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	n := 0
	for _, c := range name[len(prefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// ckptFooter closes a checkpoint file; a reader seeing the footer with the
// right key count knows the file is whole.
type ckptFooter struct {
	Keys int `json:"keys"`
}

// publish makes cp the checkpoint of `epoch`: CRC-framed records (header,
// one per key, footer) to a temp file, fsync, atomic rename. Any failure
// removes the temp and leaves the directory unchanged. Once published, the
// checkpoint is counted and every WAL file and checkpoint of an older epoch,
// which it covers, is removed; removal failures are ignored (stale files are
// harmless: recovery prefers the newest valid checkpoint).
func (m *Manager) publish(cp *trace.SessionCheckpoint, epoch int) error {
	tmp := wal.Join(m.dir, CkptFileName(epoch)+".tmp")
	f, err := m.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: create %s: %w", tmp, err)
	}
	w := wal.NewWriter(f)
	fail := func(err error) error {
		w.Close()
		m.fs.Remove(tmp)
		return fmt.Errorf("checkpoint: write ckpt %d: %w", epoch, err)
	}
	hdr := *cp
	hdr.Keys = nil
	b, err := json.Marshal(&hdr)
	if err != nil {
		return fail(err)
	}
	if err := w.Append(wal.RecordCkptHeader, b); err != nil {
		return fail(err)
	}
	for i := range cp.Keys {
		b, err := json.Marshal(&cp.Keys[i])
		if err != nil {
			return fail(err)
		}
		if err := w.Append(wal.RecordCkptKey, b); err != nil {
			return fail(err)
		}
	}
	b, err = json.Marshal(ckptFooter{Keys: len(cp.Keys)})
	if err != nil {
		return fail(err)
	}
	if err := w.Append(wal.RecordCkptFooter, b); err != nil {
		return fail(err)
	}
	if err := w.Sync(); err != nil {
		return fail(err)
	}
	size := w.Written()
	if err := w.Close(); err != nil {
		m.fs.Remove(tmp)
		return fmt.Errorf("checkpoint: close ckpt %d: %w", epoch, err)
	}
	if err := m.fs.Rename(tmp, wal.Join(m.dir, CkptFileName(epoch))); err != nil {
		m.fs.Remove(tmp)
		return fmt.Errorf("checkpoint: publish ckpt %d: %w", epoch, err)
	}
	m.lastCkptBytes.Store(size)
	m.checkpoints.Add(1)
	m.log.PurgeBefore(epoch)
	names, _ := m.fs.ReadDir(m.dir)
	for _, name := range names {
		if e, ok := parseCkptName(name); ok && e < epoch {
			m.fs.Remove(wal.Join(m.dir, name))
		}
	}
	return nil
}

// readCheckpoint loads and validates one checkpoint file. ok is false for
// any structural defect: unreadable, torn framing, missing or mismatched
// footer, undecodable records.
func (m *Manager) readCheckpoint(epoch int) (*trace.SessionCheckpoint, bool) {
	recs, torn, err := wal.ReadFile(m.fs, wal.Join(m.dir, CkptFileName(epoch)))
	if err != nil || torn != 0 || len(recs) < 2 {
		return nil, false
	}
	if recs[0].Type != wal.RecordCkptHeader || recs[len(recs)-1].Type != wal.RecordCkptFooter {
		return nil, false
	}
	var cp trace.SessionCheckpoint
	if json.Unmarshal(recs[0].Payload, &cp) != nil {
		return nil, false
	}
	var foot ckptFooter
	if json.Unmarshal(recs[len(recs)-1].Payload, &foot) != nil {
		return nil, false
	}
	body := recs[1 : len(recs)-1]
	if foot.Keys != len(body) {
		return nil, false
	}
	cp.Keys = make([]trace.KeyState, 0, len(body))
	for _, rec := range body {
		if rec.Type != wal.RecordCkptKey {
			return nil, false
		}
		var ks trace.KeyState
		if json.Unmarshal(rec.Payload, &ks) != nil {
			return nil, false
		}
		cp.Keys = append(cp.Keys, ks)
	}
	return &cp, true
}

// ---- spill store ----

// blobStore implements trace.BlobStore as one file per blob under the spill
// directory. Blobs are process-lifetime scratch (reconstructible from
// checkpoint + WAL), so Put does not fsync.
type blobStore struct {
	fs   faultfs.FS
	dir  string
	next atomic.Uint64
}

func (b *blobStore) name(id uint64) string { return fmt.Sprintf("seg-%016x.blob", id) }

func (b *blobStore) Put(data []byte) (uint64, error) {
	id := b.next.Add(1)
	f, err := b.fs.Create(wal.Join(b.dir, b.name(id)))
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return id, nil
}

func (b *blobStore) Get(id uint64) ([]byte, error) {
	return faultfs.ReadFile(b.fs, wal.Join(b.dir, b.name(id)))
}

func (b *blobStore) Del(id uint64) error {
	return b.fs.Remove(wal.Join(b.dir, b.name(id)))
}

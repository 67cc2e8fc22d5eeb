// Package wal implements the write-ahead log of the durable online
// verifier: CRC-framed records in one file per epoch, the epochs rotating at
// each checkpoint.
//
// Record framing follows the leveldb log idiom (the ROADMAP exemplar),
// simplified to unbounded records since our payloads are batch groups of
// at most a few hundred KiB:
//
//	crc    uint32 LE  — CRC-32C (Castagnoli) over type byte + payload
//	length uint32 LE  — payload length
//	type   byte       — record type (RecordBatch, RecordCkptHeader, ...)
//	payload[length]
//
// Torn tails truncate: a reader stops cleanly at the first incomplete or
// CRC-corrupt record, which is exactly the state a crash mid-append leaves
// behind. Writers are sticky — after any write error the writer refuses
// further appends, so a torn record is always the *last* record of its
// file and recovery never replays operations written after a failure the
// client was already told about.
//
// File layout under the data directory:
//
//	wal-ep%08d-s%04d.log — epoch E; S is 0000
//
// The S field is a shard number from data directories written with one file
// per ingest shard and an epoch. Recovery reads and PurgeBefore removes those
// files too; a log written today holds every shard's records in s0000.
//
// Epochs tie the log to checkpoints: checkpoint N snapshots exactly the
// state produced by the operations in epochs < N, so recovery restores the
// newest valid checkpoint and replays only epochs >= its number.
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"kat/internal/faultfs"
)

// Record types. Batch records carry ingest payloads; the Ckpt* types frame
// sections of a checkpoint file (package checkpoint reuses this framing so
// checkpoints get CRC and torn-tail detection for free).
const (
	RecordBatch      byte = 1
	RecordCkptHeader byte = 2
	RecordCkptKey    byte = 3
	RecordCkptFooter byte = 4
)

const headerSize = 4 + 4 + 1 // crc + length + type

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrSticky reports an append attempted after a prior write error; the
// writer refuses so a torn record is always terminal in its file.
var ErrSticky = errors.New("wal: writer failed earlier; refusing further appends")

// Writer frames records into one file with group-commit fsync: Sync is a
// no-op when nothing was written since the last Sync, so N logical commits
// that race into one quiet period cost one fsync.
type Writer struct {
	f       faultfs.File
	frame   []byte // one record, header and payload, framed for its one write
	written int64  // bytes appended
	synced  int64  // bytes known durable
	err     error  // sticky first error
}

// NewWriter wraps an open file the writer takes ownership of.
func NewWriter(f faultfs.File) *Writer { return &Writer{f: f} }

// Append frames one record and writes it in one call. Errors are sticky.
func (w *Writer) Append(typ byte, payload []byte) error {
	if w.err != nil {
		return ErrSticky
	}
	crc := crc32.Update(0, castagnoli, []byte{typ})
	crc = crc32.Update(crc, castagnoli, payload)
	b := binary.LittleEndian.AppendUint32(w.frame[:0], crc)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(append(b, typ), payload...)
	w.frame = b
	if _, err := w.f.Write(b); err != nil {
		w.err = err
		return err
	}
	w.written += int64(len(b))
	return nil
}

// Sync makes all appended records durable. Skips the fsync when nothing new
// was written — the group-commit fast path.
func (w *Writer) Sync() error {
	if w.err != nil {
		return ErrSticky
	}
	if w.synced == w.written {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return err
	}
	w.synced = w.written
	return nil
}

// Written returns the bytes appended so far (framing included).
func (w *Writer) Written() int64 { return w.written }

// Err returns the sticky error, if any.
func (w *Writer) Err() error { return w.err }

// Close closes the underlying file without syncing.
func (w *Writer) Close() error { return w.f.Close() }

// Record is one decoded record.
type Record struct {
	Type    byte
	Payload []byte
}

// ReadAll decodes every complete, CRC-valid record from r, stopping cleanly
// at the first torn or corrupt one. It returns the records, the count of
// trailing bytes discarded as torn (0 for a clean file), and any underlying
// read error other than the expected EOF forms.
func ReadAll(r io.Reader) (recs []Record, torn int64, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	off := 0
	for {
		if off+headerSize > len(data) {
			return recs, int64(len(data) - off), nil
		}
		crc := binary.LittleEndian.Uint32(data[off : off+4])
		length := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		typ := data[off+8]
		body := off + headerSize
		if length < 0 || body+length > len(data) {
			return recs, int64(len(data) - off), nil
		}
		got := crc32.Update(0, castagnoli, data[off+8:off+9])
		got = crc32.Update(got, castagnoli, data[body:body+length])
		if got != crc {
			return recs, int64(len(data) - off), nil
		}
		recs = append(recs, Record{Type: typ, Payload: data[body : body+length]})
		off = body + length
	}
}

// ReadFile decodes the records of one log file. A missing file is an error.
func ReadFile(fsys faultfs.FS, name string) ([]Record, int64, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return ReadAll(f)
}

// SyncPolicy selects when the epoch's log file is fsynced.
type SyncPolicy int

const (
	// SyncNever leaves durability to the OS (and the periodic checkpoint's
	// explicit syncs). Fastest; loses the page-cache tail on machine crash,
	// nothing on process crash.
	SyncNever SyncPolicy = iota
	// SyncBatch fsyncs the log file once per committed ingest batch — one
	// group fsync per acknowledged batch, skipped when an earlier fsync
	// already covered the batch's records; the default for -fsync=batch.
	SyncBatch
	// SyncAlways fsyncs after every shard-group append, before the ingest
	// lock is released. Strongest and slowest.
	SyncAlways
)

// ParseSyncPolicy maps flag spellings to policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "never", "":
		return SyncNever, nil
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want never, batch, or always)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	}
	return "unknown"
}

// Stats are the log's monotonic counters, safe to read concurrently.
type Stats struct {
	Fsyncs       int64 // fsync calls that actually hit the disk
	FsyncNanos   int64 // cumulative wall time inside those fsyncs
	Records      int64 // batch records appended
	Bytes        int64 // payload + framing bytes appended
	Rotations    int64 // epoch rotations
	EpochsPurged int64 // old epoch files garbage-collected
}

// Log is the epoch-rotating write-ahead log: one Writer, one file per
// epoch. AppendShard writes under mu, a short mutex that covers the write
// alone; callers hold the shard's ingest lock, so each key's records are in
// the file in the key's ingest order. No fsync holds mu: a committer notes
// how many bytes are written and fsyncs under syncMu held shared, so
// committers fsync in parallel while appends go on, and one whose bytes an
// fsync in flight covers waits for it instead. Only Rotate and Close, which
// swap or close the file, take syncMu exclusively.
type Log struct {
	fs     faultfs.FS
	dir    string
	policy SyncPolicy

	syncMu  sync.RWMutex // shared by fsyncs, exclusive to Rotate and Close
	mu      sync.Mutex   // guards w, syncing and epoch
	w       *Writer
	syncing int64     // the furthest an fsync of w was started to reach
	synced  sync.Cond // on mu; broadcast when an fsync of w ends
	epoch   int

	fsyncs     atomic.Int64
	fsyncNanos atomic.Int64
	records    atomic.Int64
	bytes      atomic.Int64
	rotations  atomic.Int64
	purged     atomic.Int64
}

// FileName returns the log file name (relative to the data dir) of one
// epoch+shard pair. The log writes shard 0 only; other shard numbers name the
// files of older data directories (see the package comment).
func FileName(epoch, shard int) string {
	return fmt.Sprintf("wal-ep%08d-s%04d.log", epoch, shard)
}

// ParseFileName inverts FileName; ok is false for non-WAL names.
func ParseFileName(name string) (epoch, shard int, ok bool) {
	var e, s int
	n, err := fmt.Sscanf(name, "wal-ep%08d-s%04d.log", &e, &s)
	if err != nil || n != 2 {
		return 0, 0, false
	}
	return e, s, true
}

// Open creates a Log writing epoch `epoch`'s file. The directory must
// already exist. shards is unused — the log keeps one file whatever the
// ingest shard count — and stays for bench/layers.go, which only a benchmark
// PR may edit; the next one drops the argument.
func Open(fsys faultfs.FS, dir string, shards, epoch int, policy SyncPolicy) (*Log, error) {
	f, err := fsys.Create(Join(dir, FileName(epoch, 0)))
	if err != nil {
		return nil, fmt.Errorf("wal: open epoch %d: %w", epoch, err)
	}
	l := &Log{fs: fsys, dir: dir, policy: policy, w: NewWriter(f), epoch: epoch}
	l.synced.L = &l.mu
	return l, nil
}

// Join is the one path rule of a data directory, behind the WAL, the
// checkpoints and the spill blobs: filepath.Join without pulling
// path/filepath into the hot-path package surface; data-dir layouts are flat
// so simple concatenation works across faultfs implementations (MemFS keys
// are plain strings).
func Join(dir, name string) string {
	if dir == "" || dir == "." {
		return name
	}
	return dir + "/" + name
}

// Epoch returns the current epoch number.
func (l *Log) Epoch() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// AppendShard logs one batch-group payload of shard s; s only names the
// group in errors. Called with shard s's ingest lock held, so each key's
// records keep its ingest order. Under SyncAlways the record is durable
// before return.
func (l *Log) AppendShard(s int, payload []byte) error {
	l.mu.Lock()
	err := l.w.Append(RecordBatch, payload)
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: shard %d append: %w", s, err)
	}
	l.records.Add(1)
	l.bytes.Add(int64(headerSize + len(payload)))
	if l.policy == SyncAlways {
		l.syncMu.RLock()
		defer l.syncMu.RUnlock()
		if err := l.sync(); err != nil {
			return fmt.Errorf("wal: shard %d sync: %w", s, err)
		}
	}
	return nil
}

// sync makes every record appended before the call durable and surfaces the
// sticky error. It issues no fsync when an earlier one covered the records,
// and waits for one in flight that will. The caller holds syncMu, shared or
// exclusive, so the file stays open.
func (l *Log) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	w, n := l.w, l.w.written
	for w.err == nil && w.synced < n && l.syncing >= n {
		l.synced.Wait()
	}
	if w.err != nil {
		return ErrSticky
	}
	if w.synced >= n {
		return nil
	}
	l.syncing = n
	l.mu.Unlock()
	start := time.Now()
	err := w.f.Sync()
	l.fsyncNanos.Add(time.Since(start).Nanoseconds())
	l.fsyncs.Add(1)
	l.mu.Lock()
	l.synced.Broadcast()
	if err != nil {
		w.err = cmp.Or(w.err, err)
		return err
	}
	w.synced = max(w.synced, n)
	return nil
}

// Commit makes every record appended so far durable under SyncBatch and
// SyncAlways, in at most one fsync, and surfaces sticky errors under all
// policies. Under SyncNever it does not fsync.
func (l *Log) Commit() error {
	l.syncMu.RLock()
	defer l.syncMu.RUnlock()
	var err error
	if l.policy == SyncNever {
		l.mu.Lock()
		err = l.w.Err()
		l.mu.Unlock()
	} else {
		err = l.sync()
	}
	if err != nil {
		return fmt.Errorf("wal: commit: %w", err)
	}
	return nil
}

// Rotate syncs and closes the current epoch's file and opens epoch
// `epoch`'s. The caller must guarantee no concurrent AppendShard (the
// checkpoint freeze holds every ingest lock); a concurrent Commit waits.
// If the new file cannot be created, the current epoch stays open and
// writable. Old epoch files stay on disk until PurgeBefore.
func (l *Log) Rotate(epoch int) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if cur := l.Epoch(); epoch <= cur {
		return fmt.Errorf("wal: rotate to epoch %d not after current %d", epoch, cur)
	}
	// Seal the outgoing epoch: even under SyncNever, an epoch boundary is a
	// durability boundary (the checkpoint that follows will claim to cover
	// everything before it).
	if err := l.sync(); err != nil {
		return fmt.Errorf("wal: rotate seal: %w", err)
	}
	f, err := l.fs.Create(Join(l.dir, FileName(epoch, 0)))
	if err != nil {
		return fmt.Errorf("wal: open epoch %d: %w", epoch, err)
	}
	l.mu.Lock()
	l.w.Close()
	l.w, l.syncing, l.epoch = NewWriter(f), 0, epoch
	l.mu.Unlock()
	l.rotations.Add(1)
	return nil
}

// PurgeBefore removes every WAL file of an epoch < epoch, found by name, so
// the files of an older directory's other shards go too. Called only after a
// checkpoint covering those epochs has been durably published. Removal
// failures are ignored (stale files are harmless — recovery replays from the
// checkpoint's epoch anyway).
func (l *Log) PurgeBefore(epoch int) {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if e, _, ok := ParseFileName(name); ok && e < epoch && l.fs.Remove(Join(l.dir, name)) == nil {
			l.purged.Add(1)
		}
	}
}

// Stats snapshots the counters.
func (l *Log) Stats() Stats {
	return Stats{
		Fsyncs:       l.fsyncs.Load(),
		FsyncNanos:   l.fsyncNanos.Load(),
		Records:      l.records.Load(),
		Bytes:        l.bytes.Load(),
		Rotations:    l.rotations.Load(),
		EpochsPurged: l.purged.Load(),
	}
}

// Close closes the epoch's file without rotating or syncing, once no fsync
// is in flight.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Close()
}

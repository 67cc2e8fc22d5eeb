package trace

// Batch-granular session ingest: the grouping argument (session.go has the
// overview of how operations enter the engine).
//
// A shard lock taken once per operation is correct, but at "many concurrent
// producers" rates the lock traffic itself dominates: every operation pays an
// acquire/release plus the cache-line bounce of the lock word. The batch
// entry points amortize that the way a lock-striped memtable does: parse
// (AppendTraceBatch), decode (AppendWire) or accept (AppendBatch) a whole
// chunk of operations, group them by ingest shard with one counting pass, and
// feed each shard's group under a single lock acquisition — lock acquisitions
// per operation drop by roughly the batch size over the shard count, and the
// decoders keep keys as bytes where they hold them, so the steady-state hot
// path allocates nothing. Append is the same path with a batch of one.
//
// Every door hands its operations to one generic feed through a batchView:
// keyedOps for a []KeyedOp (AppendBatch, Append), wireFrame for a decoded
// wire frame, textChunk for a parsed chunk of keyed text. Only the key's
// representation differs: a string, or bytes where the decoder holds them (a
// dictionary entry, a view into the read buffer), which the shard's key map
// is probed with as they are. Whatever the door, a durable session logs each
// shard group as one self-contained wire frame, encoded as the group is
// admitted (logOp), so one batch writes the same bytes through every door.
//
// Ordering: a key maps to exactly one shard and each shard's group
// preserves input order, so per-key arrival order — the only order the
// engine requires — is exactly preserved. What changes is interleaving
// granularity across producers: concurrent batches interleave at
// shard-group boundaries instead of operation boundaries, which is
// invisible to verdicts (keys never share state). Ingest remains
// non-transactional: when an operation is rejected mid-batch, operations
// already fed — including those of later input positions routed to
// earlier-processed shards — stay ingested, and the session error is
// sticky either way.

import (
	"fmt"
	"io"
	"slices"

	"kat/internal/history"
	"kat/internal/wire"
)

// KeyedOp pairs a register name with one operation — the element of the
// batch ingest path. It aliases the wire codec's element type, so binary
// frames decode straight into AppendBatch's input with no conversion.
type KeyedOp = wire.Op

// defaultBatchChunk is the AppendTraceBatch read-chunk size: large enough
// that a chunk spans thousands of operations (one shard-lock acquisition
// per shard per chunk), small enough to stay cache- and latency-friendly.
const defaultBatchChunk = 256 << 10

// batchView is how feed reads a batch: its length, and the i-th operation
// with its key, in input order.
type batchView[K string | []byte] interface {
	len() int
	at(i int) (K, *history.Operation)
}

// keyedOps is the batch view of a []KeyedOp.
type keyedOps []KeyedOp

func (b keyedOps) len() int                              { return len(b) }
func (b keyedOps) at(i int) (string, *history.Operation) { return b[i].Key, &b[i].Op }

// textChunk is one parsed chunk of keyed text: the operations in input order
// and each one's key, a view into the decoder's read buffer that is good
// until the next chunk is read.
type textChunk struct {
	ops  []history.Operation
	keys [][]byte
}

func (c *textChunk) len() int                              { return len(c.ops) }
func (c *textChunk) at(i int) ([]byte, *history.Operation) { return c.keys[i], &c.ops[i] }

// wireFrame is the batch view of a decoded wire frame, good until the next.
type wireFrame struct{ *wire.Frame }

func (f wireFrame) len() int                              { return len(f.Ops) }
func (f wireFrame) at(i int) ([]byte, *history.Operation) { return f.Key(f.IDs[i]), &f.Ops[i] }

// batchScratch holds the reusable grouping state of one in-flight batch
// call; a sync.Pool on the session recycles them so concurrent producers
// never share one and the steady-state path allocates nothing.
type batchScratch struct {
	dec    history.TextDecoder // AppendTraceBatch reader and parser; owns the read buffer
	text   textChunk           // AppendTraceBatch's current chunk
	wdec   *wire.Decoder       // AppendWire's frame decoder
	wenc   *wire.Encoder       // encodes a shard group for the write-ahead log
	shard  []int32             // i-th op's shard index
	counts []int32             // per-shard group size
	starts []int32             // counting-sort cursor, one per shard
	order  []int32             // op indices grouped by shard
	wal    []byte              // write-ahead encoding of one shard group
	one    [1]KeyedOp          // Append's batch
	// collect appends one parsed op to text. It is built once per scratch:
	// capturing per call would allocate on every batch.
	collect func(key []byte, op history.Operation) error
}

func (s *Session) getScratch() *batchScratch {
	if sc, ok := s.batchScratches.Get().(*batchScratch); ok {
		return sc
	}
	return &batchScratch{dec: history.TextDecoder{Keyed: true}}
}

func (s *Session) putScratch(sc *batchScratch) {
	// Don't retain the caller's key or reader past the call.
	sc.one[0] = KeyedOp{}
	sc.dec.Reset(nil, 0)
	s.batchScratches.Put(sc)
}

// feed is the one copy of the admission discipline every ingest door shares.
// It routes b's operations to their ingest shards (one counting sort, see
// group) and feeds each non-empty shard group under a single counted lock
// acquisition: gate recheck under the lock, one admission per operation in
// input order, and the sticky-error unwind. With a ShardLogger attached, the
// group's accepted prefix is logged before the lock releases — on the error
// exits too, so the log never misses an operation the engine admitted — as
// one self-contained wire frame encoded in the admission loop (logOp). Every
// exit releases the shard through unlockIngest, which publishes the group's
// counters. Returns the operations appended and the first error.
func feed[K string | []byte, B batchView[K]](s *Session, sc *batchScratch, b B) (int, error) {
	e := s.e
	n := b.len()
	if n == 0 {
		return 0, nil
	}
	sc.shard = slices.Grow(sc.shard[:0], n)[:n]
	for i := range sc.shard {
		key, _ := b.at(i)
		sc.shard[i] = int32(shardIndex(e, key))
	}
	sc.group(len(e.shards))
	logger := s.shardLogger()
	if logger != nil && sc.wenc == nil {
		sc.wenc = wire.NewEncoder()
		sc.wenc.SetSelfContained(true)
	}
	// The idleness clock of the sweep below: the whole batch arrived at once,
	// so its own operations are no evidence that any key has gone quiet (see
	// lifecycle.go, "Soundness"). Nothing sweeps without a TTL.
	var preWM int64
	if e.retireTTL > 0 {
		preWM = e.watermark()
	}
	appended := 0
	var start int32
	for si, sh := range e.shards {
		group := sc.order[start : start+sc.counts[si]]
		start += sc.counts[si]
		if len(group) == 0 {
			continue
		}
		sh.lockIngest()
		sh.walGroup++
		err := s.gate()
		accepted := 0
		for err == nil && accepted < len(group) {
			key, op := b.at(int(group[accepted]))
			ks, aerr := add(e, sh, key, *op)
			if err = s.stick(aerr); err == nil {
				accepted++
				if logger != nil {
					if lerr := logOp(sc.wenc, ks, *op); lerr != nil {
						err = s.stick(&DurabilityError{lerr})
					}
				}
			}
		}
		appended += accepted
		if logger != nil && sc.wenc.Pending() > 0 {
			// A failure here or above is sticky — the engine has admitted
			// operations its log does not hold — but an admission error,
			// already sticky, stays the one returned.
			sc.wal = sc.wenc.AppendFrame(sc.wal[:0])
			if lerr := logger.LogShardBatch(si, sc.wal); lerr != nil && err == nil {
				err = s.stick(&DurabilityError{lerr})
			}
		}
		e.unlockIngest(sh)
		if err != nil {
			return appended, err
		}
	}
	// No shard lock is held now: the retirement pass takes each in turn.
	return appended, s.sweepAllSticky(int64(appended), preWM)
}

// logOp appends op, just admitted to ks under its shard's lock, to the write-
// ahead record of the shard group being fed. The key is named by the id
// cached on ks, valid while ks.walTag is the shard's current group number:
// the key's first operation in a group lists its bytes, so every record
// decodes alone. The number is the shard's, bumped under its lock, because
// the encoder's scratch moves between producers and so cannot number groups.
func logOp(enc *wire.Encoder, ks *keyState, op history.Operation) error {
	if ks.walTag != ks.sh.walGroup {
		id, err := enc.ListKey(ks.key)
		if err != nil {
			return err
		}
		ks.walID, ks.walTag = id, ks.sh.walGroup
	}
	return enc.AddID(ks.walID, op)
}

// group builds sc.order: a counting sort of sc.shard into per-shard,
// input-ordered groups. After it returns, shard si's group is
// sc.order[start:start+counts[si]] with start = sum of earlier counts.
func (sc *batchScratch) group(nshards int) {
	sc.counts = slices.Grow(sc.counts[:0], nshards)[:nshards]
	sc.starts = slices.Grow(sc.starts[:0], nshards)[:nshards]
	sc.order = slices.Grow(sc.order[:0], len(sc.shard))[:len(sc.shard)]
	clear(sc.counts)
	for _, si := range sc.shard {
		sc.counts[si]++
	}
	var off int32
	for si, cnt := range sc.counts {
		sc.starts[si] = off
		off += cnt
	}
	for i, si := range sc.shard {
		sc.order[sc.starts[si]] = int32(i)
		sc.starts[si]++
	}
}

// commitBatch is the deferred tail of every ingest door: with a ShardLogger
// attached the call is the group-commit unit, so the logger commits once
// before the call returns — on the error exits too. err is the call's result;
// a commit failure does not displace an error already there.
func (s *Session) commitBatch(err *error) {
	if logger := s.shardLogger(); logger != nil {
		if cerr := s.commitLog(logger); *err == nil {
			*err = cerr
		}
	}
}

// AppendBatch feeds a batch of already-parsed operations, grouping them by
// ingest shard and taking each shard's lock once for its whole group
// instead of once per operation. It returns the number of operations
// appended and the first error, which is sticky exactly like Append's.
// Per-key input order is preserved; see the package comment in batch.go for
// the cross-producer interleaving and non-transactionality fine print.
//
// With a ShardLogger attached, a batch holding an operation its write-ahead
// record cannot carry — a key outside the trace grammar's alphabet, or a kind
// that is neither read nor write — is refused whole before any of it is
// admitted, and the session stays usable, as after a parse error.
func (s *Session) AppendBatch(ops []KeyedOp) (n int, err error) {
	if len(ops) == 0 {
		return 0, nil
	}
	if err = s.gate(); err != nil {
		return 0, err
	}
	if err = s.loggable(ops); err != nil {
		return 0, err
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	defer s.commitBatch(&err)
	return feed(s, sc, keyedOps(ops))
}

// Append routes one operation into its key's segment accumulator: a batch of
// one, held in the pooled scratch so the call allocates nothing. The
// operation's ID is assigned internally. Append blocks when verification
// falls behind: a segment it dispatches waits while it would carry the
// operations dispatched and not yet verified past 16 384 a worker
// (backpressure). A durable session refuses an operation it cannot log, as
// AppendBatch does.
func (s *Session) Append(key string, op history.Operation) (err error) {
	if err = s.gate(); err != nil {
		return err
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	sc.one[0] = KeyedOp{Key: key, Op: op}
	if err = s.loggable(sc.one[:]); err != nil {
		return err
	}
	defer s.commitBatch(&err)
	_, err = feed(s, sc, keyedOps(sc.one[:]))
	return err
}

// loggable checks, when a ShardLogger is attached, that every operation of
// ops can be written ahead: its key is in the trace grammar's alphabet and
// its kind is read or write. The text and wire decoders enforce both, so only
// the doors that take parsed operations ask.
func (s *Session) loggable(ops []KeyedOp) error {
	if s.shardLogger() == nil {
		return nil
	}
	for i := range ops {
		kop := &ops[i]
		if !wire.ValidKey(kop.Key) {
			return fmt.Errorf("trace: key %q cannot be logged: a durable session takes keys without whitespace, ';' or '#'", kop.Key)
		}
		if kind := kop.Op.Kind; kind != history.KindRead && kind != history.KindWrite {
			return fmt.Errorf("trace: operation kind %v on key %q cannot be logged: a durable session takes reads and writes", kind, kop.Key)
		}
	}
	return nil
}

// AppendWire streams binary wire frames from r into the session: each frame
// decodes into the reusable scratch — keys stay bytes in the decoder's
// dictionary, no string per key or operation — and feeds shard groups
// exactly like AppendBatch. Returns the number of operations actually
// appended. Frames decoded before a failure are already ingested; a
// malformed frame surfaces as a *wire.DecodeError carrying the stream byte
// offset, rejecting only this request (like a parse error on the text
// path), while engine admission errors are sticky exactly like Append's.
//
// When a ShardLogger is attached, each shard group is logged as a
// self-contained wire frame, and the call is the group-commit unit, exactly
// as on AppendTraceBatch.
func (s *Session) AppendWire(r io.Reader) (n int64, err error) {
	if err = s.gate(); err != nil {
		return 0, err
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	defer s.commitBatch(&err)
	if sc.wdec == nil {
		sc.wdec = wire.NewDecoder(r)
	} else {
		sc.wdec.Reset(r)
	}
	for {
		f, err := sc.wdec.NextFrame()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		added, err := feed(s, sc, wireFrame{f})
		n += int64(added)
		if err != nil {
			return n, err
		}
	}
}

// AppendTraceBatch streams the keyed text format from r into the session in
// batch-granular form: it reads chunks of input, parses every complete line
// with the zero-copy byte parser (keys stay views into the read buffer —
// no per-line or per-op string materializes), groups the chunk's operations
// by ingest shard, and feeds each shard's group under one lock acquisition.
// Returns the number of operations actually appended. Error semantics: any
// error aborts mid-stream with the operations before the failing one (in
// parse order; for admission errors, per shard group) already appended — on
// a parse error the chunk's operations before the bad segment are fed
// first. Engine admission errors (ErrOutOfOrder) are sticky exactly like
// Append's; parse and reader errors reject only this request and leave the
// session usable.
//
// When a ShardLogger is attached, the call is also the group-commit unit:
// accepted operations log shard-by-shard as chunks feed, and the logger
// commits once before the call returns — on the error exits too.
func (s *Session) AppendTraceBatch(r io.Reader) (n int64, err error) {
	if err = s.gate(); err != nil {
		return 0, err
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	defer s.commitBatch(&err)
	chunk := s.batchChunk
	if chunk <= 0 {
		chunk = defaultBatchChunk
	}
	sc.dec.Reset(r, chunk)
	if sc.collect == nil {
		sc.collect = func(key []byte, op history.Operation) error {
			sc.text.ops = append(sc.text.ops, op)
			sc.text.keys = append(sc.text.keys, key)
			return nil
		}
	}
	for {
		block, err := sc.dec.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		sc.text.ops, sc.text.keys = sc.text.ops[:0], sc.text.keys[:0]
		parseErr := sc.dec.Scan(block, sc.collect)
		added, err := feed(s, sc, &sc.text)
		n += int64(added)
		if err == nil {
			err = parseErr
		}
		if err != nil {
			return n, err
		}
	}
}

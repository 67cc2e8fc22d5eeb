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
// parse path keeps keys as views into the read buffer, so the steady-state
// hot path allocates nothing. Append is the same path with a batch of one.
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
	"io"

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

// batchScratch holds the reusable grouping state of one in-flight batch
// call; a sync.Pool on the session recycles them so concurrent producers
// never share one and the steady-state path allocates nothing.
type batchScratch struct {
	dec    history.TextDecoder // AppendTraceBatch reader and parser; owns the read buffer
	ops    []history.Operation // parsed operations, input order
	keys   [][]byte            // i-th op's key (view into dec's buffer)
	shard  []int32             // i-th op's shard index
	counts []int32             // per-shard group size
	starts []int32             // counting-sort cursor, one per shard
	order  []int32             // op indices grouped by shard
	wal    []byte              // write-ahead encoding of one shard group
	// kops aliases AppendBatch's input for the duration of one call, so the
	// cached feed closure can reach it without a per-call capture; one is
	// Append's batch.
	kops []KeyedOp
	one  [1]KeyedOp
	// wenc / wdec are the per-scratch wire codec state: wdec decodes
	// AppendWire request bodies, wenc re-frames each shard's accepted group
	// for the write-ahead log (self-contained, so recovery replays records
	// individually).
	wenc *wire.Encoder
	wdec *wire.Decoder
	// The closures below are built once per scratch — capturing per call
	// would allocate on every batch, breaking the zero-alloc hot path.
	// collect appends one parsed op into ops/keys (AppendTraceBatch);
	// feedKeyed / feedBytes hand op i to the engine for the two input
	// forms, both called by feedGrouped under the op's shard lock;
	// walKeyed / walBytes / walWire build one shard group's write-ahead
	// encoding (keyed text for the parsed paths, a wire frame for binary
	// ingest).
	collect   func(key []byte, op history.Operation) error
	feedKeyed func(sh *ingestShard, i int32) error
	feedBytes func(sh *ingestShard, i int32) error
	walKeyed  walEnc
	walBytes  walEnc
	walWire   walEnc
}

// walEnc builds the write-ahead encoding of one shard group: begin resets
// the encoder state, add appends accepted operation i, finish returns the
// encoded group (empty when nothing was accepted). Splitting the
// finalization out lets framed encodings (wire) emit their header/CRC once
// per group instead of per operation.
type walEnc struct {
	begin  func()
	add    func(i int32)
	finish func() []byte
}

func (s *Session) getScratch() *batchScratch {
	if sc, ok := s.batchScratches.Get().(*batchScratch); ok {
		return sc
	}
	return &batchScratch{dec: history.TextDecoder{Keyed: true}}
}

func (s *Session) putScratch(sc *batchScratch) {
	sc.ops = sc.ops[:0]
	sc.keys = sc.keys[:0]
	// Don't retain the caller's batch, key or reader past the call.
	sc.kops, sc.one[0] = nil, KeyedOp{}
	sc.dec.Reset(nil, 0)
	s.batchScratches.Put(sc)
}

// feedGrouped walks the grouped scratch (counts/order as built by group)
// and feeds each non-empty shard group under a single counted lock
// acquisition: gate recheck under the lock, one admission per operation,
// and the sticky-error unwind — the one copy of the locking discipline the
// batch entry points share. feed hands operation i to the engine (the input
// forms differ only there); enc, when a ShardLogger is attached, builds the
// shard group's write-ahead encoding, and the accepted prefix is logged
// before the lock releases — on the error exits too, so the log never
// misses an operation the engine admitted. Every exit releases the shard
// through unlockIngest, which publishes the group's counters. Returns the
// operations actually appended and the first error.
func (s *Session) feedGrouped(sc *batchScratch, feed func(sh *ingestShard, i int32) error, enc *walEnc) (int, error) {
	e := s.e
	appended := 0
	logger := s.shardLogger()
	// The idleness clock of the sweep below: the whole batch arrived at once,
	// so its own operations are no evidence that any key has gone quiet (see
	// lifecycle.go, "Soundness"). Nothing sweeps without a TTL.
	var preWM int64
	if e.retireTTL > 0 {
		preWM = e.watermark()
	}
	var start int32
	for si, sh := range e.shards {
		cnt := sc.counts[si]
		if cnt == 0 {
			continue
		}
		group := sc.order[start : start+cnt]
		start += cnt
		sh.lockIngest()
		if err := s.gate(); err != nil {
			e.unlockIngest(sh)
			return appended, err
		}
		if logger != nil {
			enc.begin()
		}
		for _, i := range group {
			if err := s.stick(feed(sh, i)); err != nil {
				if logger != nil {
					s.logShard(logger, si, enc.finish()) // accepted prefix; err already sticky
				}
				e.unlockIngest(sh)
				return appended, err
			}
			appended++
			if logger != nil {
				enc.add(i)
			}
		}
		if logger != nil {
			if err := s.logShard(logger, si, enc.finish()); err != nil {
				e.unlockIngest(sh)
				return appended, err
			}
		}
		e.unlockIngest(sh)
	}
	// No shard lock is held now: the retirement pass takes each in turn.
	return appended, s.sweepAllSticky(int64(appended), preWM)
}

// group builds sc.order: a counting sort of the first n entries of sc.shard
// into per-shard, input-ordered groups. After it returns, shard si's group
// is sc.order[start:start+counts[si]] with start = sum of earlier counts.
func (sc *batchScratch) group(n, nshards int) {
	if cap(sc.counts) < nshards {
		sc.counts = make([]int32, nshards)
		sc.starts = make([]int32, nshards)
	}
	sc.counts = sc.counts[:nshards]
	sc.starts = sc.starts[:nshards]
	for i := range sc.counts {
		sc.counts[i] = 0
	}
	for i := 0; i < n; i++ {
		sc.counts[sc.shard[i]]++
	}
	if cap(sc.order) < n {
		sc.order = make([]int32, n)
	}
	sc.order = sc.order[:n]
	var off int32
	for si := 0; si < nshards; si++ {
		sc.starts[si] = off
		off += sc.counts[si]
	}
	for i := 0; i < n; i++ {
		si := sc.shard[i]
		sc.order[sc.starts[si]] = int32(i)
		sc.starts[si]++
	}
}

// AppendBatch feeds a batch of already-parsed operations, grouping them by
// ingest shard and taking each shard's lock once for its whole group
// instead of once per operation. It returns the number of operations
// appended and the first error, which is sticky exactly like Append's.
// Per-key input order is preserved; see the package comment in batch.go for
// the cross-producer interleaving and non-transactionality fine print.
func (s *Session) AppendBatch(ops []KeyedOp) (int, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	if err := s.gate(); err != nil {
		return 0, err
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	return s.appendKeyed(sc, ops)
}

// Append routes one operation into its key's segment accumulator: a batch of
// one, held in the pooled scratch so the call allocates nothing. The
// operation's ID is assigned internally. Append blocks when verification
// falls behind the configured in-flight budget (backpressure).
func (s *Session) Append(key string, op history.Operation) error {
	if err := s.gate(); err != nil {
		return err
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	sc.one[0] = KeyedOp{Key: key, Op: op}
	_, err := s.appendKeyed(sc, sc.one[:])
	return err
}

// appendKeyed feeds keyed operations with the keyed-text write-ahead encoding
// and commits: the body of AppendBatch and Append.
func (s *Session) appendKeyed(sc *batchScratch, ops []KeyedOp) (int, error) {
	if sc.walKeyed.add == nil {
		sc.walKeyed = walEnc{
			begin: func() { sc.wal = sc.wal[:0] },
			add: func(i int32) {
				sc.wal = history.AppendOpText(sc.wal, sc.kops[i].Key, sc.kops[i].Op)
			},
			finish: func() []byte { return sc.wal },
		}
	}
	appended, err := s.feedKeyedOps(sc, ops, &sc.walKeyed)
	return appended, s.commitBatch(err)
}

// commitBatch is the tail of every batch entry point: with a ShardLogger
// attached the call is the group-commit unit, so the logger commits once
// before the call returns — on the error exits too. err is the feed's error,
// which a commit failure does not displace.
func (s *Session) commitBatch(err error) error {
	if logger := s.shardLogger(); logger != nil {
		if cerr := s.commitLog(logger); err == nil {
			err = cerr
		}
	}
	return err
}

// feedKeyedOps groups a slice of keyed operations by ingest shard and feeds
// the groups — the shared core of AppendBatch and the per-frame step of
// AppendWire, differing only in the write-ahead encoding.
func (s *Session) feedKeyedOps(sc *batchScratch, ops []KeyedOp, enc *walEnc) (int, error) {
	e := s.e
	n := len(ops)
	if cap(sc.shard) < n {
		sc.shard = make([]int32, n)
	}
	sc.shard = sc.shard[:n]
	for i := range ops {
		sc.shard[i] = int32(shardIndex(e, ops[i].Key))
	}
	sc.group(n, len(e.shards))
	sc.kops = ops
	if sc.feedKeyed == nil {
		sc.feedKeyed = func(sh *ingestShard, i int32) error {
			return add(s.e, sh, sc.kops[i].Key, sc.kops[i].Op)
		}
	}
	return s.feedGrouped(sc, sc.feedKeyed, enc)
}

// AppendWire streams binary wire frames from r into the session: each
// frame's operations decode into the reusable scratch — key strings
// interned per stream, no per-operation text — and feed shard groups
// exactly like AppendBatch. Returns the number of operations actually
// appended. Frames decoded before a failure are already ingested; a
// malformed frame surfaces as a *wire.DecodeError carrying the stream byte
// offset, rejecting only this request (like a parse error on the text
// path), while engine admission errors are sticky exactly like Append's.
//
// When a ShardLogger is attached, each shard group is re-framed as a
// self-contained wire frame — durable ingest logs binary when it received
// binary, never materializing text — and the call is the group-commit unit,
// exactly as on AppendTraceBatch.
func (s *Session) AppendWire(r io.Reader) (int64, error) {
	n, err := s.appendWire(r)
	return n, s.commitBatch(err)
}

func (s *Session) appendWire(r io.Reader) (int64, error) {
	if err := s.gate(); err != nil {
		return 0, err
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	if sc.wdec == nil {
		sc.wdec = wire.NewDecoder(r)
	} else {
		sc.wdec.Reset(r)
	}
	if sc.walWire.add == nil {
		sc.walWire = walEnc{
			begin: func() {
				if sc.wenc == nil {
					sc.wenc = wire.NewEncoder()
					sc.wenc.SetSelfContained(true)
				} else {
					sc.wenc.Reset()
				}
			},
			add: func(i int32) {
				// Keys and kinds came through the decoder, which enforces
				// the grammar alphabet and the kind set, so re-encoding
				// cannot fail.
				_ = sc.wenc.Add(sc.kops[i].Key, sc.kops[i].Op)
			},
			finish: func() []byte {
				sc.wal = sc.wenc.AppendFrame(sc.wal[:0])
				return sc.wal
			},
		}
	}
	var n int64
	for {
		ops, err := sc.wdec.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		added, ferr := s.feedKeyedOps(sc, ops, &sc.walWire)
		n += int64(added)
		if ferr != nil {
			return n, ferr
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
// parse order; for admission errors, per shard group) already appended.
// Engine admission errors (ErrOutOfOrder, ErrBufferLimit) are sticky
// exactly like Append's; parse and reader errors reject only this request
// and leave the session usable.
//
// When a ShardLogger is attached, the call is also the group-commit unit:
// accepted operations log shard-by-shard as chunks feed, and the logger
// commits once before the call returns — on the error exits too.
func (s *Session) AppendTraceBatch(r io.Reader) (int64, error) {
	n, err := s.appendTraceBatch(r)
	return n, s.commitBatch(err)
}

func (s *Session) appendTraceBatch(r io.Reader) (int64, error) {
	if err := s.gate(); err != nil {
		return 0, err
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	chunk := s.batchChunk
	if chunk <= 0 {
		chunk = defaultBatchChunk
	}
	sc.dec.Reset(r, chunk)
	var n int64
	for {
		block, err := sc.dec.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		added, err := s.ingestChunk(sc, block)
		n += int64(added)
		if err != nil {
			return n, err
		}
	}
}

// ingestChunk parses one chunk of complete lines into the scratch, groups
// by shard, and feeds each group under a single shard-lock acquisition.
// On a parse error the operations parsed before the failing segment are
// still ingested first (ingest is per-operation, not transactional), then
// the parse error is returned.
func (s *Session) ingestChunk(sc *batchScratch, data []byte) (int, error) {
	e := s.e
	sc.ops = sc.ops[:0]
	sc.keys = sc.keys[:0]
	if sc.collect == nil {
		sc.collect = func(key []byte, op history.Operation) error {
			sc.ops = append(sc.ops, op)
			sc.keys = append(sc.keys, key)
			return nil
		}
	}
	parseErr := sc.dec.Scan(data, sc.collect)
	n := len(sc.ops)
	if n == 0 {
		return 0, parseErr
	}
	if cap(sc.shard) < n {
		sc.shard = make([]int32, n)
	}
	sc.shard = sc.shard[:n]
	for i, key := range sc.keys {
		sc.shard[i] = int32(shardIndex(e, key))
	}
	sc.group(n, len(e.shards))
	if sc.feedBytes == nil {
		sc.feedBytes = func(sh *ingestShard, i int32) error {
			return add(s.e, sh, sc.keys[i], sc.ops[i])
		}
		sc.walBytes = walEnc{
			begin: func() { sc.wal = sc.wal[:0] },
			add: func(i int32) {
				sc.wal = history.AppendOpText(sc.wal, sc.keys[i], sc.ops[i])
			},
			finish: func() []byte { return sc.wal },
		}
	}
	appended, err := s.feedGrouped(sc, sc.feedBytes, &sc.walBytes)
	if err != nil {
		return appended, err
	}
	return appended, parseErr
}

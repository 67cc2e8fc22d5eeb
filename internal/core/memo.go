package core

import (
	"sync"
	"sync/atomic"

	"kat/internal/history"
)

// Memo is a concurrency-safe verdict cache keyed by work-unit content hash.
// The engine consults it before verifying a chunk (k=2 FZF) or handing a
// safe-cut segment to the oracle (fixed-k check, smallest-k climb): offline
// re-verification of overlapping traces — re-checking a trace that grew,
// many keys sharing identical traffic patterns — skips every unit whose
// content was already proved. It is an offline aid: content includes
// absolute timestamps, which never repeat in a live stream, so the
// streaming engine does not use it.
//
// Keys are 128-bit content hashes (two FNV-1a passes with distinct offset
// bases) over the unit's operations (kind, value, start, finish, weight)
// plus the query (unit kind and staleness bound). FNV-1a is not a
// cryptographic hash and the two passes are structurally related, so treat
// the memo as sound for stochastic workloads, not for adversarially chosen
// inputs — an attacker who engineers a simultaneous collision of both
// passes could plant a wrong cached verdict. Two mitigations bound the
// damage: positive fixed-k verdicts reconstruct their witness from the
// entry and still pass through the engine's independent witness
// re-validation (a collision there surfaces as an internal error, not a
// wrong YES), and disabling the memo (Options.Memo = nil) restores fully
// recomputed verdicts. Positive chunk and segment verdicts store the placed
// order in unit-relative coordinates, so a hit reconstructs the same
// witness the verifier would have produced. Entries are content-addressed
// and never invalidated; the memo stops storing (but keeps serving hits)
// once it reaches its entry cap.
//
// A single Memo may be shared by any number of concurrent verifications;
// share one across runs via Options.Memo.
type Memo struct {
	shards [memoShardCount]memoShard
	hits   atomic.Int64
	misses atomic.Int64
	size   atomic.Int64
}

const (
	memoShardCount = 16
	// memoMaxEntries bounds stored verdicts (~hundreds of MB worst case
	// with large witnesses; typically far less).
	memoMaxEntries = 1 << 20
)

type memoShard struct {
	mu sync.Mutex
	m  map[memoKey]memoEntry
}

// memo unit tags.
const (
	memoChunkFZF uint8 = iota + 1
	memoSegCheck
	memoSegSmallestK
)

type memoKey struct {
	h1, h2 uint64
	tag    uint8
	k      int32
}

type memoEntry struct {
	ok     bool
	k      int
	order  []int // unit-relative placed order for positive verdicts
	reason string
	tried  int
}

// NewMemo returns an empty verdict memo.
func NewMemo() *Memo { return &Memo{} }

// MemoStats reports cache effectiveness.
type MemoStats struct {
	// Hits and Misses count lookups.
	Hits, Misses int64
	// Entries is the number of stored verdicts.
	Entries int64
}

// Stats returns a snapshot of the memo's counters.
func (m *Memo) Stats() MemoStats {
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: m.size.Load()}
}

func (m *Memo) get(key memoKey) (memoEntry, bool) {
	sh := &m.shards[key.h1%memoShardCount]
	sh.mu.Lock()
	e, ok := sh.m[key]
	sh.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return e, ok
}

func (m *Memo) put(key memoKey, e memoEntry) {
	if m.size.Load() >= memoMaxEntries {
		return
	}
	sh := &m.shards[key.h1%memoShardCount]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[memoKey]memoEntry)
	}
	if _, dup := sh.m[key]; !dup {
		sh.m[key] = e
		m.size.Add(1)
	}
	sh.mu.Unlock()
}

// segment returns the verdict of one safe-cut segment unit (tag, k): the
// stored entry when the view's content was verified before, otherwise what
// compute returns, which is stored unless it failed. A nil Memo computes.
func (m *Memo) segment(view *history.Prepared, tag uint8, k int, compute func() (memoEntry, error)) (memoEntry, error) {
	if m == nil {
		return compute()
	}
	h1, h2 := hashOpsAll(view)
	key := memoKey{h1, h2, tag, int32(k)}
	if e, hit := m.get(key); hit {
		return e, nil
	}
	e, err := compute()
	if err == nil {
		m.put(key, e)
	}
	return e, err
}

// FNV-1a constants; the second pass uses a distinct offset basis so the two
// 64-bit digests are effectively independent.
const (
	fnvOffset1 = 14695981039346656037
	fnvOffset2 = 0x9e3779b97f4a7c15
	fnvPrime   = 1099511628211
)

type opHasher struct{ h1, h2 uint64 }

func newOpHasher() opHasher { return opHasher{fnvOffset1, fnvOffset2} }

func (h *opHasher) word(v uint64) {
	for i := 0; i < 8; i++ {
		b := byte(v >> (8 * i))
		h.h1 = (h.h1 ^ uint64(b)) * fnvPrime
		h.h2 = (h.h2 ^ uint64(b)) * fnvPrime
	}
}

func (h *opHasher) op(op history.Operation) {
	h.word(uint64(op.Kind))
	h.word(uint64(op.Value))
	h.word(uint64(op.Start))
	h.word(uint64(op.Finish))
	h.word(uint64(op.Weight))
}

// hashOpsSubset hashes the content of the selected operations (by index).
func hashOpsSubset(p *history.Prepared, idx []int) (uint64, uint64) {
	h := newOpHasher()
	h.word(uint64(len(idx)))
	for _, i := range idx {
		h.op(p.Op(i))
	}
	return h.h1, h.h2
}

// hashOpsAll hashes the content of every operation of the prepared history.
func hashOpsAll(p *history.Prepared) (uint64, uint64) {
	h := newOpHasher()
	h.word(uint64(p.Len()))
	for _, op := range p.H.Ops {
		h.op(op)
	}
	return h.h1, h.h2
}

// Package history defines the operation/history model from Section II of
// "On the k-Atomicity-Verification Problem" (Golab, Hurwitz, Li; ICDCS 2013):
// read and write operations on a single register, each with a real-time
// interval, the "precedes" partial order over operations, and the
// dictating-write / dictated-read relationship between writes and the reads
// that return their values.
//
// # From raw operations to Prepared
//
// Section II-C assumes, "without loss of generality", that all timestamps are
// distinct and that every write ends before the first of its dictated reads
// does, and that anomalous histories (a read without a dictating write, a
// read preceding its dictating write, two writes of one value) were screened
// out. One builder (PrepareScratch.Build; normalize.go and prepare.go)
// establishes the first two and detects the rest, in three linear passes and
// one sort of at most n packed words — the only sort of a segment's finishes
// on the verification path — allocating nothing at steady state:
//
//   - Pass 1 (index) renumbers IDs, enters each write into a value→write
//     table (valueindex.Table, the module's one value map, which the cut pass
//     and FindAnomalies fill too) and resolves each read once: its dictating
//     write, that write's read count, and the write's first-finishing read.
//     It also decides whether the history is anomalous. Only four anomalies
//     can survive normalization — a finish before its own start, a duplicate
//     value, a dangling read, a read finishing before its write starts — and
//     all four are decidable on the timestamps as given: ranking preserves
//     strict order and only separates ties, a start before a finish, so
//     "finishes before it starts" means the same before and after. (Tied
//     timestamps and long writes are what normalization repairs.) Which
//     anomaly is reported, and in what words, is left to FindAnomalies.
//   - Pass 2 (rank) makes the timestamps the dense ranks 0..2n-1 in the order
//     time, then start before finish (operations that merely touch stay
//     concurrent), then operation index — the distinct-timestamps assumption —
//     and emits the finish of a write that outlives its first-finishing read
//     immediately before that read's finish — the short-writes assumption. A
//     write's commit point cannot follow the finish of a read that returned
//     it, so no k-atomic order is lost. The earlier five-stage pipeline
//     ranked, doubled every rank, moved such a finish to 2·mrf−1 (mrf the
//     read's finish rank) and ranked again; the odd slot 2·mrf−1 lies above
//     every endpoint ranked below mrf and directly below mrf itself, which is
//     where the merge emits it. The starts arrive sorted, so only finishes
//     are sorted, packed as (time − min)<<bits | index. The merge emits the
//     finishes in rank order, so the pass also leaves the finish order
//     (Prepared.ByFinish), which every checker that walks clusters, zones or
//     frontiers by finish reads instead of sorting again.
//   - Pass 3 (carve) cuts the DictatedReads lists from the counts.
//
// Asked (PrepareScratch.Extremes), the builder also records each cluster's
// extremes on the input time scale — minimum finish, write start, maximum
// start (Prepared.Extremes) — in one pass after pass 1, before pass 2 rewrites
// the timestamps; Δ-atomicity depends on nothing else (package delta).
//
// Histories outside the packed form (starts out of order, IDs that are not
// indices, a time span too wide to pack) are first ranked by a general sort
// and put in start order by counting; the passes then run unchanged, with the
// same result (the input endpoints are saved first when extremes are asked
// for). Normalize is passes 1 and 2; the strict Prepare, which validates and
// never repairs, is passes 1 and 3 around a check that pass 2 would have
// changed nothing, and sorts the finishes once for the finish order.
// ref_test.go keeps the five-stage pipeline as the differential reference
// (FuzzPrepareEquivalence).
//
// # The text format
//
// The paper's input is "a history of operations with start and finish times";
// this is its spelling, a single register or — with a key after the kind — a
// multi-register trace (package trace):
//
//	w [key] value start finish [weight=N] [client=N]
//	r [key] value start finish [client=N]
//
// The write-ahead log, spill blobs, checkpoint bodies, the cluster router's
// per-member batches and kavgen -replay hold and exchange the keyed form, so
// the bytes are pinned (TestTextGoldenPin, trace.TestPersistedTextPinned) and
// text.go is the one place that reads or writes them. The rules:
//
//   - Operations are separated by '\n' or ';'; a '#' starts a comment that runs
//     to the end of its line; blank segments are skipped. White space at the
//     ends of a segment, Unicode space included, is trimmed (all that CRLF
//     input needs). An error names the segment by its position in the stream.
//   - Fields are separated by ASCII white space only, so a key is any run of
//     bytes other than that, ';' and '#' — the wire codec's key alphabet. The
//     kind is w, W, r or R; the numbers are decimal int64, sign optional.
//   - Attributes follow in any number and order, a later one overriding an
//     earlier: weight=N with N >= 1, client=N. Anything else is an error.
//   - The printer writes one line per operation, single spaces, weight only
//     above 1, client only when non-zero (so a negative one), '\n' at the end.
//
// ref_test.go keeps the string parser and the split-then-parse scanner this
// replaced as the differential references (FuzzParseOp,
// FuzzScanEquivalence).
package history

import (
	"cmp"
	"fmt"
	"slices"
)

// Kind distinguishes read operations from write operations.
type Kind uint8

const (
	// KindWrite is an operation that stores a value.
	KindWrite Kind = iota + 1
	// KindRead is an operation that retrieves a value.
	KindRead
)

// String returns "w" for writes and "r" for reads.
func (k Kind) String() string {
	switch k {
	case KindWrite:
		return "w"
	case KindRead:
		return "r"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Operation is a single read or write on the register. Times are abstract
// integer timestamps (the paper assumes accurately timestamped operations;
// see the TrueTime discussion in Section II-C). Start must be strictly less
// than Finish after normalization.
type Operation struct {
	// ID identifies the operation within its history. Prepare assigns
	// IDs equal to the operation's index in the prepared history.
	ID int
	// Kind says whether the operation is a read or a write.
	Kind Kind
	// Value is the value written (for writes) or returned (for reads).
	// The paper assumes each write assigns a distinct value.
	Value int64
	// Start is the invocation timestamp.
	Start int64
	// Finish is the response timestamp.
	Finish int64
	// Client optionally records the issuing client (informational).
	Client int
	// Weight is the write's weight for the weighted k-AV problem of
	// Section V. Zero is treated as 1 by the weighted checkers. Weights
	// on reads are ignored.
	Weight int64
}

// IsWrite reports whether the operation is a write.
func (op Operation) IsWrite() bool { return op.Kind == KindWrite }

// IsRead reports whether the operation is a read.
func (op Operation) IsRead() bool { return op.Kind == KindRead }

// Precedes reports whether op finishes strictly before other starts; this is
// the "precedes" partial order of Section II-A.
func (op Operation) Precedes(other Operation) bool { return op.Finish < other.Start }

// ConcurrentWith reports whether neither operation precedes the other.
func (op Operation) ConcurrentWith(other Operation) bool {
	return !op.Precedes(other) && !other.Precedes(op)
}

// EffectiveWeight returns the operation's weight, defaulting to 1.
func (op Operation) EffectiveWeight() int64 {
	if op.Weight <= 0 {
		return 1
	}
	return op.Weight
}

// History is a collection of operations on a single register. k-atomicity is
// a local property (Section II-B), so multi-register workloads are verified
// by building one History per register.
type History struct {
	// Ops holds the operations in no particular order unless the history
	// has been prepared (see Prepare), in which case they are sorted by
	// start time and IDs equal slice indices.
	Ops []Operation
}

// New returns a history over a copy of ops.
func New(ops []Operation) *History {
	cp := make([]Operation, len(ops))
	copy(cp, ops)
	return &History{Ops: cp}
}

// Len returns the number of operations.
func (h *History) Len() int { return len(h.Ops) }

// Clone returns a deep copy of the history.
func (h *History) Clone() *History {
	return New(h.Ops)
}

// Writes returns the number of write operations.
func (h *History) Writes() int {
	n := 0
	for _, op := range h.Ops {
		if op.IsWrite() {
			n++
		}
	}
	return n
}

// Reads returns the number of read operations.
func (h *History) Reads() int { return len(h.Ops) - h.Writes() }

// SortByStart sorts operations by start time (ties broken by finish, then
// original ID) and renumbers IDs to slice indices.
func (h *History) SortByStart() {
	slices.SortFunc(h.Ops, func(a, b Operation) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Finish, b.Finish); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	for i := range h.Ops {
		h.Ops[i].ID = i
	}
}

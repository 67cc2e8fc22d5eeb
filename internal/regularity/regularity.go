// Package regularity implements the classical weak register properties the
// paper contrasts with k-atomicity in Section I: Lamport's safety and
// regularity. The paper's point — reproduced by experiment E11 — is that
// these properties cannot describe sloppy-quorum behavior: a read that is
// NOT concurrent with any write must return the single most recent preceding
// value, so any stale-but-bounded read (exactly what k=2 tolerates) already
// violates them, while reads overlapping writes are allowed almost anything.
//
// Definitions used (multi-writer generalizations, per-read):
//
//   - A read is SAFE if, when it is concurrent with no write, it returns the
//     value of some maximal preceding write (one not followed by another
//     write that still precedes the read). Reads concurrent with any write
//     may return anything that was ever written.
//   - A read is REGULAR if it returns the value of some maximal preceding
//     write or of some write concurrent with it.
//
// With concurrent writers the "latest preceding write" is not unique; the
// maximal-preceding-writes set is the standard multi-writer relaxation.
// Both checks are per-read (no global total order is sought), which is why
// they are weaker than 1-atomicity and incomparable to k-atomicity for
// k >= 2 — histories exist that are 2-atomic but not regular and vice versa.
//
// Cost: one sweep over the prepared history, linear but for a binary search
// over the write starts per read that is not regular, with no sort (the
// writes' finish order is the prepared one) and, through Count on a reused
// Scratch, no allocation — the form the streaming engine runs per segment.
package regularity

import (
	"fmt"
	"slices"

	"kat/internal/history"
)

// Verdict reports which per-read properties hold for a history.
type Verdict struct {
	// Safe is true if every read satisfies the safety rule.
	Safe bool
	// Regular is true if every read satisfies the regularity rule.
	Regular bool
	// UnsafeReads and IrregularReads list offending read indices in the
	// prepared history.
	UnsafeReads    []int
	IrregularReads []int
}

// Check classifies every read of the prepared history in one sweep,
// O(n log n) total instead of the naive O(n) scan per read.
//
// Prepared histories are sorted by start time, so visiting reads in index
// order visits them in nondecreasing start order. Two views of the writes
// answer both per-read questions, and neither is sorted here:
//
//   - The maximal-preceding-write FRONTIER: writes in finish order, read off
//     the prepared finish order (Prepared.ByFinish) by one cursor. While
//     sweeping reads by start, every write with finish < r.Start has "entered
//     the frontier"; tracking the maximum start among them decides regularity
//     — a dictating write w (with w preceding r) is maximal iff no frontier
//     write starts after w finishes.
//   - Write starts, in index order and so sorted: the number of writes
//     CONCURRENT with r equals #(writes with start <= r.Finish) − #(writes
//     with finish < r.Start); the first term is a binary search, the second
//     is the frontier size (every write finishing before r.Start also starts
//     before it, so the subtraction counts exactly the overlapping writes).
//     Safety needs only whether that count is nonzero, and only for a read
//     that is not regular.
func Check(p *history.Prepared) Verdict {
	v := Verdict{}
	unsafe, irregular := new(Scratch).sweep(p, &v)
	v.Safe, v.Regular = unsafe == 0, irregular == 0
	return v
}

// Scratch holds the sweep's one buffer, the write starts, so a caller that
// checks a stream of histories (the streaming engine, once per segment)
// allocates nothing once it has grown.
type Scratch struct {
	starts []int64
}

// Count is Check's count-only form on s's buffer: the numbers of unsafe and
// irregular reads, without the lists.
func Count(p *history.Prepared, s *Scratch) (unsafe, irregular int) {
	return s.sweep(p, nil)
}

// sweep counts p's unsafe and irregular reads and, when lists is non-nil,
// appends their indices to it.
func (s *Scratch) sweep(p *history.Prepared, lists *Verdict) (unsafe, irregular int) {
	ops := p.H.Ops
	s.starts = s.starts[:0]
	for i := range ops {
		if ops[i].IsWrite() {
			s.starts = append(s.starts, ops[i].Start)
		}
	}
	next := 0     // cursor into p.ByFinish
	frontier := 0 // writes with finish < current read's start
	var maxStart int64
	for r := range ops {
		rop := &ops[r]
		if !rop.IsRead() {
			continue
		}
		for ; next < len(ops) && ops[p.ByFinish[next]].Finish < rop.Start; next++ {
			if w := &ops[p.ByFinish[next]]; w.IsWrite() {
				if frontier == 0 || w.Start > maxStart {
					maxStart = w.Start
				}
				frontier++
			}
		}
		wop := &ops[p.DictatingWrite[r]]
		var okReg bool
		switch {
		case wop.ConcurrentWith(*rop):
			okReg = true
		case !wop.Precedes(*rop):
			okReg = false // read before its write: anomalous, never regular
		default:
			// w precedes r: regular iff w is maximal — no write both
			// follows w and still precedes r. Frontier writes are exactly
			// those preceding r; one follows w iff it starts after w ends.
			okReg = frontier == 0 || maxStart <= wop.Finish
		}
		if okReg {
			continue
		}
		irregular++
		if lists != nil {
			lists.IrregularReads = append(lists.IrregularReads, r)
		}
		// Safe iff regular or concurrent with at least one write (then any
		// written value is allowed).
		startLE, _ := slices.BinarySearchFunc(s.starts, rop.Finish, func(start, f int64) int {
			if start <= f {
				return -1
			}
			return 1
		})
		if startLE == frontier {
			unsafe++
			if lists != nil {
				lists.UnsafeReads = append(lists.UnsafeReads, r)
			}
		}
	}
	return unsafe, irregular
}

// Summary renders the verdict compactly.
func (v Verdict) Summary() string {
	return fmt.Sprintf("safe=%v regular=%v (unsafe reads: %d, irregular reads: %d)",
		v.Safe, v.Regular, len(v.UnsafeReads), len(v.IrregularReads))
}

package zone

// Safe segment cuts.
//
// A position i of a prepared history (sorted by start time) is a safe cut
// when
//
//	(a) every operation before i finishes before every operation at or
//	    after i starts (real-time quiescence), and
//	(b) no read at or after i returns a value written before i
//	    (value-closedness).
//
// Splitting at safe cuts preserves k-atomicity for every k: condition (a)
// forces any total order consistent with real time to place the whole prefix
// before the whole suffix, so a candidate witness is exactly a witness for
// the prefix followed by one for the suffix; condition (b) keeps every
// read's dictating write on the read's own side, so the writes between a
// dictating write and its read in the concatenated order are precisely the
// writes between them in that side's order. Hence the history is k-atomic
// iff both sides are, and the smallest k of the whole history is the
// maximum of the sides' smallest k.
//
// This is the same structural boundary the chunk decomposition exploits: a
// chunk's zones all overlap the chunk interval, so a safe cut can never
// bisect a chunk — every safe cut falls between chunks (or next to dangling
// clusters). The streaming segmenter in internal/trace discovers condition
// (a) online via Quiescent and enforces (b) by merging segments a read
// refers back into.

import (
	"slices"

	"kat/internal/history"
)

// Quiescent reports whether a cut may be placed between two operation
// groups: maxFinishBefore is the maximum finish time of every earlier
// operation and nextStart the minimum start time of every later one.
// Quiescence requires every earlier operation to strictly precede every
// later one. This is the streaming cut primitive: a parser that sees
// operations in nondecreasing start order per key can commit a cut the
// moment an arriving operation satisfies it.
func Quiescent(maxFinishBefore, nextStart int64) bool {
	return maxFinishBefore < nextStart
}

// SafeCut reports whether position i is a safe segment boundary of the
// prepared history: ops[:i] and ops[i:] are quiescent and value-closed as
// defined above. Positions 0 and Len() are trivially safe (empty side).
func SafeCut(p *history.Prepared, i int) bool {
	n := p.Len()
	if i <= 0 || i >= n {
		return i == 0 || i == n
	}
	maxFinish := p.Op(0).Finish
	for j := 1; j < i; j++ {
		if f := p.Op(j).Finish; f > maxFinish {
			maxFinish = f
		}
	}
	if !Quiescent(maxFinish, p.Op(i).Start) {
		return false
	}
	for j := i; j < n; j++ {
		if w := p.DictatingWrite[j]; w >= 0 && w < i {
			return false
		}
	}
	return true
}

// Cuts returns every interior safe cut position of the prepared history in
// increasing order (the trivial cuts 0 and Len() are omitted). Runs in
// O(n): a prefix maximum of finish times checks quiescence and a suffix
// minimum of dictating-write indices checks value-closedness.
func Cuts(p *history.Prepared) []int {
	out, _ := CutsAppend(p, nil, nil)
	return out
}

// CutsAppend is Cuts appending to out and reusing minDW's capacity for its
// suffix minima, so a caller that cuts a stream of histories allocates
// nothing once both have grown. It returns the extended out and the buffer.
func CutsAppend(p *history.Prepared, out, minDW []int) ([]int, []int) {
	n := p.Len()
	if n < 2 {
		return out, minDW
	}
	// minDW[i] = minimum dictating-write index over reads in ops[i:]
	// (n when the suffix has no reads).
	minDW = slices.Grow(minDW[:0], n+1)[:n+1]
	minDW[n] = n
	for i := n - 1; i >= 0; i-- {
		minDW[i] = minDW[i+1]
		if w := p.DictatingWrite[i]; w >= 0 && w < minDW[i] {
			minDW[i] = w
		}
	}
	maxFinish := p.Op(0).Finish
	for i := 1; i < n; i++ {
		if Quiescent(maxFinish, p.Op(i).Start) && minDW[i] >= i {
			out = append(out, i)
		}
		if f := p.Op(i).Finish; f > maxFinish {
			maxFinish = f
		}
	}
	return out, minDW
}

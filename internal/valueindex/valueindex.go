// Package valueindex is the streaming engine's per-key value index: for every
// value a key's closed segments wrote, the sequence number of the segment
// that wrote it. Written values are unique per key (the paper's §II
// assumption), so a read finds its dictating write's segment by value alone,
// and a value entered twice is a duplicate-write anomaly.
//
// The index is never pruned before its key retires (a deep stale read must
// still be told from a dangling one), so it is the term of a key's state
// that grows with the trace. Most traces write consecutive values on a key —
// counters, per-key sequence numbers, a generator counting 1, 2, 3 — and a
// window closes over a gap-free stretch of them, so the index has two parts:
//
//   - runs: a sorted slice of 16-byte (lo, count, seq) entries, each at least
//     two consecutive values one segment wrote. A run is only ever appended
//     above the highest one, so the slice stays sorted and disjoint with no
//     insertion in the middle, and a lookup is a binary search. A run costs
//     16 bytes however long it is.
//   - a flat table for every other value: open addressing with linear
//     probing over a power-of-two array of 12-byte slots — the value's two
//     halves and the sequence number plus one, zero marking an empty slot —
//     kept at most three quarters full, so a value costs 16 to 32 bytes and a
//     lookup is a multiply, a shift and, almost always, one cache line. A
//     single value, a value below the highest run (a straggler that crossed
//     a cut) and a random value all land here. A key whose values all fall in
//     runs never allocates the table.
//
// The engine enters a closing window's writes in one call (Add), which sorts
// them, gathers the runs, and grows the table at most once for the rest.
// What the runs are depends only on the values each segment stored and the
// order the segments closed in, so a restore that hands every segment's
// values back through Add, in segment order, rebuilds the same runs. There is
// no delete: a key's index only ever learns values.
//
// An Index is not safe for concurrent use (its key's shard lock guards it).
package valueindex

import (
	"math"
	"slices"
)

// Index maps written values to non-negative segment sequence numbers. The
// zero Index is empty and holds no memory.
type Index struct {
	runs []run  // ascending and disjoint
	tab  *table // nil until a value lands outside the runs
}

// table is the open-addressing part of an Index.
type table struct {
	slots []slot
	shift uint8 // 64 - log2(len(slots)): a hash's top bits pick the home slot
	n     int   // values in slots
}

// run is count consecutive values from lo, all written by segment seq.
type run struct {
	lo    int64
	count uint32
	seq   int32
}

// slot is one (value, seq) pair; seq1 is the sequence number plus one, so
// a zero slot is empty.
type slot struct {
	lo, hi uint32
	seq1   uint32
}

// minSlots is the size of a table's first array.
const minSlots = 8

// home returns v's first probe position: Fibonacci hashing, whose top bits
// spread the runs of consecutive values a trace writes over the whole array.
func (x *table) home(v int64) int {
	return int(uint64(v) * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns the slot holding v, or the empty slot where it belongs. The
// table must have slots, and at least one of them empty.
func (x *table) find(v int64) *slot {
	lo, hi := uint32(v), uint32(uint64(v)>>32)
	mask := len(x.slots) - 1
	for i := x.home(v); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.seq1 == 0 || s.lo == lo && s.hi == hi {
			return s
		}
	}
}

// inRun returns the run holding v, or nil.
func (x *Index) inRun(v int64) *run {
	// i ends at the number of runs that start at or below v.
	i, j := 0, len(x.runs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if x.runs[h].lo <= v {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == 0 {
		return nil
	}
	if r := &x.runs[i-1]; uint64(v)-uint64(r.lo) < uint64(r.count) {
		return r
	}
	return nil
}

// Get returns the sequence number stored for v.
func (x *Index) Get(v int64) (seq int32, ok bool) {
	if r := x.inRun(v); r != nil {
		return r.seq, true
	}
	if x.tab == nil || x.tab.n == 0 {
		return 0, false
	}
	if s := x.tab.find(v); s.seq1 != 0 {
		return int32(s.seq1 - 1), true
	}
	return 0, false
}

// Add stores every value of vs under seq unless it is already present — in
// the index, or earlier in vs — and returns how many it stored; the first
// sequence number stored for a value stays. vs is scratch: Add sorts it and
// overwrites it. seq must not be negative.
//
// Each maximal stretch of at least two consecutive new values above the
// highest run becomes one run; every other new value goes into the table,
// which grows at most once per call.
func (x *Index) Add(vs []int64, seq int32) int {
	slices.Sort(vs)
	top, have := int64(0), len(x.runs) > 0 // top: the highest run's last value
	if have {
		r := &x.runs[len(x.runs)-1]
		top = r.lo + int64(r.count) - 1
	}
	// The values bound for the table move to vs[:singles], which is never
	// past the value being read.
	stored, singles := 0, 0
	cur := run{seq: seq} // the run being gathered; count 0 before the first
	prev := int64(0)
	end := func() {
		switch {
		case cur.count >= 2:
			x.runs = append(x.runs, cur)
			stored += int(cur.count)
			top, have = cur.lo+int64(cur.count)-1, true
		case cur.count == 1:
			vs[singles] = cur.lo
			singles++
		}
	}
	for i, v := range vs {
		if i > 0 && v == prev {
			continue
		}
		prev = v
		switch {
		case have && v <= top:
			// At or below the highest run: in a run already, or for the table.
			if x.inRun(v) == nil {
				vs[singles] = v
				singles++
			}
		case x.tab != nil && x.tab.n > 0 && x.tab.find(v).seq1 != 0:
			// Stored in the table already; the gap it leaves ends the run.
		case cur.count > 0 && v == cur.lo+int64(cur.count) && cur.count < math.MaxUint32:
			cur.count++
		default:
			end()
			cur.lo, cur.count = v, 1
		}
	}
	end()
	if singles == 0 {
		return stored
	}
	if x.tab == nil {
		x.tab = new(table)
	}
	x.tab.reserve(singles)
	for _, v := range vs[:singles] {
		if x.tab.put(v, seq) {
			stored++
		}
	}
	return stored
}

// put stores v under seq in the table unless it is there already, and
// reports whether it stored it.
func (x *table) put(v int64, seq int32) bool {
	if 4*(x.n+1) > 3*len(x.slots) {
		x.grow(x.n + 1)
	}
	s := x.find(v)
	if s.seq1 != 0 {
		return false
	}
	*s = slot{lo: uint32(v), hi: uint32(uint64(v) >> 32), seq1: uint32(seq) + 1}
	x.n++
	return true
}

// reserve makes room in the table for n more values, so the next n puts do
// not grow it: at most one reallocation, however many values are coming.
func (x *table) reserve(n int) {
	if need := x.n + n; 4*need > 3*len(x.slots) {
		x.grow(need)
	}
}

// grow moves the table into the smallest array that holds need values at
// most three quarters full.
func (x *table) grow(need int) {
	size, shift := minSlots, uint8(61)
	for 3*size < 4*need {
		size, shift = 2*size, shift-1
	}
	old := x.slots
	x.slots, x.shift = make([]slot, size), shift
	for i := range old {
		if s := old[i]; s.seq1 != 0 {
			*x.find(int64(uint64(s.hi)<<32 | uint64(s.lo))) = s
		}
	}
}

// AppendPairs appends every (value, seq) pair of the index to dst, in no
// particular order.
func (x *Index) AppendPairs(dst [][2]int64) [][2]int64 {
	for _, r := range x.runs {
		for i := range int64(r.count) {
			dst = append(dst, [2]int64{r.lo + i, int64(r.seq)})
		}
	}
	if x.tab == nil {
		return dst
	}
	for _, s := range x.tab.slots {
		if s.seq1 != 0 {
			dst = append(dst, [2]int64{int64(uint64(s.hi)<<32 | uint64(s.lo)), int64(s.seq1 - 1)})
		}
	}
	return dst
}

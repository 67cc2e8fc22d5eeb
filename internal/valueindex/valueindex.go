// Package valueindex is the streaming engine's per-key value index: for every
// value a key's closed segments wrote, the sequence number of the segment
// that wrote it. Written values are unique per key (the paper's §II
// assumption), so a read finds its dictating write's segment by value alone,
// and a value entered twice is a duplicate-write anomaly.
//
// The index is never pruned before its key retires (a deep stale read must
// still be told from a dangling one), so it is the term of a key's state
// that grows with the trace. It is one flat table: open addressing with
// linear probing over a power-of-two array of 12-byte slots — the value's two
// halves and the sequence number plus one, zero marking an empty slot — kept
// at most three quarters full, so a value costs 16 to 32 bytes and a lookup
// is a multiply, a shift and, almost always, one cache line. A Go
// map[int64]int32 costs about as many bytes but pays a general hash function
// and the map's own indirections on every probe.
//
// The engine enters a closing window's writes together, so it reserves room
// for all of them first (Reserve) and the table grows at most once per
// close; Put still grows on its own, so no caller depends on reserving. There
// is no delete: a key's index only ever learns values.
//
// An Index is not safe for concurrent use (its key's shard lock guards it).
package valueindex

// Index maps written values to non-negative segment sequence numbers. The
// zero Index is empty and holds no memory.
type Index struct {
	slots []slot
	shift uint8 // 64 - log2(len(slots)): a hash's top bits pick the home slot
	n     int
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
func (x *Index) home(v int64) int {
	return int(uint64(v) * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns the slot holding v, or the empty slot where it belongs. The
// table must have slots, and at least one of them empty.
func (x *Index) find(v int64) *slot {
	lo, hi := uint32(v), uint32(uint64(v)>>32)
	mask := len(x.slots) - 1
	for i := x.home(v); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.seq1 == 0 || s.lo == lo && s.hi == hi {
			return s
		}
	}
}

// Get returns the sequence number stored for v.
func (x *Index) Get(v int64) (seq int32, ok bool) {
	if x.n == 0 {
		return 0, false
	}
	if s := x.find(v); s.seq1 != 0 {
		return int32(s.seq1 - 1), true
	}
	return 0, false
}

// Put stores v under seq unless v is already present, and reports whether it
// stored it; the first sequence number stored for a value stays. seq must not
// be negative.
func (x *Index) Put(v int64, seq int32) bool {
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

// Reserve makes room for n more values, so the next n Puts do not grow the
// table: at most one reallocation, however many values are coming.
func (x *Index) Reserve(n int) {
	if need := x.n + n; 4*need > 3*len(x.slots) {
		x.grow(need)
	}
}

// grow moves the table into the smallest array that holds need values at
// most three quarters full.
func (x *Index) grow(need int) {
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
	for _, s := range x.slots {
		if s.seq1 != 0 {
			dst = append(dst, [2]int64{int64(uint64(s.hi)<<32 | uint64(s.lo)), int64(s.seq1 - 1)})
		}
	}
	return dst
}

package history

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Errors reported while preparing a history for verification.
var (
	// ErrDuplicateValue indicates two writes stored the same value,
	// violating the unique-values assumption of Section II-C.
	ErrDuplicateValue = errors.New("history: duplicate written value")
	// ErrInvertedInterval indicates an operation with Finish <= Start.
	ErrInvertedInterval = errors.New("history: operation finish not after start")
	// ErrDuplicateTimestamp indicates two endpoints share a timestamp,
	// violating the distinct-timestamps assumption of Section II-C.
	// Normalize repairs this.
	ErrDuplicateTimestamp = errors.New("history: duplicate endpoint timestamp")
	// ErrDanglingRead indicates a read whose value no write stored
	// (anomaly; Section II-C assumes these were screened out).
	ErrDanglingRead = errors.New("history: read without dictating write")
	// ErrReadBeforeWrite indicates a read that precedes its dictating
	// write (anomaly; Section II-C assumes these were screened out).
	ErrReadBeforeWrite = errors.New("history: read precedes its dictating write")
	// ErrLongWrite indicates a write that does not end before the minimum
	// finish time of its dictated reads. Normalize repairs this by
	// shortening the write (Section II-C).
	ErrLongWrite = errors.New("history: write ends after a dictated read finishes")
)

// AnomalyKind classifies assumption violations found in a history.
type AnomalyKind uint8

const (
	// AnomalyDuplicateValue marks a pair of writes with the same value.
	AnomalyDuplicateValue AnomalyKind = iota + 1
	// AnomalyInvertedInterval marks an operation with Finish <= Start.
	AnomalyInvertedInterval
	// AnomalyDuplicateTimestamp marks endpoints sharing a timestamp.
	AnomalyDuplicateTimestamp
	// AnomalyDanglingRead marks a read without a dictating write.
	AnomalyDanglingRead
	// AnomalyReadBeforeWrite marks a read preceding its dictating write.
	AnomalyReadBeforeWrite
	// AnomalyLongWrite marks a write ending after a dictated read's finish.
	AnomalyLongWrite
)

// String names the anomaly kind.
func (k AnomalyKind) String() string {
	switch k {
	case AnomalyDuplicateValue:
		return "duplicate-value"
	case AnomalyInvertedInterval:
		return "inverted-interval"
	case AnomalyDuplicateTimestamp:
		return "duplicate-timestamp"
	case AnomalyDanglingRead:
		return "dangling-read"
	case AnomalyReadBeforeWrite:
		return "read-before-write"
	case AnomalyLongWrite:
		return "long-write"
	default:
		return fmt.Sprintf("AnomalyKind(%d)", uint8(k))
	}
}

// Anomaly describes one assumption violation.
type Anomaly struct {
	Kind AnomalyKind
	// OpIDs identifies the offending operation(s) by ID.
	OpIDs []int
}

// String renders the anomaly for diagnostics.
func (a Anomaly) String() string {
	return fmt.Sprintf("%s ops=%v", a.Kind, a.OpIDs)
}

// valueEntry pairs a written value with its write's index; sorted by value
// (ties by index) it replaces the seed's map[int64]int lookups with binary
// search over a single contiguous allocation.
type valueEntry struct {
	value int64
	write int
}

// sortValueEntries orders entries by value, ties by write index, so that a
// run of duplicates starts at the earliest write.
func sortValueEntries(vi []valueEntry) {
	slices.SortFunc(vi, func(a, b valueEntry) int {
		if c := cmp.Compare(a.value, b.value); c != 0 {
			return c
		}
		return cmp.Compare(a.write, b.write)
	})
}

// lookupValue binary-searches the sorted index and returns the position of
// the first entry for value, or -1. Open-coded (not slices.BinarySearchFunc)
// because it sits on the per-read hot path of Prepare and FindAnomalies.
func lookupValue(vi []valueEntry, value int64) int {
	lo, hi := 0, len(vi)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vi[mid].value < value {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(vi) && vi[lo].value == value {
		return lo
	}
	return -1
}

// FindAnomalies scans a history for all assumption violations of
// Section II-C. Repairable violations (duplicate timestamps, long writes)
// are fixed by Normalize; the rest make every k-AV answer trivially NO
// (dangling read, read-before-write) or the input malformed.
func FindAnomalies(h *History) []Anomaly {
	writes := make([]valueEntry, 0, len(h.Ops))
	for i, op := range h.Ops {
		if op.IsWrite() {
			writes = append(writes, valueEntry{op.Value, i})
		}
	}
	sortValueEntries(writes)
	return findAnomaliesIndexed(h, writes, &PrepareScratch{})
}

// findAnomaliesIndexed is FindAnomalies over a prebuilt sorted write-value
// index, so Prepare can validate with the index it builds anyway.
func findAnomaliesIndexed(h *History, writes []valueEntry, s *PrepareScratch) []Anomaly {
	var out []Anomaly
	for _, op := range h.Ops {
		if op.Finish <= op.Start {
			out = append(out, Anomaly{Kind: AnomalyInvertedInterval, OpIDs: []int{op.ID}})
		}
	}
	// A run of equal values in the sorted index marks duplicates.
	for i := 1; i < len(writes); i++ {
		if writes[i].value == writes[i-1].value {
			first := i - 1
			for first > 0 && writes[first-1].value == writes[i].value {
				first--
			}
			out = append(out, Anomaly{Kind: AnomalyDuplicateValue,
				OpIDs: []int{h.Ops[writes[first].write].ID, h.Ops[writes[i].write].ID}})
		}
	}
	if !s.endpointsDistinct(h) {
		out = appendDuplicateTimestamps(out, h)
	}
	// Read/write pairing anomalies, and per-write minimum dictated-read
	// finish (for the long-write condition below).
	minReadFinish := make([]int64, len(writes))
	for i := range minReadFinish {
		minReadFinish[i] = math.MaxInt64
	}
	for _, op := range h.Ops {
		if !op.IsRead() {
			continue
		}
		vi := lookupValue(writes, op.Value)
		if vi < 0 {
			out = append(out, Anomaly{Kind: AnomalyDanglingRead, OpIDs: []int{op.ID}})
			continue
		}
		w := h.Ops[writes[vi].write]
		if op.Finish < w.Start {
			out = append(out, Anomaly{Kind: AnomalyReadBeforeWrite, OpIDs: []int{op.ID, w.ID}})
		}
		if op.Finish < minReadFinish[vi] {
			minReadFinish[vi] = op.Finish
		}
	}
	// Long writes: a write must end before the minimum finish time of its
	// dictated reads.
	for _, op := range h.Ops {
		if !op.IsWrite() {
			continue
		}
		if vi := lookupValue(writes, op.Value); op.Finish >= minReadFinish[vi] {
			out = append(out, Anomaly{Kind: AnomalyLongWrite, OpIDs: []int{op.ID}})
		}
	}
	return out
}

// endpointsDistinct proves by counting that no two endpoints of h share a
// timestamp: when all of them lie within 8n of each other (n operations) —
// always after Normalize, which leaves them the dense ranks 0..2n-1 — each
// marks its bit, and a bit marked twice is a repeat. It reports false when
// it finds one and also when the span is too wide to count over; either way
// appendDuplicateTimestamps then decides by sorting.
func (s *PrepareScratch) endpointsDistinct(h *History) bool {
	if len(h.Ops) == 0 {
		return true
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, op := range h.Ops {
		lo = min(lo, op.Start, op.Finish)
		hi = max(hi, op.Start, op.Finish)
	}
	span := uint64(hi) - uint64(lo) // exact even when hi-lo overflows int64
	if span >= 8*uint64(len(h.Ops)) {
		return false
	}
	words := int(span/64) + 1
	if cap(s.seen) < words {
		s.seen = make([]uint64, words)
	}
	seen := s.seen[:words]
	clear(seen)
	for _, op := range h.Ops {
		for _, t := range [2]int64{op.Start, op.Finish} {
			d := uint64(t) - uint64(lo)
			if seen[d/64]&(1<<(d%64)) != 0 {
				return false
			}
			seen[d/64] |= 1 << (d % 64)
		}
	}
	return true
}

// appendDuplicateTimestamps appends one AnomalyDuplicateTimestamp per
// timestamp that two or more endpoints of h share, in ascending time order.
// Duplicates surface as equal neighbors in the sorted timestamp multiset (a
// plain int64 sort); owners are recovered — one extra pass over the
// operations, shared by all duplicated times — only when at least one
// duplicate exists.
func appendDuplicateTimestamps(out []Anomaly, h *History) []Anomaly {
	times := make([]int64, 0, 2*len(h.Ops))
	for _, op := range h.Ops {
		times = append(times, op.Start, op.Finish)
	}
	slices.Sort(times)
	var dups []int64 // duplicated times, ascending, unique
	for i := 1; i < len(times); {
		if times[i] != times[i-1] {
			i++
			continue
		}
		t := times[i]
		for i < len(times) && times[i] == t {
			i++
		}
		dups = append(dups, t)
	}
	if len(dups) == 0 {
		return out
	}
	owners := make([][]int, len(dups))
	collect := func(t int64, id int) {
		if di, ok := slices.BinarySearch(dups, t); ok {
			owners[di] = append(owners[di], id)
		}
	}
	for _, op := range h.Ops {
		collect(op.Start, op.ID)
		collect(op.Finish, op.ID)
	}
	for di := range dups {
		out = append(out, Anomaly{Kind: AnomalyDuplicateTimestamp, OpIDs: owners[di]})
	}
	return out
}

// Prepared is a history that satisfies all Section II assumptions, sorted by
// start time with IDs equal to slice indices, plus the dictating-write index
// every verification algorithm needs.
type Prepared struct {
	// H is the prepared history: sorted by start, IDs renumbered.
	H *History
	// DictatingWrite maps a read's index to its dictating write's index.
	// Entries for writes are -1.
	DictatingWrite []int
	// DictatedReads maps a write's index to the indices of its dictated
	// reads, in increasing start order. Entries for reads are nil. All
	// per-write slices share one backing array.
	DictatedReads [][]int
	// valueIndex maps written values to write indices, sorted by value for
	// binary search (see WriteFor).
	valueIndex []valueEntry
}

// WriteFor returns the index of the write that stored value, or ok=false if
// no write did. Prepared histories have unique written values, so the answer
// is unambiguous.
func (p *Prepared) WriteFor(value int64) (w int, ok bool) {
	i := lookupValue(p.valueIndex, value)
	if i < 0 {
		return -1, false
	}
	return p.valueIndex[i].write, true
}

// Prepare validates the Section II assumptions, sorts the history by start
// time, and builds the dictating-write index. The input history is not
// modified. Histories that fail validation should be run through Normalize
// first (for repairable violations) or rejected (for true anomalies).
func Prepare(h *History) (*Prepared, error) {
	return prepareSorted(h.Clone(), nil)
}

// PrepareInPlace is Prepare for callers that own h and will not use it
// afterwards: it sorts h directly instead of cloning it first. Normalize
// already returns a private copy, so Normalize-then-PrepareInPlace pipelines
// (the per-key trace hot path) skip one full history copy.
func PrepareInPlace(h *History) (*Prepared, error) {
	return prepareSorted(h, nil)
}

// PrepareScratch holds the index buffers PrepareInPlaceScratch reuses, so
// that preparing a stream of similar-sized histories (the per-segment hot
// path) stops allocating once the buffers reach steady state.
type PrepareScratch struct {
	p          Prepared
	dictating  []int
	dictated   [][]int
	valueIndex []valueEntry
	counts     []int
	flat       []int
	seen       []uint64 // endpointsDistinct's bitmap
}

// PrepareInPlaceScratch is PrepareInPlace reusing s's buffers. The returned
// Prepared aliases s and is valid only until the next call with the same
// Scratch.
func PrepareInPlaceScratch(h *History, s *PrepareScratch) (*Prepared, error) {
	return prepareSorted(h, s)
}

// intsFor returns buf resized to n reusing its capacity; fresh entries (and
// reused ones) are NOT zeroed.
func intsFor(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// PrepareHook, when non-nil, is called at the start of every prepare
// (Prepare, PrepareInPlace and PrepareInPlaceScratch all funnel through one
// function). Tests use it to pin how often a pipeline prepares — the
// streaming engine owes exactly one prepare per dispatched segment; nothing
// else sets it, and it must only change while no prepare is running.
var PrepareHook func()

func prepareSorted(cp *History, s *PrepareScratch) (*Prepared, error) {
	if PrepareHook != nil {
		PrepareHook()
	}
	if s == nil {
		// One-shot path: a fresh scratch per call keeps the returned
		// Prepared independent while sharing the code below.
		s = &PrepareScratch{}
	}
	cp.SortByStart()
	n := len(cp.Ops)
	if cap(s.valueIndex) < n {
		s.valueIndex = make([]valueEntry, 0, n)
	}
	valueIndex := s.valueIndex[:0]
	for i, op := range cp.Ops {
		if op.IsWrite() {
			valueIndex = append(valueIndex, valueEntry{op.Value, i})
		}
	}
	sortValueEntries(valueIndex)
	s.valueIndex = valueIndex
	for _, a := range findAnomaliesIndexed(cp, valueIndex, s) {
		switch a.Kind {
		case AnomalyDuplicateValue:
			return nil, fmt.Errorf("%w (ops %v)", ErrDuplicateValue, a.OpIDs)
		case AnomalyInvertedInterval:
			return nil, fmt.Errorf("%w (op %v)", ErrInvertedInterval, a.OpIDs)
		case AnomalyDuplicateTimestamp:
			return nil, fmt.Errorf("%w (ops %v)", ErrDuplicateTimestamp, a.OpIDs)
		case AnomalyDanglingRead:
			return nil, fmt.Errorf("%w (op %v)", ErrDanglingRead, a.OpIDs)
		case AnomalyReadBeforeWrite:
			return nil, fmt.Errorf("%w (ops %v)", ErrReadBeforeWrite, a.OpIDs)
		case AnomalyLongWrite:
			return nil, fmt.Errorf("%w (op %v)", ErrLongWrite, a.OpIDs)
		}
	}
	s.dictating = intsFor(s.dictating, n)
	if cap(s.dictated) < n {
		s.dictated = make([][]int, n)
	} else {
		s.dictated = s.dictated[:n]
		clear(s.dictated)
	}
	s.counts = intsFor(s.counts, n)
	clear(s.counts)
	p := &s.p
	*p = Prepared{
		H:              cp,
		DictatingWrite: s.dictating,
		DictatedReads:  s.dictated,
		valueIndex:     valueIndex,
	}
	// Resolve dictating writes, count reads per write, then carve all
	// DictatedReads slices out of one flat allocation.
	counts := s.counts
	for i, op := range cp.Ops {
		p.DictatingWrite[i] = -1
		if !op.IsRead() {
			continue
		}
		w, _ := p.WriteFor(op.Value)
		p.DictatingWrite[i] = w
		counts[w]++
	}
	if cap(s.flat) < n-len(valueIndex) {
		s.flat = make([]int, 0, n-len(valueIndex))
	}
	flat := s.flat[:0]
	for w, c := range counts {
		if c == 0 {
			continue
		}
		off := len(flat)
		flat = flat[:off+c]
		p.DictatedReads[w] = flat[off : off : off+c]
	}
	s.flat = flat
	for i, op := range cp.Ops {
		if op.IsRead() {
			w := p.DictatingWrite[i]
			p.DictatedReads[w] = append(p.DictatedReads[w], i)
		}
	}
	return p, nil
}

// Op returns the operation at index i.
func (p *Prepared) Op(i int) Operation { return p.H.Ops[i] }

// Len returns the number of operations.
func (p *Prepared) Len() int { return len(p.H.Ops) }

// Cluster returns the operation indices of the cluster (Section IV) for the
// write at index w: the write followed by its dictated reads.
func (p *Prepared) Cluster(w int) []int {
	out := make([]int, 0, 1+len(p.DictatedReads[w]))
	out = append(out, w)
	out = append(out, p.DictatedReads[w]...)
	return out
}

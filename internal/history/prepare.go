package history

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"kat/internal/valueindex"
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

// anomalyKinds names each kind, and gives the sentinel error a prepare
// returns for it and how that error's text counts the operations it lists.
var anomalyKinds = [...]struct {
	name string
	err  error
	ops  string
}{
	AnomalyDuplicateValue:     {"duplicate-value", ErrDuplicateValue, "ops"},
	AnomalyInvertedInterval:   {"inverted-interval", ErrInvertedInterval, "op"},
	AnomalyDuplicateTimestamp: {"duplicate-timestamp", ErrDuplicateTimestamp, "ops"},
	AnomalyDanglingRead:       {"dangling-read", ErrDanglingRead, "op"},
	AnomalyReadBeforeWrite:    {"read-before-write", ErrReadBeforeWrite, "ops"},
	AnomalyLongWrite:          {"long-write", ErrLongWrite, "op"},
}

// String names the anomaly kind.
func (k AnomalyKind) String() string {
	if k >= AnomalyDuplicateValue && int(k) < len(anomalyKinds) {
		return anomalyKinds[k].name
	}
	return fmt.Sprintf("AnomalyKind(%d)", uint8(k))
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

// FindAnomalies scans a history for all assumption violations of
// Section II-C. Repairable violations (duplicate timestamps, long writes)
// are fixed by Normalize; the rest make every k-AV answer trivially NO
// (dangling read, read-before-write) or the input malformed. It is the one
// reporter behind every prepare error: the builder only decides *whether* a
// history is anomalous (one flag, no allocation) and leaves which anomaly
// comes first, and the text naming it, to this scan.
//
// It lists inverted intervals, duplicate values, duplicate timestamps, then
// dangling reads and reads that precede their writes, then long writes, each
// kind in h's order but for the duplicate values: those are in value order,
// every later write of a value paired with the first one. A read, and a
// write's length, is judged against the first write of its value.
func FindAnomalies(h *History) []Anomaly {
	var values valueindex.Table // value → the first write of it, by h's index
	values.Reset(len(h.Ops))
	type dup struct {
		value        int64
		first, later int
	}
	var dups []dup
	var out []Anomaly
	for i, op := range h.Ops {
		if op.Finish <= op.Start {
			out = append(out, Anomaly{Kind: AnomalyInvertedInterval, OpIDs: []int{op.ID}})
		}
		if op.IsWrite() && !values.Put(op.Value, int32(i)) {
			first, _ := values.Get(op.Value)
			dups = append(dups, dup{op.Value, int(first), i})
		}
	}
	slices.SortFunc(dups, func(a, b dup) int {
		return cmp.Or(cmp.Compare(a.value, b.value), cmp.Compare(a.later, b.later))
	})
	for _, d := range dups {
		out = append(out, Anomaly{Kind: AnomalyDuplicateValue, OpIDs: []int{h.Ops[d.first].ID, h.Ops[d.later].ID}})
	}
	out = appendDuplicateTimestamps(out, h)
	// Read/write pairing anomalies, and per-write minimum dictated-read
	// finish (for the long-write condition below).
	minReadFinish := make([]int64, len(h.Ops))
	for i := range minReadFinish {
		minReadFinish[i] = math.MaxInt64
	}
	for _, op := range h.Ops {
		if !op.IsRead() {
			continue
		}
		wi, ok := values.Get(op.Value)
		if !ok {
			out = append(out, Anomaly{Kind: AnomalyDanglingRead, OpIDs: []int{op.ID}})
			continue
		}
		w := h.Ops[wi]
		if op.Finish < w.Start {
			out = append(out, Anomaly{Kind: AnomalyReadBeforeWrite, OpIDs: []int{op.ID, w.ID}})
		}
		minReadFinish[wi] = min(minReadFinish[wi], op.Finish)
	}
	// Long writes: a write must end before the minimum finish time of its
	// dictated reads.
	for _, op := range h.Ops {
		if !op.IsWrite() {
			continue
		}
		if wi, _ := values.Get(op.Value); op.Finish >= minReadFinish[wi] {
			out = append(out, Anomaly{Kind: AnomalyLongWrite, OpIDs: []int{op.ID}})
		}
	}
	return out
}

// firstAnomaly renders the first violation FindAnomalies lists as the
// matching sentinel error, or returns nil for a clean history.
func firstAnomaly(h *History) error {
	as := FindAnomalies(h)
	if len(as) == 0 {
		return nil
	}
	k := anomalyKinds[as[0].Kind]
	return fmt.Errorf("%w (%s %v)", k.err, k.ops, as[0].OpIDs)
}

// endpointsDistinct proves by counting that no two endpoints of h share a
// timestamp, for the strict prepare: when all of them lie within 8n of each
// other (n operations) — always after Normalize, which leaves them the dense
// ranks 0..2n-1 — each marks its bit, and a bit marked twice is a repeat. It
// reports false when it finds one and also when the span is too wide to
// count over; either way the full scan then decides by sorting.
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
// timestamp that two or more endpoints of h share, in ascending time order,
// each naming its owners in operation order (an operation's start before its
// finish).
func appendDuplicateTimestamps(out []Anomaly, h *History) []Anomaly {
	type owned struct {
		t   int64
		seq int // 2·index for a start, 2·index+1 for a finish
	}
	eps := make([]owned, 0, 2*len(h.Ops))
	for i, op := range h.Ops {
		eps = append(eps, owned{op.Start, 2 * i}, owned{op.Finish, 2*i + 1})
	}
	slices.SortFunc(eps, func(a, b owned) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.seq, b.seq))
	})
	for i, j := 0, 0; i < len(eps); i = j {
		for j = i + 1; j < len(eps) && eps[j].t == eps[i].t; j++ {
		}
		if j-i > 1 {
			ids := make([]int, 0, j-i)
			for _, e := range eps[i:j] {
				ids = append(ids, h.Ops[e.seq/2].ID)
			}
			out = append(out, Anomaly{Kind: AnomalyDuplicateTimestamp, OpIDs: ids})
		}
	}
	return out
}

// Prepared is a history that satisfies all Section II assumptions, sorted by
// start time with IDs equal to slice indices, plus the dictating-write index
// and the finish order every verification algorithm needs.
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
	// ByFinish lists every operation index in ascending finish order. The
	// builder gets it free from its ranking pass, so a checker that walks
	// clusters, zones or frontiers by finish reads it instead of sorting.
	// Every write finishes before its dictated reads, so its cluster's
	// minimum finish is its own and the writes in this order are the
	// clusters in order of Z.f.
	ByFinish []int
	// Extremes holds, at each write's index, its cluster's extremes on the
	// input time scale, taken before normalization rewrote the timestamps;
	// nil unless the prepare was asked for them (PrepareScratch.Extremes).
	// Entries for reads are unspecified.
	Extremes []Extremes
	// values maps each written value to its write's index (see WriteFor): the
	// builder's table, filled by index. A SubPrepared view shares its
	// parent's and shifts the answers down by base.
	values valueindex.Table
	base   int
}

// Extremes is one cluster's extremes on the input time scale: the minimum
// finish over the write and its dictated reads, the write's start, and the
// maximum start over the cluster (at least the write's start). They are what
// Δ-atomicity depends on (package delta).
type Extremes struct {
	MinFinish, WriteStart, MaxStart int64
}

// WriteFor returns the index of the write that stored value, or ok=false if
// no write did. Prepared histories have unique written values, so the answer
// is unambiguous.
func (p *Prepared) WriteFor(value int64) (w int, ok bool) {
	x, ok := p.values.Get(value)
	if w = int(x) - p.base; !ok || w < 0 || w >= len(p.H.Ops) {
		return -1, false
	}
	return w, true
}

// Prepare validates the Section II assumptions, sorts the history by start
// time, and builds the dictating-write index. The input history is not
// modified. Prepare is strict — it validates and never repairs: tied
// timestamps and long writes are errors here. Run such a history through
// Normalize first, or use Build, which does both in one pass; true anomalies
// are errors either way.
func Prepare(h *History) (*Prepared, error) {
	return PrepareInPlaceScratch(h.Clone(), nil)
}

// PrepareScratch holds every buffer a prepare needs — the index slices, the
// value table, the packed finishes of the ranking pass — so that preparing a
// stream of similar-sized histories (the per-segment hot path) allocates
// nothing once they have grown.
//
// Setting Extremes asks every later prepare out of s to record
// Prepared.Extremes as well; it costs one pass over the operations, and
// nothing while unset.
type PrepareScratch struct {
	Extremes bool

	p         Prepared
	view      History // a SubPrepared view's window onto its parent's operations
	dictating []int
	dictated  [][]int
	flat      []int
	writes    []writeInfo
	values    valueindex.Table
	fin       []uint64 // rank's packed finish endpoints
	order     []int    // Prepared.ByFinish
	ext       []Extremes
	raw       []span         // the general form's input endpoints, kept for ext
	seen      []uint64       // endpointsDistinct's bitmap
	cuts      []candidateCut // SafeUnits' candidate cuts
	later     []int          // SafeUnits' reads listed before their writes
}

// writeInfo is what the read-resolution pass learns about the write at the
// same index: how many reads it dictates, and which of them finishes first
// (ties by index; -1 without reads). rank sets minRead to -1 on every write
// it does not shorten.
type writeInfo struct {
	reads, minRead int32
}

// PrepareHook, when non-nil, is called at the start of every prepare (Build
// and the strict Prepare forms). Tests use it to pin how often a pipeline
// prepares — the streaming engine owes exactly one prepare per dispatched
// segment; nothing else sets it, and it must only change while no prepare is
// running.
var PrepareHook func()

// Build is Prepare(Normalize(h)) in one pass over a private copy of h.
func Build(h *History) (*Prepared, error) {
	return new(PrepareScratch).Build(h.Clone())
}

// Build normalizes h in place and prepares it, out of s's buffers: the one
// builder behind every engine. h must be the caller's to rewrite (its
// operations are re-ranked, and sorted and renumbered if they were not in
// start order); the result aliases h and s and is valid only until s's next
// use. It equals Prepare(Normalize(h)), error text included.
func (s *PrepareScratch) Build(h *History) (*Prepared, error) {
	if PrepareHook != nil {
		PrepareHook()
	}
	ranked, from, clean := s.normalize(h)
	if from != nil {
		copy(h.Ops, ranked)
	}
	if !clean {
		// The ranks are in place: the scan sees what Prepare(Normalize(h)) saw.
		return nil, firstAnomaly(h)
	}
	return s.carve(h), nil
}

// PrepareInPlaceScratch is Prepare for callers that own h and will not use
// it afterwards — it sorts h directly instead of cloning it first — out of
// s's buffers: the returned Prepared aliases s and is valid only until s's
// next use (a nil s makes it independent). It is the builder's passes 1 and 3
// around the checks normalization would have made true (distinct endpoints,
// no long write) in place of the ranking pass, plus one sort of the finishes
// for the finish order that pass would have left.
func PrepareInPlaceScratch(h *History, s *PrepareScratch) (*Prepared, error) {
	if PrepareHook != nil {
		PrepareHook()
	}
	if s == nil {
		s = &PrepareScratch{}
	}
	h.SortByStart()
	// endpointsDistinct is also false when it cannot tell, so a suspect
	// history is only rejected if the full scan names an anomaly.
	suspect := !s.index(h.Ops, h.Writes()) || !s.endpointsDistinct(h)
	for w, in := range s.writes {
		suspect = suspect || in.minRead >= 0 && h.Ops[w].Finish >= h.Ops[in.minRead].Finish
	}
	if suspect {
		if err := firstAnomaly(h); err != nil {
			return nil, err
		}
	}
	if s.Extremes {
		s.extremes(h.Ops, nil)
	}
	// No ranking pass to read the finish order off: one sort, of distinct
	// finishes.
	s.order = s.order[:0]
	for i := range h.Ops {
		s.order = append(s.order, i)
	}
	slices.SortFunc(s.order, func(a, b int) int { return cmp.Compare(h.Ops[a].Finish, h.Ops[b].Finish) })
	return s.carve(h), nil
}

// index is pass 1 of the builder: it renumbers IDs, enters every write into
// the value table, and resolves each read exactly once — its dictating write,
// that write's read count and first-finishing read. It reports whether ops is
// free of the four anomalies no normalization repairs, all decided on the
// timestamps as given (see the package comment). ops must be in start order;
// writes is the number of writes in it.
func (s *PrepareScratch) index(ops []Operation, writes int) (clean bool) {
	n := len(ops)
	if cap(s.dictating) < n {
		s.dictating, s.writes = make([]int, n), make([]writeInfo, n)
	}
	dictating, info := s.dictating[:n], s.writes[:n]
	s.dictating, s.writes = dictating, info
	s.values.Reset(writes)
	clean = true
	for i := range ops {
		op := &ops[i]
		op.ID = i
		dictating[i], info[i] = -1, writeInfo{minRead: -1}
		if op.Finish < op.Start {
			clean = false
		}
		if op.Kind == KindWrite && !s.values.Put(op.Value, int32(i)) {
			clean = false // a second write of the value
		}
	}
	for i := range ops {
		op := &ops[i]
		if op.Kind != KindRead {
			continue
		}
		x, ok := s.values.Get(op.Value)
		w := int(x)
		if !ok || op.Finish < ops[w].Start {
			clean = false
			if !ok {
				continue
			}
		}
		dictating[i] = w
		in := &info[w]
		in.reads++
		if in.minRead < 0 || op.Finish < ops[in.minRead].Finish {
			in.minRead = int32(i)
		}
	}
	return clean
}

// extremes records Prepared.Extremes for ops as index resolved them. The
// input endpoints are the operations' own, or, in the general form (from
// non-nil), the ones normalize saved before ranking, at from[i].
func (s *PrepareScratch) extremes(ops []Operation, from []int) {
	s.ext = slices.Grow(s.ext[:0], len(ops))[:len(ops)]
	at := func(i int) span {
		if from != nil {
			return s.raw[from[i]]
		}
		return span{ops[i].Start, ops[i].Finish}
	}
	for i := range ops {
		if ops[i].Kind == KindWrite {
			e := at(i)
			s.ext[i] = Extremes{MinFinish: e.b, WriteStart: e.a, MaxStart: e.a}
		}
	}
	for i, w := range s.dictating {
		if w >= 0 {
			e, x := at(i), &s.ext[w]
			x.MinFinish, x.MaxStart = min(x.MinFinish, e.b), max(x.MaxStart, e.a)
		}
	}
}

// carve is pass 3: it cuts every write's DictatedReads out of one flat
// buffer by the counts index took, fills them in start order, and returns
// the finished Prepared.
func (s *PrepareScratch) carve(h *History) *Prepared {
	n := len(h.Ops)
	if cap(s.dictated) < n {
		s.dictated, s.flat = make([][]int, n), make([]int, n)
	}
	s.dictated = s.dictated[:n]
	clear(s.dictated)
	off := 0
	for w, in := range s.writes {
		if c := int(in.reads); c > 0 {
			s.dictated[w] = s.flat[off : off : off+c]
			off += c
		}
	}
	for i, w := range s.dictating {
		if w >= 0 {
			s.dictated[w] = append(s.dictated[w], i)
		}
	}
	s.p = Prepared{H: h, DictatingWrite: s.dictating, DictatedReads: s.dictated, ByFinish: s.order, values: s.values}
	if s.Extremes {
		s.p.Extremes = s.ext
	}
	return &s.p
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

package history

// The differential reference for the builder (normalize.go, prepare.go): the
// five-stage Normalize→Prepare pipeline it replaced, kept as it was — rank all
// 2n endpoints, shorten writes against a sorted (value, finish) list of the
// reads, re-rank by counting, sort by start, validate, and index through a
// sorted value list. FuzzPrepareEquivalence holds the builder to it.

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// refNormalizeInPlace is the old NormalizeInPlace.
func refNormalizeInPlace(h *History) *History {
	for i := range h.Ops {
		if h.Ops[i].ID == 0 {
			h.Ops[i].ID = i
		}
	}
	refRankTimestamps(h)
	refShortenWrites(h)
	refCompactRanks(h) // compact back to dense distinct ranks
	return h
}

// refEndpoint identifies one end of one operation for re-ranking. The
// tie-break fields (endpoint kind, owner ID) are embedded so the sort
// comparator never chases back into the operation slice.
type refEndpoint struct {
	t       int64
	id      int // owning operation's ID (tie-break)
	op      int // index into Ops
	isStart bool
}

// refRankTimestamps rewrites all endpoints to distinct integers 0..2n-1
// preserving the original order, with deterministic tie-breaking: by time,
// then starts before finishes, then by operation ID. Degenerate zero-length
// operations (Start == Finish) become unit-length intervals.
func refRankTimestamps(h *History) {
	n := len(h.Ops)
	if n == 0 {
		return
	}
	// Fast path: when the time span is moderate and IDs equal indices (true
	// for parsed and generated histories; Prepare renumbers this way too),
	// each endpoint packs into one uint64 — (time-offset, kind bit, op
	// index) — preserving the exact tie-break order below, and the
	// specialized ordered-slice sort replaces the struct sort.
	const idxBits = 21
	minT, maxT := h.Ops[0].Start, h.Ops[0].Start
	idsAreIndex := true
	for i, op := range h.Ops {
		minT = min(minT, op.Start, op.Finish)
		maxT = max(maxT, op.Start, op.Finish)
		if op.ID != i {
			idsAreIndex = false
		}
	}
	if idsAreIndex && n < 1<<idxBits && uint64(maxT-minT) < 1<<42 {
		keys := make([]uint64, 0, 2*n)
		for i, op := range h.Ops {
			keys = append(keys,
				uint64(op.Start-minT)<<(idxBits+1)|uint64(i),
				uint64(op.Finish-minT)<<(idxBits+1)|1<<idxBits|uint64(i))
		}
		slices.Sort(keys)
		for rank, key := range keys {
			i := int(key & (1<<idxBits - 1))
			if key>>idxBits&1 == 0 {
				h.Ops[i].Start = int64(rank)
			} else {
				h.Ops[i].Finish = int64(rank)
			}
		}
		return
	}

	eps := make([]refEndpoint, 0, 2*len(h.Ops))
	for i, op := range h.Ops {
		eps = append(eps, refEndpoint{t: op.Start, id: op.ID, op: i, isStart: true})
		eps = append(eps, refEndpoint{t: op.Finish, id: op.ID, op: i, isStart: false})
	}
	slices.SortFunc(eps, func(x, y refEndpoint) int {
		if c := cmp.Compare(x.t, y.t); c != 0 {
			return c
		}
		if x.isStart != y.isStart {
			if x.isStart { // starts rank before finishes at equal time
				return -1
			}
			return 1
		}
		if c := cmp.Compare(x.id, y.id); c != 0 {
			return c
		}
		// Same time, same endpoint kind, same ID only under user-supplied
		// duplicate IDs; the op index keeps the order total.
		return cmp.Compare(x.op, y.op)
	})
	for rank, ep := range eps {
		if ep.isStart {
			h.Ops[ep.op].Start = int64(rank)
		} else {
			h.Ops[ep.op].Finish = int64(rank)
		}
	}
}

// refCompactRanks re-ranks to dense 0..2n-1 after shortenWrites, whose output
// timestamps are distinct integers in [0, 4n): a counting pass replaces the
// sort that general re-ranking needs. (Distinctness: starts and unmodified
// finishes are doubled ranks, hence even and distinct; shortened finishes
// are mrf*2-1, odd, and distinct because each value's minimum dictated-read
// finish is a distinct read finish — except when two writes share a value,
// a duplicate-value anomaly that makes them share mrf. That collision is
// detected by the marking pass, which then falls back to the general
// re-ranking so Normalize still returns distinct timestamps.)
func refCompactRanks(h *History) {
	limit := 4 * len(h.Ops)
	rank := make([]int32, limit)
	for _, op := range h.Ops {
		rank[op.Start] = 1
		rank[op.Finish] = 1
	}
	r := int32(0)
	for t := range rank {
		if rank[t] != 0 {
			rank[t] = r
			r++
		}
	}
	if int(r) != 2*len(h.Ops) {
		// Colliding endpoints (duplicate written values): re-rank fully,
		// which separates every tie deterministically.
		refRankTimestamps(h)
		return
	}
	for i := range h.Ops {
		h.Ops[i].Start = int64(rank[h.Ops[i].Start])
		h.Ops[i].Finish = int64(rank[h.Ops[i].Finish])
	}
}

// refShortenWrites enforces that each write finishes before the minimum finish
// of its dictated reads. It assumes distinct integer timestamps (having just
// been ranked): times are doubled so the new finish minReadFinish*2-1 is a
// fresh odd value, unique per write because read finish times are unique.
func refShortenWrites(h *History) {
	// Sorted (value, finish) pairs of all reads; after sorting, the first
	// entry of each value run is that value's minimum read finish, and the
	// runs compact in place into a binary-searchable index.
	type vf struct{ value, finish int64 }
	reads := make([]vf, 0, len(h.Ops))
	for _, op := range h.Ops {
		if op.IsRead() {
			reads = append(reads, vf{op.Value, op.Finish})
		}
	}
	slices.SortFunc(reads, func(a, b vf) int {
		if c := cmp.Compare(a.value, b.value); c != 0 {
			return c
		}
		return cmp.Compare(a.finish, b.finish)
	})
	mins := slices.CompactFunc(reads, func(a, b vf) bool { return a.value == b.value })
	for i := range h.Ops {
		h.Ops[i].Start *= 2
		h.Ops[i].Finish *= 2
	}
	for i := range h.Ops {
		op := &h.Ops[i]
		if !op.IsWrite() {
			continue
		}
		vi, ok := slices.BinarySearchFunc(mins, op.Value, func(e vf, v int64) int {
			return cmp.Compare(e.value, v)
		})
		if !ok {
			continue
		}
		mrf := mins[vi].finish
		// Guard against inversion: if some read of this value finishes
		// before the write even starts, that is a read-before-write
		// anomaly — leave the write alone and let Prepare report it.
		if limit := mrf*2 - 1; op.Finish > limit && limit > op.Start {
			op.Finish = limit
		}
	}
}

// refPrepared is what the old prepare returned: the sorted, renumbered
// history, the two index slices, and the sorted value index behind WriteFor.
type refPrepared struct {
	H              *History
	DictatingWrite []int
	DictatedReads  [][]int
	valueIndex     []valueEntry
}

func (p *refPrepared) WriteFor(value int64) (int, bool) {
	i := lookupValue(p.valueIndex, value)
	if i < 0 {
		return -1, false
	}
	return p.valueIndex[i].write, true
}

// refPrepare is the old strict prepare (prepareSorted) on a history it may
// sort in place: sort by start, validate with the full anomaly scan, resolve
// every read through the sorted value index, carve the read lists.
func refPrepare(cp *History) (*refPrepared, error) {
	cp.SortByStart()
	if err := firstAnomaly(cp); err != nil {
		return nil, err
	}
	n := len(cp.Ops)
	p := &refPrepared{H: cp, DictatingWrite: make([]int, n), DictatedReads: make([][]int, n)}
	for i, op := range cp.Ops {
		if op.IsWrite() {
			p.valueIndex = append(p.valueIndex, valueEntry{op.Value, i})
		}
	}
	sortValueEntries(p.valueIndex)
	for i, op := range cp.Ops {
		p.DictatingWrite[i] = -1
		if op.IsRead() {
			w, _ := p.WriteFor(op.Value)
			p.DictatingWrite[i] = w
			p.DictatedReads[w] = append(p.DictatedReads[w], i)
		}
	}
	return p, nil
}

// refAppendDuplicateTimestamps is the old duplicate-timestamp listing: sort
// the timestamp multiset, then collect each duplicated time's owners in one
// more pass over the operations.
func refAppendDuplicateTimestamps(out []Anomaly, h *History) []Anomaly {
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

// TestDuplicateTimestampListingMatchesReference: the anomaly scan names tied
// endpoints exactly as it used to — same times, in the same order, owners in
// the same order — since prepare errors quote the list.
func TestDuplicateTimestampListingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		h := &History{}
		for n := rng.Intn(12); n > 0; n-- {
			start := int64(rng.Intn(6))
			h.Ops = append(h.Ops, Operation{ID: rng.Intn(20), Kind: KindWrite, Start: start, Finish: start + int64(rng.Intn(3))})
		}
		got, want := appendDuplicateTimestamps(nil, h), refAppendDuplicateTimestamps(nil, h)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ops %+v:\ngot  %v\nwant %v", h.Ops, got, want)
		}
	}
}

// The differential reference for the anomaly scan and Measure's raw
// forced-staleness sweep (prepare.go, staleness.go): the sorted value index
// they resolved values through before valueindex.Table, kept as it was.
// refPrepare resolves through it too. FuzzFindAnomaliesEquivalence holds
// both to it.

// valueEntry pairs a written value with its write's index; sorted by value
// (ties by index) it is the binary-searchable index of the old anomaly scan,
// which names duplicate values in value order, and of Measure.
type valueEntry struct {
	value int64
	write int
}

// sortValueEntries orders entries by value, ties by write index, so that a
// run of duplicates starts at the earliest write.
func sortValueEntries(vi []valueEntry) {
	slices.SortFunc(vi, func(a, b valueEntry) int {
		return cmp.Or(cmp.Compare(a.value, b.value), cmp.Compare(a.write, b.write))
	})
}

// lookupValue binary-searches the sorted index and returns the position of
// the first entry for value, or -1.
func lookupValue(vi []valueEntry, value int64) int {
	i, ok := slices.BinarySearchFunc(vi, value, func(e valueEntry, v int64) int {
		return cmp.Compare(e.value, v)
	})
	if !ok {
		return -1
	}
	return i
}

// refFindAnomalies is the old FindAnomalies.
func refFindAnomalies(h *History) []Anomaly {
	writes := make([]valueEntry, 0, len(h.Ops))
	for i, op := range h.Ops {
		if op.IsWrite() {
			writes = append(writes, valueEntry{op.Value, i})
		}
	}
	sortValueEntries(writes)
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
	out = refAppendDuplicateTimestamps(out, h)
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

// refForcedStalenessRaw is the old forcedStalenessRaw: a read resolves to
// the first write of its value through the sorted index.
func refForcedStalenessRaw(h *History) int {
	n := len(h.Ops)
	writes := make([]valueEntry, 0, n)
	for i, op := range h.Ops {
		if op.IsWrite() {
			writes = append(writes, valueEntry{op.Value, i})
		}
	}
	sortValueEntries(writes)
	from := make([]int, n) // start order → h's index
	for i := range from {
		from[i] = i
	}
	slices.SortStableFunc(from, func(a, b int) int { return cmp.Compare(h.Ops[a].Start, h.Ops[b].Start) })
	at := make([]int, n) // h's index → start order
	ops := make([]Operation, n)
	for j, i := range from {
		at[i], ops[j] = j, h.Ops[i]
	}
	p := &Prepared{H: &History{Ops: ops}, DictatingWrite: make([]int, n), DictatedReads: make([][]int, n), ByFinish: make([]int, n)}
	for j, op := range ops {
		p.DictatingWrite[j], p.ByFinish[j] = -1, j
		if !op.IsRead() {
			continue
		}
		if vi := lookupValue(writes, op.Value); vi >= 0 {
			w := at[writes[vi].write]
			p.DictatingWrite[j] = w
			p.DictatedReads[w] = append(p.DictatedReads[w], j)
		}
	}
	slices.SortFunc(p.ByFinish, func(a, b int) int { return cmp.Compare(ops[a].Finish, ops[b].Finish) })
	return ForcedStalenessScratch(p, &StalenessScratch{})
}

// FuzzFindAnomaliesEquivalence holds FindAnomalies and Measure's forced
// staleness to the sorted-index reference on raw histories in any order,
// four bytes an operation — kind, value, start, length — over few values, a
// short time span and lengths down to -2: writes of one value two and three
// times, dangling reads, reads that end before their write starts, long
// writes, and tied and inverted intervals. IDs run backwards from seed, so a
// scan that quotes an index for an ID shows. Same anomalies in the same
// order, same forced staleness.
func FuzzFindAnomaliesEquivalence(f *testing.F) {
	op := func(kind, value, start, length byte) []byte { return []byte{kind, value, start, length} }
	for _, seed := range [][]byte{
		// Three writes of value 1, the second and third read.
		slices.Concat(op(0, 1, 5, 6), op(0, 2, 1, 4), op(0, 1, 20, 6), op(1, 1, 30, 4), op(0, 1, 40, 6), op(1, 1, 9, 4)),
		// A dangling read, and a read that ends before its write starts.
		slices.Concat(op(1, 5, 0, 5), op(0, 3, 30, 5), op(1, 3, 2, 5), op(1, 3, 40, 5)),
		// Long writes: each ends after a read of it finishes.
		slices.Concat(op(0, 1, 0, 13), op(1, 1, 2, 5), op(0, 2, 8, 13), op(1, 2, 12, 3), op(1, 2, 14, 9)),
		// Tied endpoints, zero-length and inverted intervals.
		slices.Concat(op(0, 1, 4, 2), op(0, 2, 4, 6), op(1, 1, 8, 2), op(0, 3, 9, 0), op(1, 3, 20, 1)),
	} {
		f.Add(int64(len(seed)), seed)
	}
	for seed := int64(0); seed < 16; seed++ {
		raw := make([]byte, 4*(4+seed))
		for i := range raw {
			raw[i] = byte(seed*53 + int64(i)*29)
		}
		f.Add(seed, raw)
	}
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		h := &History{}
		for i := 0; i+4 <= len(raw); i += 4 {
			kind := KindWrite
			if raw[i]&1 != 0 {
				kind = KindRead
			}
			start := int64(raw[i+2] % 64)
			h.Ops = append(h.Ops, Operation{ID: int(seed) - len(h.Ops), Kind: kind, Value: int64(raw[i+1] % 6),
				Start: start, Finish: start + int64(raw[i+3]%14) - 2})
		}
		if got, want := FindAnomalies(h), refFindAnomalies(h); !reflect.DeepEqual(got, want) {
			t.Fatalf("ops %v:\nFindAnomalies %v\nreference     %v", h.Ops, got, want)
		}
		if len(h.Ops) == 0 {
			return
		}
		if got, want := Measure(h).ForcedStaleness, refForcedStalenessRaw(h); got != want {
			t.Fatalf("ops %v: Measure.ForcedStaleness=%d, reference %d", h.Ops, got, want)
		}
	})
}

// The differential reference for the text parser (text.go): the string-based
// one it replaced, kept as it was — split the segment into ASCII-space fields,
// then strconv every number. FuzzParseOp holds the scanner to it on single
// segments in both forms, values and error texts.

// refParseOp is the old trace.parseKeyedOpSlow (keyed) and history.parseOp
// (single-register; that one split on Unicode space, the one behaviour the
// scanner does not keep).
func refParseOp(part string, keyed bool) (string, Operation, error) {
	fields := refAppendFields(nil, part)
	if keyed {
		if len(fields) < 5 {
			return "", Operation{}, errors.New("want kind key value start finish")
		}
		op, err := refParseOpParts(fields[0], fields[2:])
		if err != nil {
			return "", Operation{}, err
		}
		return fields[1], op, nil
	}
	if len(fields) < 4 {
		return "", Operation{}, fmt.Errorf("want at least 4 fields (kind value start finish), got %d", len(fields))
	}
	op, err := refParseOpParts(fields[0], fields[1:])
	return "", op, err
}

// refAppendFields is the old AppendFields.
func refAppendFields(dst []string, s string) []string {
	for i := 0; i < len(s); {
		for i < len(s) && refASCIISpace(s[i]) {
			i++
		}
		start := i
		for i < len(s) && !refASCIISpace(s[i]) {
			i++
		}
		if i > start {
			dst = append(dst, s[start:i])
		}
	}
	return dst
}

// refParseOpParts is the old ParseOpParts.
func refParseOpParts(kind string, args []string) (Operation, error) {
	if len(args) < 3 {
		return Operation{}, fmt.Errorf("want at least 4 fields (kind value start finish), got %d", len(args)+1)
	}
	var op Operation
	switch kind {
	case "w", "W":
		op.Kind = KindWrite
	case "r", "R":
		op.Kind = KindRead
	default:
		return Operation{}, fmt.Errorf("unknown kind %q", kind)
	}
	var err error
	if op.Value, err = strconv.ParseInt(args[0], 10, 64); err != nil {
		return Operation{}, fmt.Errorf("value: %w", err)
	}
	if op.Start, err = strconv.ParseInt(args[1], 10, 64); err != nil {
		return Operation{}, fmt.Errorf("start: %w", err)
	}
	if op.Finish, err = strconv.ParseInt(args[2], 10, 64); err != nil {
		return Operation{}, fmt.Errorf("finish: %w", err)
	}
	for _, f := range args[3:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Operation{}, fmt.Errorf("malformed attribute %q", f)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return Operation{}, fmt.Errorf("attribute %q: %w", key, err)
		}
		switch key {
		case "weight":
			if n <= 0 {
				return Operation{}, fmt.Errorf("weight must be positive, got %d", n)
			}
			op.Weight = n
		case "client":
			op.Client = int(n)
		default:
			return Operation{}, fmt.Errorf("unknown attribute %q", key)
		}
	}
	return op, nil
}

// refOpString is the old Operation.String.
func refOpString(op Operation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d %d %d", op.Kind, op.Value, op.Start, op.Finish)
	if op.Weight > 1 {
		fmt.Fprintf(&b, " weight=%d", op.Weight)
	}
	if op.Client != 0 {
		fmt.Fprintf(&b, " client=%d", op.Client)
	}
	return b.String()
}

// The differential reference for the block scanner (TextDecoder.Scan): the
// split-then-parse scanner it replaced, kept as it was — cut the block into
// lines, cut each line at '#' and into ';' segments, trim each segment, then
// walk its fields. FuzzScanEquivalence holds Scan to it.

// refDecoder is the part of the old TextDecoder that its Scan read.
type refDecoder struct {
	Keyed bool
	seg   int
}

// refScan is the old TextDecoder.Scan.
func (d *refDecoder) refScan(block []byte, emit func(key []byte, op Operation) error) error {
	for len(block) > 0 {
		line := block
		if i := bytes.IndexByte(block, '\n'); i >= 0 {
			line, block = block[:i], block[i+1:]
		} else {
			block = nil
		}
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for len(line) > 0 {
			part := line
			if i := bytes.IndexByte(line, ';'); i >= 0 {
				part, line = line[:i], line[i+1:]
			} else {
				line = nil
			}
			if part = bytes.TrimSpace(part); len(part) == 0 {
				continue
			}
			d.seg++
			key, op, err := refParseSegment(part, d.Keyed)
			if err != nil {
				if d.Keyed {
					return fmt.Errorf("trace: segment %d (%q): %w", d.seg, part, err)
				}
				return fmt.Errorf("segment %d (%q): %w", d.seg, part, err)
			}
			if err := emit(key, op); err != nil {
				return err
			}
		}
	}
	return nil
}

// refParseSegment is the old ParseOp.
func refParseSegment(part []byte, keyed bool) (key []byte, op Operation, err error) {
	kind, i := refNextField(part, 0)
	if keyed {
		key, i = refNextField(part, i)
	}
	value, i := refNextField(part, i)
	start, i := refNextField(part, i)
	finish, i := refNextField(part, i)
	if len(finish) == 0 {
		if keyed {
			return nil, Operation{}, errors.New("want kind key value start finish")
		}
		n := 0
		for f, j := refNextField(part, 0); len(f) > 0; f, j = refNextField(part, j) {
			n++
		}
		return nil, Operation{}, fmt.Errorf("want at least 4 fields (kind value start finish), got %d", n)
	}
	switch string(kind) {
	case "w", "W":
		op.Kind = KindWrite
	case "r", "R":
		op.Kind = KindRead
	default:
		return nil, Operation{}, fmt.Errorf("unknown kind %q", kind)
	}
	if op.Value, err = refParseInt(value); err != nil {
		return nil, Operation{}, fmt.Errorf("value: %w", err)
	}
	if op.Start, err = refParseInt(start); err != nil {
		return nil, Operation{}, fmt.Errorf("start: %w", err)
	}
	if op.Finish, err = refParseInt(finish); err != nil {
		return nil, Operation{}, fmt.Errorf("finish: %w", err)
	}
	for attr, i := refNextField(part, i); len(attr) > 0; attr, i = refNextField(part, i) {
		name, val, ok := bytes.Cut(attr, []byte("="))
		if !ok {
			return nil, Operation{}, fmt.Errorf("malformed attribute %q", attr)
		}
		n, err := refParseInt(val)
		if err != nil {
			return nil, Operation{}, fmt.Errorf("attribute %q: %w", name, err)
		}
		switch string(name) {
		case "weight":
			if n <= 0 {
				return nil, Operation{}, fmt.Errorf("weight must be positive, got %d", n)
			}
			op.Weight = n
		case "client":
			op.Client = int(n)
		default:
			return nil, Operation{}, fmt.Errorf("unknown attribute %q", name)
		}
	}
	return key, op, nil
}

// refNextField is the old nextField.
func refNextField(s []byte, i int) ([]byte, int) {
	for i < len(s) && refASCIISpace(s[i]) {
		i++
	}
	st := i
	for i < len(s) && !refASCIISpace(s[i]) {
		i++
	}
	return s[st:i], i
}

// refASCIISpace is the old asciiSpace.
func refASCIISpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// refParseInt is the old parseInt.
func refParseInt(b []byte) (int64, error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) || len(b)-i > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c)
	}
	if neg {
		v = -v
	}
	return v, nil
}

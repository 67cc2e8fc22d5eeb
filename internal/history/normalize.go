package history

import (
	"cmp"
	"math/bits"
	"slices"
)

// Normalize returns a copy of h transformed to satisfy the repairable
// assumptions of Section II-C:
//
//  1. All endpoint timestamps are made distinct by order-preserving
//     re-ranking. Ties are broken deterministically: at equal time a start
//     endpoint is ranked before a finish endpoint (so operations that merely
//     touch remain concurrent rather than ordered), then by operation ID.
//  2. Every write is shortened so that it finishes strictly before the
//     minimum finish time of its dictated reads. This is without loss of
//     generality: a write's commit point cannot occur after one of its
//     dictated reads has finished, so no k-atomic total order is lost.
//
// Normalize does not repair true anomalies (dangling reads, reads preceding
// their dictating writes, duplicate written values); those still surface as
// errors from Prepare. (Of several writes of one value only the first in
// start order is shortened.)
//
// The returned history is k-atomic if and only if the input is, for every k.
func Normalize(h *History) *History {
	return NormalizeInPlace(h.Clone())
}

// NormalizeInPlace is Normalize for callers that own h and will not use the
// raw operations afterwards: it rewrites h's timestamps directly instead of
// cloning first, and returns h. Operation order and IDs are kept (an ID of 0
// becomes the operation's index). It is the builder's passes 1 and 2, without
// the index Build goes on to finish.
func NormalizeInPlace(h *History) *History {
	ranked, from, _ := new(PrepareScratch).normalize(h)
	for j, i := range from {
		h.Ops[i].Start, h.Ops[i].Finish = ranked[j].Start, ranked[j].Finish
	}
	return h
}

// normalize is the builder's passes 1 and 2: it leaves s holding the index
// of h's operations in start order, with IDs equal to indices and normalized
// timestamps, and reports whether they are free of unrepairable anomalies.
// Those operations are h's own, rewritten where they stand (from is nil), or,
// when scan declines them, a copy put in start order once rankTimestamps has
// made the timestamps distinct where they stand; from[j] is then where
// ranked[j] stands in h.
func (s *PrepareScratch) normalize(h *History) (ranked []Operation, from []int, clean bool) {
	ranked = h.Ops
	minT, writes, ok := scan(ranked)
	if !ok {
		if s.Extremes { // rankTimestamps rewrites them where they stand
			s.raw = s.raw[:0]
			for _, op := range h.Ops {
				s.raw = append(s.raw, span{op.Start, op.Finish})
			}
		}
		rankTimestamps(h)
		ranked, from = inStartOrder(h.Ops)
		minT, writes = 0, h.Writes()
	}
	clean = s.index(ranked, writes)
	if s.Extremes {
		s.extremes(ranked, from)
	}
	s.rank(ranked, minT)
	return ranked, from, clean
}

// inStartOrder is the second step of the general form: once rankTimestamps
// has made the endpoints distinct integers below 2n — ranks that carry the ID
// tie-breaks a renumbering erases — a counting sort puts a copy of ops in
// start order, which index renumbers and rank takes as is. from[j] is where
// sorted[j] stands in ops.
func inStartOrder(ops []Operation) (sorted []Operation, from []int) {
	at := make([]int, 2*len(ops)) // start rank → operation index + 1
	for i := range ops {
		at[ops[i].Start] = i + 1
	}
	sorted, from = make([]Operation, 0, len(ops)), make([]int, 0, len(ops))
	for _, i := range at {
		if i > 0 {
			sorted, from = append(sorted, ops[i-1]), append(from, i-1)
		}
	}
	return sorted, from
}

// scan decides, reading only, whether ops is in the packed form the passes
// take: starts nondecreasing, every ID equal to its index (or 0, which means
// the same), and the time span narrow enough to share a word with an
// operation index — true of every segment the online engine closes and of
// trace files in arrival order. It also returns the smallest timestamp and
// the number of writes.
func scan(ops []Operation) (minT int64, writes int, ok bool) {
	if len(ops) == 0 {
		return 0, 0, true
	}
	minT, maxT := ops[0].Start, ops[0].Start
	for i := range ops {
		op := &ops[i]
		if op.ID != i && op.ID != 0 || i > 0 && op.Start < ops[i-1].Start {
			return 0, 0, false
		}
		minT, maxT = min(minT, op.Finish), max(maxT, op.Start, op.Finish)
		if op.Kind == KindWrite {
			writes++
		}
	}
	span := uint64(maxT) - uint64(minT) // exact even when maxT-minT overflows
	return minT, writes, span>>(64-idxBits(len(ops))) == 0
}

// idxBits is the width of an operation index in a packed endpoint.
func idxBits(n int) int { return bits.Len(uint(n)) }

// rank is pass 2 of the builder (see the package comment): it rewrites the
// endpoints of ops — in the packed form scan accepts, indexed by s.index — to
// the dense ranks 0..2n-1 in the order (time, start before finish, operation
// index), a long write's finish moved to immediately before the finish of its
// first-finishing read. Only the finishes are sorted, one packed word each;
// the starts are in order already and merge in. A write whose first read
// finishes before the write starts is left alone: that is the
// read-before-write anomaly, which Prepare reports. The finishes are emitted
// in rank order, so s.order comes out as the finish order at no extra cost.
func (s *PrepareScratch) rank(ops []Operation, minT int64) {
	n, shift := len(ops), idxBits(len(ops))
	if cap(s.fin) < n {
		s.fin, s.order = make([]uint64, 0, n), make([]int, 0, n)
	}
	fin, order := s.fin[:0], s.order[:0]
	for i := range ops {
		op := &ops[i]
		if in := &s.writes[i]; in.minRead >= 0 {
			r := int(in.minRead)
			if rf := ops[r].Finish; (op.Finish > rf || op.Finish == rf && i > r) && rf >= op.Start {
				continue // shortened: emitted with read r's finish below
			}
			in.minRead = -1
		}
		fin = append(fin, (uint64(op.Finish)-uint64(minT))<<shift|uint64(i))
	}
	slices.Sort(fin)
	s.fin = fin
	next, rank := 0, int64(0)
	for _, key := range fin {
		for t := key >> shift; next < n && uint64(ops[next].Start)-uint64(minT) <= t; next++ {
			ops[next].Start = rank
			rank++
		}
		i := int(key & (1<<shift - 1))
		if w := s.dictating[i]; w >= 0 && int(s.writes[w].minRead) == i {
			ops[w].Finish = rank
			order = append(order, w)
			rank++
		}
		ops[i].Finish = rank
		order = append(order, i)
		rank++
	}
	for ; next < n; next++ { // operations that start after every finish: inverted ones
		ops[next].Start = rank
		rank++
	}
	s.order = order
}

// endpoint identifies one end of one operation for re-ranking. The
// tie-break fields (endpoint kind, owner ID) are embedded so the sort
// comparator never chases back into the operation slice.
type endpoint struct {
	t      int64
	finish int // 0 for a start, 1 for a finish: starts rank first at equal time
	id     int // owning operation's ID (tie-break)
	op     int // index into Ops
}

// rankTimestamps is the general form's first step, for histories scan
// declines: it rewrites all endpoints to distinct integers 0..2n-1 preserving
// the original order, with deterministic tie-breaking: by time, then starts
// before finishes, then by operation ID (an ID of 0 is first replaced by the
// operation's index). Operation order is kept.
func rankTimestamps(h *History) {
	n := len(h.Ops)
	if n == 0 {
		return
	}
	// Fast path: when the time span is moderate and IDs equal indices (true
	// of generated histories), each endpoint packs into one uint64 — (time
	// offset, kind bit, op index) — in the exact tie-break order below.
	const idxBits = 21
	minT, maxT := h.Ops[0].Start, h.Ops[0].Start
	idsAreIndex := true
	for i, op := range h.Ops {
		minT = min(minT, op.Start, op.Finish)
		maxT = max(maxT, op.Start, op.Finish)
		if op.ID == 0 {
			h.Ops[i].ID = i
		} else if op.ID != i {
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

	eps := make([]endpoint, 0, 2*len(h.Ops))
	for i, op := range h.Ops {
		eps = append(eps, endpoint{op.Start, 0, op.ID, i}, endpoint{op.Finish, 1, op.ID, i})
	}
	// Same time, kind and ID only under user-supplied duplicate IDs; the op
	// index keeps the order total.
	slices.SortFunc(eps, func(x, y endpoint) int {
		return cmp.Or(cmp.Compare(x.t, y.t), cmp.Compare(x.finish, y.finish),
			cmp.Compare(x.id, y.id), cmp.Compare(x.op, y.op))
	})
	for rank, ep := range eps {
		if ep.finish == 0 {
			h.Ops[ep.op].Start = int64(rank)
		} else {
			h.Ops[ep.op].Finish = int64(rank)
		}
	}
}

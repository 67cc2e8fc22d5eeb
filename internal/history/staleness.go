package history

import (
	"cmp"
	"slices"
)

// ForcedStaleness returns a cheap lower bound on the smallest k for which
// the prepared history can be k-atomic: 1 plus the maximum, over all reads,
// of the number of writes that are forced between the read's dictating
// write and the read by real time alone — writes that start after the
// dictating write finishes and finish before the read starts. Every total
// order consistent with the "precedes" partial order places all such writes
// between the pair, so the read's staleness is at least that count + 1 in
// any witness.
//
// Histories with no reads return 1. The bound is exact when operations are
// totally ordered in real time and never exceeds the true smallest k.
// StalenessBracket pairs it with an upper bound, which is what the smallest-k
// ladder (core.Verifier.SmallestKPrepared) reads on the units FZF has
// rejected.
//
// Cost: O(n log n) — one sweep over the writes, already in start order, with
// a Fenwick tree counting write finish ranks, and no sort: a write's finish
// rank is its position among the writes of the finish order (ByFinish), a
// read's is the number of write finishes before its start, taken by one
// cursor over that order as the reads go by in start order, and the reads are
// served by dictating write in descending finish order — the finish order
// walked backwards.
func ForcedStaleness(p *Prepared) int {
	return ForcedStalenessScratch(p, &StalenessScratch{})
}

// StalenessScratch holds the sweep's buffers, so a caller that bounds a
// stream of histories (the smallest-k ladder, once per segment) stops
// allocating once they have grown.
type StalenessScratch struct {
	rank []int
	tree fenwick
}

// ForcedStalenessScratch is ForcedStaleness reusing s's buffers.
//
// It returns 1 plus the maximum, over reads r with dictating write w, of the
// number of writes x with x.Start > w.Finish and x.Finish < r.Start. rank[x]
// is x's position among the write finishes, and rank[r] the number of write
// finishes below r.Start, so the second condition is rank[x] < rank[r]. The
// writes that satisfy the first condition are added to the tree from the
// latest start down as w's finish falls.
func ForcedStalenessScratch(p *Prepared, s *StalenessScratch) int {
	writes, _ := s.ranks(p)
	if writes == 0 {
		return 1
	}
	return s.forced(p, writes, writes+1)
}

// StalenessBracket returns hi, an upper bound on the smallest k for which the
// prepared history is k-atomic, and lo = max(floor, ForcedStaleness), a lower
// bound whenever that k is known to be at least floor (FZF refuted the
// history: floor 3). hi is the staleness of the by-finish order:
// each write placed at its finish and each read just after the later of its
// start and its dictating write's finish. Every point lies inside its
// operation's interval (a prepared history's timestamps are distinct, and a
// write finishes before each of its reads does), so the order extends real
// time and puts every read after its write, and a read r of w is then
// 1 + max(0, rank[r] − rank[w] − 1) writes stale (ranks as in
// ForcedStalenessScratch). When hi <= floor the sweep behind ForcedStaleness
// is skipped and lo is floor: nothing lies between them to search.
//
// The smallest-k ladder (core) brackets each unit FZF refuted, floor 3, and
// each segment of one, floor 2, before FZF: lo >= hi settles a unit at hi
// without the exact oracle, otherwise the search probes only [lo, hi−1], and
// a segment with hi <= 2 or lo >= 3 needs no FZF verdict.
func StalenessBracket(p *Prepared, s *StalenessScratch, floor int) (lo, hi int) {
	writes, hi := s.ranks(p)
	if hi <= floor {
		return floor, hi
	}
	return max(floor, s.forced(p, writes, hi)), hi
}

// ranks fills s.rank — a write's position among the write finishes, a read's
// count of write finishes below its start — and returns the number of writes
// and the staleness of the by-finish order (StalenessBracket), 1 without
// reads. A read with no dictating write (forcedStalenessRaw's unresolved
// ones) is ranked but not measured.
func (s *StalenessScratch) ranks(p *Prepared) (writes, hi int) {
	ops := p.H.Ops
	s.rank = slices.Grow(s.rank[:0], len(ops))[:len(ops)]
	for _, i := range p.ByFinish {
		if ops[i].IsWrite() {
			s.rank[i] = writes
			writes++
		}
	}
	next, below := 0, 0
	hi = 1
	for r := range ops {
		if !ops[r].IsRead() {
			continue
		}
		for ; next < len(ops) && ops[p.ByFinish[next]].Finish < ops[r].Start; next++ {
			if ops[p.ByFinish[next]].IsWrite() {
				below++
			}
		}
		s.rank[r] = below
		if w := p.DictatingWrite[r]; w >= 0 {
			hi = max(hi, below-s.rank[w])
		}
	}
	return writes, hi
}

// forced is the Fenwick sweep of ForcedStalenessScratch over the ranks, for a
// history with writes > 0 writes. It stops once the bound reaches limit, which
// StalenessBracket sets to hi: the bound never exceeds the by-finish
// staleness, so the bracket has closed.
func (s *StalenessScratch) forced(p *Prepared, writes, limit int) int {
	ops := p.H.Ops
	s.tree = slices.Grow(s.tree[:0], writes)[:writes]
	clear(s.tree)
	best, x := 0, len(ops)-1
	for j := len(ops) - 1; j >= 0; j-- {
		w := p.ByFinish[j]
		if len(p.DictatedReads[w]) == 0 {
			continue
		}
		for f := ops[w].Finish; x >= 0 && ops[x].Start > f; x-- {
			if ops[x].IsWrite() {
				s.tree.add(s.rank[x])
			}
		}
		for _, r := range p.DictatedReads[w] {
			best = max(best, s.tree.sum(s.rank[r]-1))
		}
		if 1+best >= limit {
			break
		}
	}
	return 1 + best
}

// fenwick is a 0-based binary indexed tree over counts.
type fenwick []int

func (f fenwick) add(i int) {
	for ; i < len(f); i |= i + 1 {
		f[i]++
	}
}

// sum returns the count over ranks [0, i]; i < 0 yields 0.
func (f fenwick) sum(i int) int {
	s := 0
	for ; i >= 0; i = i&(i+1) - 1 {
		s += f[i]
	}
	return s
}

// span is a pair of endpoints: (start, finish) as the input gave them.
type span struct{ a, b int64 }

// forcedStalenessRaw is the Measure-side variant over a raw, possibly
// anomalous history: each read resolves to the first write of its value
// through a sorted value index, and unresolved reads are skipped. It reports
// on the un-normalized timestamps, so it may undercount relative to
// ForcedStaleness on the normalized history (normalization only shortens
// writes); it is informational, not a verification input. A raw history need
// not be in start order and has no finish order, so both are sorted here and
// the same sweep runs over them; ties need no care, since the sweep's
// comparisons are strict and its cursors monotone.
func forcedStalenessRaw(h *History) int {
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

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
// core.Verifier.SmallestKPrepared reads it on the units FZF has rejected: it
// climbs from max(3, bound) in doubling steps, so a history whose staleness
// is all forced costs one oracle call.
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
	ops := p.H.Ops
	s.rank = slices.Grow(s.rank[:0], len(ops))[:len(ops)]
	writes := 0
	for _, i := range p.ByFinish {
		if ops[i].IsWrite() {
			s.rank[i] = writes
			writes++
		}
	}
	if writes == 0 {
		return 1
	}
	next, below := 0, 0
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
	}
	s.tree = slices.Grow(s.tree[:0], writes)[:writes]
	clear(s.tree)
	best, x := 0, len(ops)-1
	for j := len(ops) - 1; j >= 0; j-- {
		w := p.ByFinish[j]
		if len(p.DictatedReads[w]) == 0 {
			continue
		}
		for ; x >= 0 && ops[x].Start > ops[w].Finish; x-- {
			if ops[x].IsWrite() {
				s.tree.add(s.rank[x])
			}
		}
		for _, r := range p.DictatedReads[w] {
			best = max(best, s.tree.sum(s.rank[r]-1))
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

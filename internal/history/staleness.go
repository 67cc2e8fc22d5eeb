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
// core.Verifier.SmallestKPrepared starts its upward search here: once the
// zone test has ruled out k=1 it probes max(3, bound) first (FZF settles
// k=2 when the bound allows it) and climbs in doubling steps, so a history
// whose staleness is all forced costs one oracle call.
//
// Cost: O(n log n) — one sweep over writes ordered by start with a Fenwick
// tree counting write finish ranks.
func ForcedStaleness(p *Prepared) int {
	return ForcedStalenessScratch(p, &StalenessScratch{})
}

// StalenessScratch holds the sweep's buffers, so a caller that bounds a
// stream of histories (the smallest-k ladder, once per segment) stops
// allocating once they have grown.
type StalenessScratch struct {
	writes, queries []span
	finishes        []int64
	tree            fenwick
}

// ForcedStalenessScratch is ForcedStaleness reusing s's buffers.
func ForcedStalenessScratch(p *Prepared, s *StalenessScratch) int {
	s.writes, s.queries = s.writes[:0], s.queries[:0]
	for i, op := range p.H.Ops {
		if op.IsWrite() {
			s.writes = append(s.writes, span{op.Start, op.Finish})
		} else if op.IsRead() {
			// (after, before): count writes with Start > after && Finish < before.
			s.queries = append(s.queries, span{p.Op(p.DictatingWrite[i]).Finish, op.Start})
		}
	}
	return 1 + s.maxForcedBetween()
}

// span is a half-open query or write interval for the forced-between sweep;
// for writes it is (Start, Finish), for queries (after, before).
type span struct{ a, b int64 }

// maxForcedBetween returns the maximum, over s.queries, of the number of
// s.writes with Start > q.a and Finish < q.b; it reorders both. Writes are
// consumed in descending start order while queries are served in descending
// q.a order; a Fenwick tree over finish ranks answers the Finish < q.b
// prefix counts.
func (s *StalenessScratch) maxForcedBetween() int {
	if len(s.writes) == 0 || len(s.queries) == 0 {
		return 0
	}
	s.finishes = s.finishes[:0]
	for _, w := range s.writes {
		s.finishes = append(s.finishes, w.b)
	}
	slices.Sort(s.finishes)
	descending := func(x, y span) int { return cmp.Compare(y.a, x.a) }
	slices.SortFunc(s.writes, descending)
	slices.SortFunc(s.queries, descending)

	if cap(s.tree) < len(s.finishes) {
		s.tree = make(fenwick, len(s.finishes))
	}
	s.tree = s.tree[:len(s.finishes)]
	clear(s.tree)
	best, wi := 0, 0
	for _, q := range s.queries {
		for wi < len(s.writes) && s.writes[wi].a > q.a {
			r, _ := slices.BinarySearch(s.finishes, s.writes[wi].b)
			s.tree.add(r)
			wi++
		}
		// Count inserted finishes strictly below q.b.
		r, _ := slices.BinarySearch(s.finishes, q.b)
		if n := s.tree.sum(r - 1); n > best {
			best = n
		}
	}
	return best
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

// forcedStalenessRaw is the Measure-side variant over a raw, possibly
// anomalous history: reads resolve their dictating write through a sorted
// value index, and unresolved reads are skipped. It reports on the
// un-normalized timestamps, so it may undercount relative to
// ForcedStaleness on the normalized history (normalization only shortens
// writes); it is informational, not a verification input.
func forcedStalenessRaw(h *History) int {
	writes := make([]valueEntry, 0, len(h.Ops))
	spans := make([]span, 0, len(h.Ops))
	for i, op := range h.Ops {
		if op.IsWrite() {
			writes = append(writes, valueEntry{op.Value, i})
			spans = append(spans, span{op.Start, op.Finish})
		}
	}
	if len(spans) == 0 {
		return 1
	}
	sortValueEntries(writes)
	queries := make([]span, 0, len(h.Ops)-len(spans))
	for _, op := range h.Ops {
		if !op.IsRead() {
			continue
		}
		vi := lookupValue(writes, op.Value)
		if vi < 0 {
			continue
		}
		queries = append(queries, span{h.Ops[writes[vi].write].Finish, op.Start})
	}
	s := StalenessScratch{writes: spans, queries: queries}
	return 1 + s.maxForcedBetween()
}

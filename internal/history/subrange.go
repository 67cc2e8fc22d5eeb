package history

import (
	"fmt"
	"slices"
)

// SubPrepared returns a verification view of the prepared history restricted
// to the contiguous operation range [lo, hi). The view's History aliases p's
// operation slice — no operations are copied — and it answers WriteFor from
// p's value table; the index slices (dictating writes, dictated reads) are
// rebuilt from the range alone, with indices shifted into the view's
// coordinate space, in s's buffers: the view is valid only until s's next
// use (a nil s allocates a fresh one) and no longer than p.
//
// The boundaries must be safe cuts (zone.SafeCut): every read in the range
// must have its dictating write inside the range, and the range's operations
// must hold the same positions in p's finish order as in its start order (as
// quiescence at both boundaries makes them), or an error is returned. The
// view's finish order is then its run of p's, shifted down by lo; no sort.
// Under that precondition the view satisfies every Prepared invariant the
// verification algorithms rely on (start-sorted operations, local
// dictating-write index, finish order, unique values), so the
// segment-equivalence lemma applies: the history is k-atomic iff every
// safe-cut segment view is, and smallest-k is the maximum over views. This is
// what lets the (key, chunk) scheduler fan the exact oracle and the
// smallest-k search out over segments of a single hot key.
//
// Operation IDs are left global (they identify ops of the full history), so
// diagnostics reference the original trace; verification is index-based and
// never consults IDs.
func SubPrepared(p *Prepared, lo, hi int, s *PrepareScratch) (*Prepared, error) {
	n := p.Len()
	if lo < 0 || hi > n || lo > hi {
		return nil, fmt.Errorf("history: subrange [%d,%d) out of bounds (len %d)", lo, hi, n)
	}
	if s == nil {
		s = &PrepareScratch{}
	}
	m := hi - lo
	if cap(s.dictating) < m {
		s.dictating = make([]int, m)
	}
	if cap(s.dictated) < m {
		s.dictated, s.flat = make([][]int, m), make([]int, m)
	}
	dictating, dictated, flat := s.dictating[:m], s.dictated[:m], s.flat[:0]
	for i := range dictating {
		w := p.DictatingWrite[lo+i]
		if w >= 0 {
			if w < lo || w >= hi {
				return nil, fmt.Errorf("history: read %d dictated by write %d outside subrange [%d,%d) — not a safe cut", lo+i, w, lo, hi)
			}
			w -= lo
		}
		dictating[i] = w
		// The per-write read lists come out of one flat buffer, as in carve.
		rs := p.DictatedReads[lo+i]
		off := len(flat)
		for _, r := range rs {
			if r < lo || r >= hi {
				// The same contract from the write's side.
				return nil, fmt.Errorf("history: write %d dictates read %d outside subrange [%d,%d) — not a safe cut", lo+i, r, lo, hi)
			}
			flat = append(flat, r-lo)
		}
		dictated[i] = flat[off:len(flat):len(flat)]
		if len(rs) == 0 {
			dictated[i] = nil
		}
	}
	// Quiescence at both cuts puts the range's finishes at the same
	// positions of p's finish order as its operations hold in start order.
	order := slices.Grow(s.order[:0], m)
	for _, i := range p.ByFinish[lo:hi] {
		if i < lo || i >= hi {
			return nil, fmt.Errorf("history: operation %d finishes among [%d,%d) — not a safe cut", i, lo, hi)
		}
		order = append(order, i-lo)
	}
	s.order = order
	s.view.Ops = p.H.Ops[lo:hi]
	s.p = Prepared{
		H:              &s.view,
		DictatingWrite: dictating,
		DictatedReads:  dictated,
		ByFinish:       order,
		values:         p.values,
		base:           p.base + lo,
	}
	if p.Extremes != nil {
		s.p.Extremes = p.Extremes[lo:hi]
	}
	return &s.p, nil
}

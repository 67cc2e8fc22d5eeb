// Package fzf implements the FZF (Forward Zones First) 2-atomicity
// verification algorithm of Section IV (Figure 4) of the paper, which runs
// in O(n log n) even in the worst case (Theorem 4.6).
//
// Stage 1 decomposes the history into the maximal chunks of its chunk set
// CS(H) plus dangling backward clusters (package zone). Stage 2 decides
// 2-atomicity of each chunk independently by testing a constant number of
// candidate total orders over the chunk's dictating writes: T_F (forward
// writes by increasing zone low endpoint), T'_F (T_F with the first two
// writes swapped), and — for chunks with one or two backward clusters — the
// backward writes prepended/appended around them (Lemmas 4.2 and 4.3 prove
// these are the only possible viable orders; three or more backward clusters
// are immediately fatal). Each candidate order is checked for viability with
// a simplified, backtracking-free LBT pass. Stage 3 declares the history
// 2-atomic iff every chunk passed (Lemma 4.1).
//
// Two doors share the one Stage 2. CheckScratch runs Stage 1 itself and
// assembles the Lemma 4.1 witness: it serves the fixed-k check, which
// validates every witness it returns. Decide takes a decomposition the
// caller already has and returns the verdict alone: it serves the smallest-k
// ladder, which reads the same decomposition for its zone test and has no
// use for an order. So a witness is built only where it is validated.
//
// The hot path is allocation-free at steady state: both doors run out of a
// reusable Scratch arena (dense slice-indexed position lookups instead of
// maps, flat pooled buffers instead of per-candidate slices).
package fzf

import (
	"fmt"
	"slices"

	"kat/internal/history"
	"kat/internal/witness"
	"kat/internal/zone"
)

// Result reports the decision and diagnostics.
type Result struct {
	// Atomic is true iff the history is 2-atomic.
	Atomic bool
	// Witness is a valid 2-atomic total order (operation indices) when
	// Atomic is true, assembled per Lemma 4.1 from per-chunk orders and
	// dangling clusters. When produced by CheckScratch it aliases the
	// Scratch and is valid only until the next call with that Scratch.
	Witness []int
	// Chunks is the number of maximal chunks examined.
	Chunks int
	// Dangling is the number of dangling (backward) clusters.
	Dangling int
	// OrdersTried counts candidate total orders tested for viability.
	OrdersTried int
	// FailedChunk is the index of the chunk that failed (when !Atomic and
	// the failure was per-chunk), else -1.
	FailedChunk int
	// Reason describes the failure (diagnostics; empty on success).
	Reason string
}

// Scratch is a reusable buffer arena for CheckScratch. A zero Scratch is
// ready to use; buffers grow to the largest history seen and are reused, so
// repeated checks of same-sized histories allocate nothing.
type Scratch struct {
	zone       zone.Scratch
	pos        []int   // dense op index -> position in current chunk's ops; -1 = absent
	removed    []bool  // per-candidate placement marks over chunk positions
	ops        []int   // current chunk's operation indices in start order
	tfPrime    []int   // T'_F buffer (T_F with the first two writes swapped)
	containers []int   // flat per-slot container-read storage
	slotLo     []int   // container range starts, indexed by write position
	slotHi     []int   // container range ends
	placed     []int   // flat placed per-chunk orders
	orders     [][]int // each chunk's placed order, a view into placed
	witness    []int
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch { return &Scratch{} }

// ensure sizes the dense position index for histories of p's size. The index
// holds -1 everywhere between chunks (entries are restored after each use).
func (s *Scratch) ensure(p *history.Prepared) {
	if n := p.Len(); len(s.pos) < n {
		old := len(s.pos)
		s.pos = append(s.pos[:old:old], make([]int, n-old)...)
		for i := old; i < n; i++ {
			s.pos[i] = -1
		}
	}
}

// candidate is one Stage 2 write order: an optional prepended backward
// write, the forward writes, and an optional appended backward write.
// Representing it this way avoids materializing the concatenation.
type candidate struct {
	pre, post int // write index, or -1 for none
	mid       []int
}

func (c candidate) len() int {
	n := len(c.mid)
	if c.pre >= 0 {
		n++
	}
	if c.post >= 0 {
		n++
	}
	return n
}

func (c candidate) at(i int) int {
	if c.pre >= 0 {
		if i == 0 {
			return c.pre
		}
		i--
	}
	if i < len(c.mid) {
		return c.mid[i]
	}
	return c.post
}

// Check decides 2-atomicity of the prepared history using FZF.
func Check(p *history.Prepared) Result {
	return CheckScratch(p, NewScratch())
}

// CheckScratch is Check reusing s's buffers across calls; at steady state it
// performs no allocations. The returned Witness aliases s and is valid only
// until the next call with the same Scratch.
func CheckScratch(p *history.Prepared, s *Scratch) Result {
	s.ensure(p)
	dec := zone.DecomposeScratch(p, &s.zone)
	res := Result{
		Chunks:      len(dec.Chunks),
		Dangling:    len(dec.Dangling),
		FailedChunk: -1,
	}

	s.orders = s.orders[:0]
	s.placed = s.placed[:0]
	for ci := range dec.Chunks {
		ch := dec.Chunks[ci]
		ord, tried, reason := s.checkChunk(p, ch)
		res.OrdersTried += tried
		if ord == nil {
			res.FailedChunk = ci
			res.Reason = reason
			return res
		}
		s.orders = append(s.orders, ord)
	}
	res.Witness = Assemble(p, dec, s.orders, s.witness[:0])
	s.witness = res.Witness
	res.Atomic = true
	return res
}

// Decide is Stages 2 and 3 over the caller's Stage 1 decomposition of p
// (zone.DecomposeScratch), verdict only: it runs CheckChunk on each chunk and
// reports whether every one has a viable candidate order — exactly
// CheckScratch(p, s).Atomic — with no witness assembled. s's own
// decomposition buffers are left alone, so dec may live in any other arena.
func Decide(p *history.Prepared, dec zone.Decomposition, s *Scratch) bool {
	for _, ch := range dec.Chunks {
		if ord, _, _ := CheckChunk(p, ch, s); ord == nil {
			return false
		}
	}
	return true
}

// Assemble builds the Lemma 4.1 witness of a fully verified decomposition
// and appends it to buf: each chunk's placed order (orders[i] is the one
// CheckChunk produced for dec.Chunks[i]) and each dangling cluster, in order
// of zone low endpoint. It is the Witness CheckScratch returns on the same
// history. Any total order extending ≤_H works; ordering by low endpoint does
// (X.h < Y.l implies X.l < Y.l). A dangling cluster is backward: all its
// operations pairwise overlap, so write-then-reads (in start order) is valid
// and 1-atomic.
//
// Both runs arrive sorted: zone.DecomposeScratch and zone.DecomposeZones list
// the chunks by Lo (disjoint forward runs, swept by low endpoint) and the
// dangling clusters by low endpoint (the backward zones are sorted before
// they are assigned). So one stable merge orders them in O(n), a chunk ahead
// of a dangling cluster whose low endpoint ties with its Lo.
func Assemble(p *history.Prepared, dec zone.Decomposition, orders [][]int, buf []int) []int {
	ci := 0
	for _, w := range dec.Dangling {
		low := clusterLow(p, w)
		for ; ci < len(dec.Chunks) && dec.Chunks[ci].Lo <= low; ci++ {
			buf = append(buf, orders[ci]...)
		}
		buf = append(buf, w)
		buf = append(buf, p.DictatedReads[w]...)
	}
	for ; ci < len(dec.Chunks); ci++ {
		buf = append(buf, orders[ci]...)
	}
	return buf
}

// CheckChunk runs Stage 2 on a single chunk in isolation: it returns the
// placed 2-atomic total order over the chunk's operations for the first
// viable candidate write order, or ord == nil with a reason when the chunk is
// not 2-atomic. The chunk-parallel scheduler calls this with one Scratch per
// worker; verdicts are position-independent, so per-chunk results combine
// into exactly the sequential CheckScratch outcome (first failing chunk, or
// Assemble of all orders). The returned order aliases s and is valid only
// until the next call with the same Scratch.
func CheckChunk(p *history.Prepared, ch zone.Chunk, s *Scratch) (ord []int, tried int, reason string) {
	s.ensure(p)
	s.placed = s.placed[:0]
	return s.checkChunk(p, ch)
}

// AppendChunkOps appends the operation indices of chunk ch (its forward and
// backward clusters' writes and dictated reads) in start order into buf. The
// chunk-parallel scheduler uses it to hash a chunk's content for the verdict
// memo and to translate memoized chunk-relative orders back to operation
// indices.
func AppendChunkOps(p *history.Prepared, ch zone.Chunk, buf []int) []int {
	start := len(buf)
	for _, w := range ch.Forward {
		buf = append(buf, w)
		buf = append(buf, p.DictatedReads[w]...)
	}
	for _, w := range ch.Backward {
		buf = append(buf, w)
		buf = append(buf, p.DictatedReads[w]...)
	}
	slices.Sort(buf[start:])
	return buf
}

// clusterLow returns the zone low endpoint of write w's cluster.
func clusterLow(p *history.Prepared, w int) int64 {
	op := p.Op(w)
	minFinish, maxStart := op.Finish, op.Start
	for _, r := range p.DictatedReads[w] {
		rop := p.Op(r)
		if rop.Finish < minFinish {
			minFinish = rop.Finish
		}
		if rop.Start > maxStart {
			maxStart = rop.Start
		}
	}
	if minFinish < maxStart {
		return minFinish
	}
	return maxStart
}

// checkChunk runs Stage 2 for one chunk: it builds the candidate orders and
// returns the placed total order over the chunk's operations for the first
// viable candidate, or nil with a reason if none is viable. The returned
// order points into s.placed.
func (s *Scratch) checkChunk(p *history.Prepared, ch zone.Chunk) (ord []int, tried int, reason string) {
	tf := ch.Forward
	tfPrime := tf
	if len(tf) >= 2 {
		s.tfPrime = append(s.tfPrime[:0], tf...)
		s.tfPrime[0], s.tfPrime[1] = s.tfPrime[1], s.tfPrime[0]
		tfPrime = s.tfPrime
	}

	var cands [4]candidate
	nc := 0
	switch b := len(ch.Backward); {
	case b == 0:
		cands[nc] = candidate{-1, -1, tf}
		nc++
		if len(tf) >= 2 {
			cands[nc] = candidate{-1, -1, tfPrime}
			nc++
		}
	case b == 1:
		w := ch.Backward[0]
		cands[0] = candidate{w, -1, tf}
		cands[1] = candidate{-1, w, tf}
		nc = 2
		if len(tf) >= 2 {
			cands[2] = candidate{w, -1, tfPrime}
			cands[3] = candidate{-1, w, tfPrime}
			nc = 4
		}
	case b == 2:
		w1, w2 := ch.Backward[0], ch.Backward[1]
		cands[0] = candidate{w1, w2, tf}
		cands[1] = candidate{w2, w1, tf}
		nc = 2
		if len(tf) >= 2 {
			cands[2] = candidate{w1, w2, tfPrime}
			cands[3] = candidate{w2, w1, tfPrime}
			nc = 4
		}
	default:
		// B >= 3: not 2-atomic (Lemma 4.3, Case 4).
		return nil, 0, fmt.Sprintf("chunk has %d backward clusters (three or more is fatal)", b)
	}

	s.chunkOps(p, ch)
	for i, op := range s.ops {
		s.pos[op] = i
	}
	for i := 0; i < nc; i++ {
		tried++
		if placed := s.viable(p, cands[i]); placed != nil {
			ord = placed
			break
		}
	}
	// Restore the dense index's all-(-1) invariant for the next chunk.
	for _, op := range s.ops {
		s.pos[op] = -1
	}
	if ord == nil {
		return nil, tried, "no candidate write order is viable"
	}
	return ord, tried, ""
}

// chunkOps collects the operation indices of H|K in start order into s.ops.
// Prepared histories are index-sorted by start time, so sorting indices
// suffices.
func (s *Scratch) chunkOps(p *history.Prepared, ch zone.Chunk) {
	s.ops = AppendChunkOps(p, ch, s.ops[:0])
}

// viable implements the simplified LBT subroutine of Theorem 4.6: given a
// candidate total order c over all dictating writes of the chunk (the
// chunk's operations, in start order, are in s.ops with s.pos holding their
// positions), it attempts to extend c to a valid 2-atomic total order over
// all the operations, processing writes in reverse order without
// backtracking. It returns the full placed order (into s.placed) on success
// and nil otherwise.
//
// For the write at position j (1-based from the front), every not-yet-placed
// operation starting after that write finishes must be a read dictated by
// c.at(j) or by its predecessor c.at(j-1) — anything else would be separated
// from its dictating write by two or more writes (or violate validity).
func (s *Scratch) viable(p *history.Prepared, c candidate) []int {
	nw := c.len()
	// Validity pre-check: for i < j, c.at(j) must not precede c.at(i) in time.
	var maxStart int64
	for j := 0; j < nw; j++ {
		w := c.at(j)
		if j > 0 && p.Op(w).Finish < maxStart {
			return nil
		}
		if st := p.Op(w).Start; j == 0 || st > maxStart {
			maxStart = st
		}
	}

	n := len(s.ops)
	if len(s.removed) < n {
		s.removed = make([]bool, n)
	}
	removed := s.removed[:n]
	clear(removed)
	tail := n - 1 // highest not-yet-removed position

	if len(s.slotLo) < nw {
		s.slotLo = make([]int, nw)
		s.slotHi = make([]int, nw)
	}
	s.containers = s.containers[:0]
	for j := nw - 1; j >= 0; j-- {
		w := c.at(j)
		prevW := -1
		if j > 0 {
			prevW = c.at(j - 1)
		}
		wFinish := p.Op(w).Finish
		cStart := len(s.containers)
		// Forced suffix: ops starting after w finishes.
		for tail >= 0 {
			for tail >= 0 && removed[tail] {
				tail--
			}
			if tail < 0 {
				break
			}
			op := s.ops[tail]
			if p.Op(op).Start <= wFinish {
				break
			}
			if p.Op(op).IsWrite() {
				return nil // a write forced after w: invalid order
			}
			d := p.DictatingWrite[op]
			if d != w && d != prevW {
				return nil // separation >= 2 for this read
			}
			s.containers = append(s.containers, op)
			removed[tail] = true
			tail--
		}
		// Remaining dictated reads of w.
		for _, r := range p.DictatedReads[w] {
			pos := s.pos[r]
			if pos < 0 || removed[pos] {
				continue
			}
			s.containers = append(s.containers, r)
			removed[pos] = true
		}
		// Place w itself.
		wpos := s.pos[w]
		if wpos < 0 || removed[wpos] {
			return nil // duplicate write in c or w outside chunk
		}
		removed[wpos] = true
		s.slotLo[j], s.slotHi[j] = cStart, len(s.containers)
	}
	// Everything must be placed: every read's dictating write is in c.
	for i := 0; i < n; i++ {
		if !removed[i] {
			return nil
		}
	}
	// Assemble front-to-back order; container reads sorted by start
	// (index order == start order in prepared histories).
	start := len(s.placed)
	for j := 0; j < nw; j++ {
		s.placed = append(s.placed, c.at(j))
		reads := s.containers[s.slotLo[j]:s.slotHi[j]]
		slices.Sort(reads)
		s.placed = append(s.placed, reads...)
	}
	return s.placed[start:]
}

// viable is the direct-call form used by tests: it checks a bare write order
// t against an explicit chunk op set and returns the placed order, or nil.
func viable(p *history.Prepared, t []int, ops []int) []int {
	s := NewScratch()
	s.ensure(p)
	s.ops = append(s.ops, ops...)
	for i, op := range s.ops {
		s.pos[op] = i
	}
	return s.viable(p, candidate{pre: -1, post: -1, mid: t})
}

// SelfCheck verifies a positive result's witness independently.
func SelfCheck(p *history.Prepared, r Result) error {
	if !r.Atomic {
		return nil
	}
	return witness.Validate(p, r.Witness, 2)
}

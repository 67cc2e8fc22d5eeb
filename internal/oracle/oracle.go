// Package oracle implements an exact decision procedure for k-atomicity and
// weighted k-atomicity of arbitrary histories, for any k. It performs a
// memoized depth-first search over valid prefixes of a total order, placing
// reads eagerly (which is safe — see below) and branching only over writes.
//
// The oracle is exponential in the worst case — consistent with Section V's
// NP-completeness result for the weighted problem and with the absence of
// known polynomial algorithms for k ≥ 3 — but with eager read placement and
// dead-write pruning it handles the history sizes used for ground truth in
// tests and as the k ≥ 3 rung of the smallest-k ladder.
//
// Why eager reads are safe: if a valid k-atomic extension exists from the
// current prefix, and read r is appendable (no unplaced operation precedes
// it) with its dictating write's staleness budget not yet exhausted, then
// moving r to the front of the extension keeps the order valid (nothing
// unplaced precedes r) and cannot hurt any other operation (moving a read
// earlier never changes the number of writes separating any other read from
// its dictating write).
//
// What a state costs. A search state pays for its live writes (placed writes
// with unplaced dictated reads) and for the operations that could go next,
// not for the length of the history:
//
//   - Cursors. The search walks the operations in start order (the prepared
//     order) and in finish order (Prepared.ByFinish, which the builder
//     records, so a search sorts nothing). Every position before the cursor
//     sLo (start order) or fLo (finish order) holds a placed operation:
//     placing keeps that true, and unplacing an operation lowers each cursor
//     to its position. Scans begin at the cursors, and since an operation starts
//     before it finishes, the appendable operations are a prefix of the
//     unplaced ones in start order, so a scan stops at the first one that is
//     not appendable.
//   - Live writes. They form a list in placement order. Placing a write's
//     last pending read unlinks the write, and unplacing that read links it
//     back in place; every undo is last-in first-out, so the list is always
//     what it was when the state was entered.
//   - A lazy memo. The memo holds failed states only, so while it is empty no
//     state has anything to look up and none builds a key. A state that fails
//     builds its key after its write loop, when every write it tried has been
//     unplaced and its eager reads are still placed: it is then exactly the
//     state it entered as. A key is the placed bitset's words, then every live
//     write's index and capped load as uvarints, written into one reused
//     buffer; a lookup does not allocate, an insertion allocates the key.
//
// A Scratch keeps all of this between searches. A Result returned through it
// aliases the Scratch: its Witness is valid only until the Scratch's next
// search.
package oracle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"kat/internal/history"
)

// ErrStateLimit is returned when the search exceeds its state budget. The
// answer is then unknown; callers can retry with a larger budget.
var ErrStateLimit = errors.New("oracle: state budget exhausted")

// DefaultMaxStates bounds the number of distinct memoized states explored.
const DefaultMaxStates = 2_000_000

// memoKeep is the largest memo a Scratch keeps (cleared) for its next search;
// a bigger one is dropped, so a pathological search does not pin its memo.
const memoKeep = 1 << 12

// Options tune the search.
type Options struct {
	// MaxStates bounds memoized states; 0 means DefaultMaxStates.
	MaxStates int
	// UseWeights makes the check weighted (Section V): the total weight
	// of writes from a read's dictating write (inclusive) to the read
	// must be at most k. When false, every write counts 1 and the bound
	// k corresponds to plain k-atomicity.
	UseWeights bool
}

// Result reports a decision and, for positive answers, a witness.
type Result struct {
	// Atomic is the decision.
	Atomic bool
	// Witness is a valid k-atomic total order (operation indices into the
	// prepared history) when Atomic is true.
	Witness []int
	// States is the number of search states explored (diagnostics).
	States int
}

// Scratch holds one search's buffers — placement state, finish positions, the
// undo stack, the memo and the witness — for reuse across searches, so a
// worker probing many segments allocates only the memo keys of searches that
// backtrack. The zero value is ready to use; a Scratch is not safe for
// concurrent use.
type Scratch struct {
	p             *history.Prepared
	ops           []history.Operation
	bound         int64 // k (plain) or weight bound (weighted)
	n             int
	states, limit int

	placed  []uint64 // bitset over operation indices
	pending []int    // per write: number of unplaced dictated reads
	load    []int64  // per placed write: own weight + weights of writes placed after it
	weight  []int64  // effective weight per write (1 for plain k-AV)
	// next and prev link the live writes in placement order; index n is
	// the list's head.
	next, prev []int
	order      []int // placement order so far; the witness on success
	reads      []int // eager reads placed, all levels: one undo stack

	byFinish []int // operation indices in finish order: p.ByFinish
	finPos   []int // finPos[i] is operation i's position in byFinish
	sLo, fLo int   // cursors into start order and byFinish (package doc)

	memo   map[string]struct{} // failed states
	keyBuf []byte
}

// CheckK decides whether the prepared history is k-atomic.
func CheckK(p *history.Prepared, k int, opts Options) (Result, error) {
	return CheckKScratch(p, k, opts, new(Scratch))
}

// CheckKScratch is CheckK reusing s's buffers. The returned Witness aliases s
// and is valid only until s's next search.
func CheckKScratch(p *history.Prepared, k int, opts Options, s *Scratch) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("oracle: k must be >= 1, got %d", k)
	}
	opts.UseWeights = false
	s.reset(p, int64(k), opts)
	return s.run()
}

// CheckWeighted decides the weighted k-AV problem of Section V: every read
// must be within total write weight k of its dictating write, counting the
// dictating write itself.
func CheckWeighted(p *history.Prepared, k int64, opts Options) (Result, error) {
	return CheckWeightedScratch(p, k, opts, new(Scratch))
}

// CheckWeightedScratch is CheckWeighted reusing s's buffers. The returned
// Witness aliases s and is valid only until s's next search.
func CheckWeightedScratch(p *history.Prepared, k int64, opts Options, s *Scratch) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("oracle: weight bound must be >= 1, got %d", k)
	}
	opts.UseWeights = true
	s.reset(p, k, opts)
	return s.run()
}

// reset prepares s for a search of p, reusing every buffer.
func (s *Scratch) reset(p *history.Prepared, bound int64, opts Options) {
	n := p.Len()
	s.p, s.ops, s.bound, s.n = p, p.H.Ops, bound, n
	s.states, s.limit = 0, opts.MaxStates
	if s.limit <= 0 {
		s.limit = DefaultMaxStates
	}
	s.placed = resize(s.placed, (n+63)/64)
	clear(s.placed)
	s.pending, s.load, s.weight = resize(s.pending, n), resize(s.load, n), resize(s.weight, n)
	s.next, s.prev = resize(s.next, n+1), resize(s.prev, n+1)
	s.next[n], s.prev[n] = n, n
	s.byFinish, s.finPos = p.ByFinish, resize(s.finPos, n)
	s.order, s.reads = s.order[:0], s.reads[:0]
	s.sLo, s.fLo = 0, 0
	for i := range s.ops {
		s.pending[i] = len(p.DictatedReads[i])
		s.weight[i] = 1
		if opts.UseWeights {
			s.weight[i] = s.ops[i].EffectiveWeight()
		}
	}
	for j, i := range s.byFinish {
		s.finPos[i] = j
	}
	if len(s.memo) > memoKeep {
		s.memo = nil
	} else {
		clear(s.memo)
	}
}

// resize returns b with length n, reallocated only when it is too small; the
// contents are stale.
func resize[T any](b []T, n int) []T { return slices.Grow(b[:0], n)[:n] }

func (s *Scratch) run() (Result, error) {
	ok, err := s.dfs(s.n)
	res := Result{Atomic: ok, States: s.states}
	if err != nil {
		return res, err
	}
	if ok && s.n > 0 {
		res.Witness = s.order
	}
	return res, nil
}

func (s *Scratch) isPlaced(i int) bool { return s.placed[i>>6]&(1<<(i&63)) != 0 }

// mark places operation i at the end of the order.
func (s *Scratch) mark(i int) {
	s.placed[i>>6] |= 1 << (i & 63)
	s.order = append(s.order, i)
}

// unmark takes operation i, the last placed, off the order and lowers the
// cursors to its positions.
func (s *Scratch) unmark(i int) {
	s.placed[i>>6] &^= 1 << (i & 63)
	s.order = s.order[:len(s.order)-1]
	s.sLo = min(s.sLo, i)
	s.fLo = min(s.fLo, s.finPos[i])
}

// firstUnplaced advances sLo to the first unplaced position in start order.
func (s *Scratch) firstUnplaced() int {
	for s.sLo < s.n && s.isPlaced(s.sLo) {
		s.sLo++
	}
	return s.sLo
}

// minFinishes returns the two smallest finish times among unplaced ops
// (math.MaxInt64 when absent): the first two unplaced entries of byFinish.
func (s *Scratch) minFinishes() (int64, int64) {
	for s.fLo < s.n && s.isPlaced(s.byFinish[s.fLo]) {
		s.fLo++
	}
	m1, m2 := int64(math.MaxInt64), int64(math.MaxInt64)
	if s.fLo == s.n {
		return m1, m2
	}
	m1 = s.ops[s.byFinish[s.fLo]].Finish
	for _, i := range s.byFinish[s.fLo+1:] {
		if !s.isPlaced(i) {
			m2 = s.ops[i].Finish
			break
		}
	}
	return m1, m2
}

// appendable reports whether op i may be placed next: no unplaced other
// operation precedes it.
func (s *Scratch) appendable(i int, m1, m2 int64) bool {
	threshold := m1
	if s.ops[i].Finish == m1 {
		threshold = m2
	}
	return s.ops[i].Start < threshold
}

// unlink takes live write w out of the live list; relink puts it back where
// it was, which is sound because undo is last-in first-out.
func (s *Scratch) unlink(w int) {
	s.next[s.prev[w]], s.prev[s.next[w]] = s.next[w], s.prev[w]
}

func (s *Scratch) relink(w int) {
	s.next[s.prev[w]], s.prev[s.next[w]] = w, w
}

// placeRead places read r (caller checked constraints) and pushes it on the
// undo stack.
func (s *Scratch) placeRead(r int) {
	s.mark(r)
	s.reads = append(s.reads, r)
	w := s.p.DictatingWrite[r]
	if s.pending[w]--; s.pending[w] == 0 {
		s.unlink(w)
	}
}

// unplaceReads pops the undo stack down to depth mark.
func (s *Scratch) unplaceReads(mark int) {
	for len(s.reads) > mark {
		r := s.reads[len(s.reads)-1]
		s.reads = s.reads[:len(s.reads)-1]
		w := s.p.DictatingWrite[r]
		if s.pending[w] == 0 {
			s.relink(w)
		}
		s.pending[w]++
		s.unmark(r)
	}
}

// placeEagerReads places every appendable read whose dictating write is
// placed and whose staleness budget holds, in start order, and reports a dead
// end: an appendable read whose budget is already exhausted can never be
// placed later. One pass is enough. Placing a read only raises the finish
// thresholds, so what the pass went by stays as it was: placed operations,
// writes, and appendable reads of unplaced writes.
func (s *Scratch) placeEagerReads() (dead bool) {
	m1, m2 := s.minFinishes()
	for i := s.firstUnplaced(); i < s.n; i++ {
		if s.isPlaced(i) {
			continue
		}
		if !s.appendable(i, m1, m2) {
			return false // appendable ops form a prefix of the start order
		}
		if !s.ops[i].IsRead() {
			continue
		}
		w := s.p.DictatingWrite[i]
		if !s.isPlaced(w) {
			continue
		}
		if s.load[w] > s.bound {
			// Budget exhausted and it only grows: dead end.
			return true
		}
		s.placeRead(i)
		m1, m2 = s.minFinishes()
	}
	return false
}

// placeWrite places write w, updating loads of live writes.
func (s *Scratch) placeWrite(w int) {
	s.mark(w)
	s.load[w] = s.weight[w]
	for x := s.next[s.n]; x != s.n; x = s.next[x] {
		s.load[x] += s.weight[w]
	}
	if s.pending[w] > 0 {
		s.next[w], s.prev[w] = s.n, s.prev[s.n]
		s.relink(w)
	}
}

// unplaceWrite undoes placeWrite(w); w is the last placed operation.
func (s *Scratch) unplaceWrite(w int) {
	if s.pending[w] > 0 {
		s.unlink(w)
	}
	for x := s.next[s.n]; x != s.n; x = s.next[x] {
		s.load[x] -= s.weight[w]
	}
	s.unmark(w)
}

// writeIsDeadly reports whether placing write w would push some live write
// beyond the budget (its pending reads could then never be placed), or w
// itself arrives with an impossible own weight.
func (s *Scratch) writeIsDeadly(w int) bool {
	if s.pending[w] > 0 && s.weight[w] > s.bound {
		return true
	}
	for x := s.next[s.n]; x != s.n; x = s.next[x] {
		if s.load[x]+s.weight[w] > s.bound {
			return true
		}
	}
	return false
}

// key builds the memo key into the reused buffer: the placed bitset plus the
// index and capped load of every live write, in placement order (feasibility
// of the remaining problem depends on exactly this state). Indices and loads
// are full-width uvarints after a fixed-length bitset, so distinct states
// never share a key.
func (s *Scratch) key() []byte {
	b := s.keyBuf[:0]
	for _, w := range s.placed {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	for x := s.next[s.n]; x != s.n; x = s.next[x] {
		l := s.load[x]
		if l > s.bound {
			l = s.bound + 1
		}
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(x)), uint64(l))
	}
	s.keyBuf = b
	return b
}

// dfs returns whether the remaining ops can be placed. remaining is the
// number of unplaced ops. On success nothing is unwound and s.order is the
// witness; on failure s is back in the state dfs was entered in.
func (s *Scratch) dfs(remaining int) (bool, error) {
	mark := len(s.reads)
	dead := s.placeEagerReads()
	remaining -= len(s.reads) - mark
	if !dead && remaining == 0 {
		return true, nil
	}
	if dead || len(s.memo) > 0 && s.failed() {
		s.unplaceReads(mark)
		return false, nil
	}
	s.states++
	if s.states > s.limit {
		return false, ErrStateLimit
	}

	m1, m2 := s.minFinishes()
	for i := s.firstUnplaced(); i < s.n; i++ {
		if s.isPlaced(i) {
			continue
		}
		if !s.appendable(i, m1, m2) {
			break
		}
		if !s.ops[i].IsWrite() || s.writeIsDeadly(i) {
			continue
		}
		s.placeWrite(i)
		ok, err := s.dfs(remaining - 1)
		if err != nil || ok {
			return ok, err
		}
		s.unplaceWrite(i)
		m1, m2 = s.minFinishes()
	}
	if s.memo == nil {
		s.memo = make(map[string]struct{})
	}
	s.memo[string(s.key())] = struct{}{}
	s.unplaceReads(mark)
	return false, nil
}

// failed reports whether the current state is in the memo.
func (s *Scratch) failed() bool {
	_, ok := s.memo[string(s.key())]
	return ok
}

// Package wav implements the weighted k-AV problem of Section V (k-WAV):
// every write carries a positive integer weight, and a history is weighted
// k-atomic iff there is a valid total order in which, for every read, the
// total weight of the writes separating it from its dictating write —
// including the dictating write itself — is at most k.
//
// The package provides:
//
//   - an exact k-WAV decision procedure (delegating to the oracle's
//     branch-and-bound search, which handles weights natively);
//   - the bin-packing problem with an exact solver and the first-fit-
//     decreasing heuristic;
//   - the Figure 5 reduction from bin packing to k-WAV used in the proof of
//     Theorem 5.1 (k-WAV is NP-complete), so the reduction's correctness can
//     be exercised empirically.
package wav

import (
	"fmt"
	"sort"

	"kat/internal/history"
	"kat/internal/oracle"
)

// Check decides the weighted k-AV problem exactly. Exponential in the worst
// case (Theorem 5.1: the problem is NP-complete).
func Check(p *history.Prepared, bound int64, opts oracle.Options) (oracle.Result, error) {
	return oracle.CheckWeighted(p, bound, opts)
}

// BinPacking is a decision instance: can Sizes be partitioned into at most
// Bins subsets each summing to at most Capacity?
type BinPacking struct {
	Sizes    []int64
	Capacity int64
	Bins     int
}

// Validate reports structural problems with the instance.
func (bp BinPacking) Validate() error {
	if bp.Bins < 1 {
		return fmt.Errorf("wav: need at least one bin, got %d", bp.Bins)
	}
	if bp.Capacity < 1 {
		return fmt.Errorf("wav: capacity must be positive, got %d", bp.Capacity)
	}
	for i, s := range bp.Sizes {
		if s < 1 {
			return fmt.Errorf("wav: item %d has nonpositive size %d", i, s)
		}
	}
	return nil
}

// FirstFitDecreasing runs the classic FFD heuristic. It returns the
// per-item bin assignment and true if every item fits; a false result does
// not prove the instance unsolvable.
func (bp BinPacking) FirstFitDecreasing() ([]int, bool) {
	type item struct {
		size int64
		idx  int
	}
	items := make([]item, len(bp.Sizes))
	for i, s := range bp.Sizes {
		items[i] = item{size: s, idx: i}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].size > items[b].size })
	loads := make([]int64, bp.Bins)
	assign := make([]int, len(bp.Sizes))
	for _, it := range items {
		placed := false
		for b := range loads {
			if loads[b]+it.size <= bp.Capacity {
				loads[b] += it.size
				assign[it.idx] = b
				placed = true
				break
			}
		}
		if !placed {
			return nil, false
		}
	}
	return assign, true
}

// Solvable decides the instance exactly by branch and bound: items are
// placed in decreasing size order; bins with equal remaining capacity are
// interchangeable and only the first is tried; FFD is used as a fast
// accepting path.
func (bp BinPacking) Solvable() bool {
	if err := bp.Validate(); err != nil {
		return false
	}
	var total int64
	for _, s := range bp.Sizes {
		if s > bp.Capacity {
			return false
		}
		total += s
	}
	if total > bp.Capacity*int64(bp.Bins) {
		return false
	}
	if _, ok := bp.FirstFitDecreasing(); ok {
		return true
	}
	sizes := append([]int64(nil), bp.Sizes...)
	sort.Slice(sizes, func(a, b int) bool { return sizes[a] > sizes[b] })
	loads := make([]int64, bp.Bins)
	var dfs func(i int) bool
	dfs = func(i int) bool {
		if i == len(sizes) {
			return true
		}
		seen := make(map[int64]bool, bp.Bins)
		for b := range loads {
			if loads[b]+sizes[i] > bp.Capacity || seen[loads[b]] {
				continue
			}
			seen[loads[b]] = true
			loads[b] += sizes[i]
			if dfs(i + 1) {
				return true
			}
			loads[b] -= sizes[i]
		}
		return false
	}
	return dfs(0)
}

// Reduction is the output of Reduce: the constructed history, the k-WAV
// bound (B+2), and bookkeeping for interpreting witnesses.
type Reduction struct {
	// History is the constructed k-WAV instance (normalized).
	History *history.History
	// Bound is k = Capacity + 2 (Theorem 5.1).
	Bound int64
	// ShortValues[i] is the value written by short write w(i+1), for
	// i in [0, Bins]; the last one is the dummy write w(m+1).
	ShortValues []int64
	// ItemValues[j] is the value written by the long write carrying item
	// j's size as its weight.
	ItemValues []int64
}

// Reduce builds the Figure 5 construction: m+1 unit-weight "short" writes
// w(1)..w(m+1) with dictated reads r(1)..r(m) laid out sequentially as
// w(1) w(2) r(1) w(3) r(2) ... w(m+1) r(m), plus one "long" write per item
// with weight equal to the item's size, concurrent with everything strictly
// between w(1) and w(m+1). The instance is solvable iff the history is
// weighted (Capacity+2)-atomic.
func Reduce(bp BinPacking) (*Reduction, error) {
	if err := bp.Validate(); err != nil {
		return nil, err
	}
	m := bp.Bins
	n := len(bp.Sizes)
	g := int64(n + 10) // spacing unit; keeps all endpoints distinct
	slot := func(t int) (int64, int64) {
		lo := int64(t) * 4 * g
		return lo, lo + 2*g
	}

	red := &Reduction{Bound: bp.Capacity + 2}
	var ops []history.Operation
	val := int64(1)

	addShort := func(t int) int64 {
		lo, hi := slot(t)
		v := val
		val++
		ops = append(ops, history.Operation{
			Kind: history.KindWrite, Value: v, Start: lo, Finish: hi, Weight: 1,
		})
		red.ShortValues = append(red.ShortValues, v)
		return v
	}
	addRead := func(t int, v int64) {
		lo, hi := slot(t)
		ops = append(ops, history.Operation{
			Kind: history.KindRead, Value: v, Start: lo, Finish: hi,
		})
	}

	// Time slots: w(1)=0, w(2)=1, r(1)=2, w(3)=3, r(2)=4, ...,
	// w(i)=2i-3 (i>=2), r(i)=2i, ..., w(m+1)=2m-1, r(m)=2m.
	shortVals := make([]int64, m+2) // 1-indexed: shortVals[i] = value of w(i)
	shortVals[1] = addShort(0)
	for i := 2; i <= m+1; i++ {
		shortVals[i] = addShort(2*i - 3)
	}
	for i := 1; i <= m; i++ {
		addRead(2*i, shortVals[i])
	}

	// Long writes: start inside (w(1).f, w(2).s) = (2g, 4g), finish inside
	// the gap before w(m+1).s: ((2m-2)*4g + 2g, (2m-1)*4g).
	for j := 0; j < n; j++ {
		start := 2*g + 1 + int64(j)
		finish := int64(2*m-2)*4*g + 3*g + 1 + int64(j)
		v := val
		val++
		ops = append(ops, history.Operation{
			Kind: history.KindWrite, Value: v,
			Start: start, Finish: finish, Weight: bp.Sizes[j],
		})
		red.ItemValues = append(red.ItemValues, v)
	}

	red.History = history.NormalizeInPlace(&history.History{Ops: ops})
	return red, nil
}

// SolveViaReduction decides a bin-packing instance by reducing it to k-WAV
// and running the exact weighted checker — the "wrong direction" in
// complexity terms, but exactly the equivalence Theorem 5.1 asserts, and the
// way the reduction is validated empirically.
func SolveViaReduction(bp BinPacking, opts oracle.Options) (bool, error) {
	red, err := Reduce(bp)
	if err != nil {
		return false, err
	}
	p, err := history.Prepare(red.History)
	if err != nil {
		return false, fmt.Errorf("wav: reduced history invalid: %w", err)
	}
	res, err := oracle.CheckWeighted(p, red.Bound, opts)
	if err != nil {
		return false, err
	}
	return res.Atomic, nil
}

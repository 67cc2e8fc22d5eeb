// Package delta implements Δ-atomicity verification — the time-based
// staleness counterpart of k-atomicity, introduced by Golab, Li, and Shah
// ("Analyzing consistency properties for fun and profit", PODC 2011), which
// the ICDCS 2013 paper builds on (reference [10]; its partial 2-AV solution
// came from the same line of work).
//
// A history is Δ-atomic iff it becomes atomic (1-atomic) once every read is
// allowed to be up to Δ time units stale — operationally, once each read's
// start time is moved Δ into the past. Where k-atomicity bounds staleness in
// number of intervening writes, Δ-atomicity bounds it in real time; storage
// operators usually quote the latter ("reads are at most 500ms stale") and
// verify it with exactly this transformation.
//
// The verdict needs far less than the relaxed history. The Gibbons–Korach
// zone test (Section IV of the paper) looks only at each cluster's minimum
// finish f and maximum start s, every comparison it makes is "a finish
// before a start" (strict, since normalization ranks a start before a finish
// at equal time), and both of its conditions — two forward zones overlap, a
// backward zone sits inside a forward one — say the same thing: there are
// clusters u ≠ v with f_u < s_v and f_v < s_u (two backward zones can never
// satisfy it). Relaxing reads by Δ leaves every f alone and moves only
// s_v(Δ) = max(write start, max read start − Δ). So a Summary of (f, write
// start, max read start) per cluster, built once on the raw time scale,
// decides every Δ without touching the operations again; Δ-atomicity is
// monotone in Δ, and the smallest Δ is a binary search over the summary.
package delta

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"kat/internal/history"
)

// cluster is one write and its dictated reads on the raw time scale.
type cluster struct {
	value int64
	f     int64 // min finish over the cluster
	ws    int64 // the write's start
	rs    int64 // max start over the cluster at Δ=0 (>= ws)
	pm    int64 // probe scratch: max s over the clusters up to this one
}

// start is the cluster's maximum start once reads are relaxed by delta:
// max(ws, rs-delta). rs-ws is in [0, 2^64), so the uint64 difference is
// exact and rs-delta is only formed when it stays above ws — no overflow at
// either end of the int64 range. (Clamping at ws subsumes the clamp at the
// history's time origin: no write starts before the origin.)
func (c *cluster) start(delta int64) int64 {
	if uint64(delta) >= uint64(c.rs)-uint64(c.ws) {
		return c.ws
	}
	return c.rs - delta
}

// Summary is what Δ-atomicity depends on: one (f, write start, max read
// start) triple per cluster, sorted by f. A probe rewrites scratch inside
// the summary, so a Summary must not be probed from two goroutines at once.
type Summary struct {
	cl []cluster
	// maxGap is the largest rs-ws, the Δ beyond which nothing moves.
	maxGap int64
}

// Summarize builds the summary of a raw (un-normalized) history in
// O(n log n) with one allocation. It does not validate: reads of unwritten
// values are skipped and duplicate written values share a cluster, both of
// which history.Prepare reports — callers hold (or, like Check and Smallest,
// run) one Prepare of the same history for the anomalies.
func Summarize(h *history.History) Summary {
	cl := make([]cluster, 0, h.Writes())
	for _, op := range h.Ops {
		if op.IsWrite() {
			cl = append(cl, cluster{value: op.Value, f: op.Finish, ws: op.Start, rs: op.Start})
		}
	}
	slices.SortFunc(cl, func(a, b cluster) int { return cmp.Compare(a.value, b.value) })
	for _, op := range h.Ops {
		if !op.IsRead() {
			continue
		}
		i, ok := slices.BinarySearchFunc(cl, op.Value, func(c cluster, v int64) int { return cmp.Compare(c.value, v) })
		if !ok {
			continue
		}
		cl[i].f = min(cl[i].f, op.Finish)
		cl[i].rs = max(cl[i].rs, op.Start)
	}
	slices.SortFunc(cl, func(a, b cluster) int { return cmp.Compare(a.f, b.f) })
	var gap uint64
	for i := range cl {
		gap = max(gap, uint64(cl[i].rs)-uint64(cl[i].ws))
	}
	return Summary{cl: cl, maxGap: int64(min(gap, math.MaxInt64))}
}

// Atomic reports whether the summarized history is Δ-atomic for delta >= 0:
// no clusters u ≠ v with f_u < s_v(Δ) and f_v < s_u(Δ). The condition is
// symmetric, so u is taken before v in f order; the u with f_u < s_v are
// then a prefix, and the prefix maximum of s decides. O(m log m) for m
// clusters, no allocation.
func (s Summary) Atomic(delta int64) bool {
	cl := s.cl
	pm := int64(math.MinInt64)
	for j := range cl {
		sv := cl[j].start(delta)
		// n = how many of cl[:j] have f < sv.
		n, _ := slices.BinarySearchFunc(cl[:j], sv, func(c cluster, t int64) int {
			if c.f < t {
				return -1
			}
			return 1
		})
		if n > 0 && cl[n-1].pm > cl[j].f {
			return false
		}
		pm = max(pm, sv)
		cl[j].pm = pm
	}
	return true
}

// Smallest returns the least Δ for which the summarized history is
// Δ-atomic, bisecting [0, maxGap] with Atomic. An anomaly-free history is
// always Δ-atomic at maxGap (every s is then its write's start, and no
// cluster finishes before its own write starts), so the error means the
// summarized history violates the model assumptions.
func (s Summary) Smallest() (int64, error) {
	// Probe Δ=0 first: most histories from healthy systems pass.
	if s.Atomic(0) {
		return 0, nil
	}
	lo, hi := int64(1), max(s.maxGap, 1)
	if !s.Atomic(hi) {
		return 0, fmt.Errorf("delta: history is not Δ-atomic even at Δ=%d; input may violate model assumptions", hi)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s.Atomic(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// validate runs the one normalize+prepare that finds h's anomalies.
func validate(h *history.History) error {
	_, err := history.Build(h)
	return err
}

// Check reports whether the history is Δ-atomic for the given delta, i.e.,
// whether relaxing every read's start by delta makes it 1-atomic. The
// history must be anomaly-free (Prepare's errors are returned as they are);
// h is not modified. Cost: one normalize+prepare plus one summary probe.
func Check(h *history.History, delta int64) (bool, error) {
	if delta < 0 {
		return false, fmt.Errorf("delta: bound must be >= 0, got %d", delta)
	}
	if err := validate(h); err != nil {
		return false, err
	}
	return Summarize(h).Atomic(delta), nil
}

// Smallest returns the least Δ, on h's own time scale, for which the history
// is Δ-atomic. Precondition: h is anomaly-free after normalization — no
// dangling read, read before its dictating write, duplicate written value or
// inverted interval; otherwise Prepare's error is returned. h is not
// modified. Cost: one normalize+prepare (the anomaly scan) plus
// O(m log m · log maxGap) on the m-cluster summary, where maxGap is the
// largest distance from a write's start to the start of a read of it; no
// probe touches the operations or allocates.
func Smallest(h *history.History) (int64, error) {
	if err := validate(h); err != nil {
		return 0, err
	}
	return Summarize(h).Smallest()
}

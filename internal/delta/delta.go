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
//
// Those triples are the per-cluster extremes the history builder finds
// anyway, and it lists the clusters in order of f: a prepare asked for them
// records each cluster's extremes on the input time scale before ranking
// (history.Prepared.Extremes), and the prepared finish order
// (Prepared.ByFinish) is sorted by f, because ranking preserves the order of
// distinct times and a write finishes before its reads once normalized. So
// Summary.FromPrepared builds the summary with no sort, no search and, on a
// reused Summary, no allocation; it is what the streaming engine runs once
// per segment. Summarize, which sorts by value to resolve reads and then by
// f, stays as the offline door behind Check and Smallest and as the
// independent reference the fuzz target holds FromPrepared to.
package delta

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"kat/internal/history"
)

// cluster is one write and its dictated reads on the raw time scale, as
// Summarize resolves them by value.
type cluster struct {
	value, f, ws, rs int64
}

// Summary is what Δ-atomicity depends on: one (f, write start, max read
// start) triple per cluster, in ascending f. f is contiguous so that a probe's
// searches over it stay in cache. A probe rewrites scratch inside the summary,
// so a Summary must not be probed from two goroutines at once.
type Summary struct {
	f  []int64 // min finish over the cluster
	ws []int64 // the write's start
	rs []int64 // max start over the cluster at Δ=0 (>= ws)
	pm []int64 // probe scratch: max s over the clusters up to this one
	// maxGap is the largest rs-ws, the Δ beyond which nothing moves.
	maxGap int64
}

// start is cluster j's maximum start once reads are relaxed by delta:
// max(ws, rs-delta). rs-ws is in [0, 2^64), so the uint64 difference is
// exact and rs-delta is only formed when it stays above ws — no overflow at
// either end of the int64 range. (Clamping at ws subsumes the clamp at the
// history's time origin: no write starts before the origin.)
func (s Summary) start(j int, delta int64) int64 {
	if uint64(delta) >= uint64(s.rs[j])-uint64(s.ws[j]) {
		return s.ws[j]
	}
	return s.rs[j] - delta
}

// reset sizes s for m clusters, reusing its buffers.
func (s *Summary) reset(m int) {
	s.f, s.ws = s.f[:0], s.ws[:0]
	s.rs, s.pm = s.rs[:0], slices.Grow(s.pm[:0], m)[:m]
	s.maxGap = 0
}

// add appends a cluster; clusters must come in ascending f.
func (s *Summary) add(f, ws, rs int64) {
	s.f, s.ws, s.rs = append(s.f, f), append(s.ws, ws), append(s.rs, rs)
	s.maxGap = int64(min(max(uint64(s.maxGap), uint64(rs)-uint64(ws)), math.MaxInt64))
}

// FromPrepared fills s with the summary of p, which must have been prepared
// with its extremes recorded (history.PrepareScratch.Extremes): the writes of
// p's finish order are the clusters in ascending f, so this is one pass with
// no sort and no search, and on a reused s no allocation. It equals
// Summarize of the history p was built from. It returns s.
func (s *Summary) FromPrepared(p *history.Prepared) *Summary {
	ops := p.H.Ops
	s.reset(len(ops))
	for _, w := range p.ByFinish {
		if ops[w].IsWrite() {
			e := &p.Extremes[w]
			s.add(e.MinFinish, e.WriteStart, e.MaxStart)
		}
	}
	return s
}

// Summarize builds the summary of a raw (un-normalized) history in
// O(n log n) with two allocations. It does not validate: reads of unwritten
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
	m := len(cl)
	buf := make([]int64, 4*m)
	s := Summary{f: buf[:0:m], ws: buf[m : m : 2*m], rs: buf[2*m : 2*m : 3*m], pm: buf[3*m:]}
	for _, c := range cl {
		s.add(c.f, c.ws, c.rs)
	}
	return s
}

// Atomic reports whether the summarized history is Δ-atomic for delta >= 0:
// no clusters u ≠ v with f_u < s_v(Δ) and f_v < s_u(Δ). The condition is
// symmetric, so u is taken before v in f order; the u with f_u < s_v are
// then a prefix, and the prefix maximum of s decides. O(m log m) for m
// clusters, no allocation.
func (s Summary) Atomic(delta int64) bool {
	pm := int64(math.MinInt64)
	for j, fj := range s.f {
		sv := s.start(j, delta)
		// n = how many of f[:j] are < sv.
		n, _ := slices.BinarySearch(s.f[:j], sv)
		if n > 0 && s.pm[n-1] > fj {
			return false
		}
		pm = max(pm, sv)
		s.pm[j] = pm
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

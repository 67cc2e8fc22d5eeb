// Package zone implements the cluster/zone machinery of Gibbons and Korach
// reviewed in Section IV of the paper: per-cluster forward and backward
// zones, the classical zone-based 1-atomicity test, and the Stage 1 chunk
// decomposition used by the FZF algorithm.
//
// A cluster is a write plus its dictated reads. Its zone spans from the
// minimum finish time of any operation in the cluster (Z.f) to the maximum
// start time of any such operation (Z.s̄). The zone is forward if Z.f < Z.s̄
// and backward otherwise; its low/high endpoints are min/max of the two.
package zone

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"kat/internal/history"
	"kat/internal/interval"
)

// Zone is the zone of one cluster, identified by its dictating write's
// operation index in the prepared history.
type Zone struct {
	// Write is the dictating write's index in the prepared history.
	Write int
	// MinFinish is Z.f, the minimum finish time over the cluster.
	MinFinish int64
	// MaxStart is Z.s̄, the maximum start time over the cluster.
	MaxStart int64
}

// Forward reports whether the zone is a forward zone (Z.f < Z.s̄).
func (z Zone) Forward() bool { return z.MinFinish < z.MaxStart }

// Low returns the zone's low endpoint min(Z.f, Z.s̄).
func (z Zone) Low() int64 {
	if z.MinFinish < z.MaxStart {
		return z.MinFinish
	}
	return z.MaxStart
}

// High returns the zone's high endpoint max(Z.f, Z.s̄).
func (z Zone) High() int64 {
	if z.MinFinish > z.MaxStart {
		return z.MinFinish
	}
	return z.MaxStart
}

// String renders the zone for diagnostics.
func (z Zone) String() string {
	kind := "BZ"
	if z.Forward() {
		kind = "FZ"
	}
	return fmt.Sprintf("%s(w=%d)[%d,%d]", kind, z.Write, z.Low(), z.High())
}

// Zones computes the zone of every cluster in the prepared history, in
// ascending order of the dictating write's index.
func Zones(p *history.Prepared) []Zone {
	return ZonesAppend(p, nil)
}

// ZonesAppend is Zones appending into buf (reusing its capacity), for
// allocation-free repeated decompositions.
func ZonesAppend(p *history.Prepared, buf []Zone) []Zone {
	out := buf
	for i, op := range p.H.Ops {
		if op.IsWrite() {
			out = append(out, zoneOf(p, i))
		}
	}
	return out
}

// zoneOf computes the zone of write w's cluster.
func zoneOf(p *history.Prepared, w int) Zone {
	op := &p.H.Ops[w]
	z := Zone{Write: w, MinFinish: op.Finish, MaxStart: op.Start}
	for _, r := range p.DictatedReads[w] {
		rop := &p.H.Ops[r]
		z.MinFinish, z.MaxStart = min(z.MinFinish, rop.Finish), max(z.MaxStart, rop.Start)
	}
	return z
}

// Violation describes why the 1-atomicity test failed.
type Violation struct {
	// Kind is "forward-overlap" or "backward-in-forward".
	Kind string
	// Writes identifies the dictating writes of the zones involved.
	Writes []int
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	return fmt.Sprintf("%s writes=%v", v.Kind, v.Writes)
}

// Check1Atomic applies the Gibbons–Korach zone conditions: a history
// (satisfying the Section II assumptions) is 1-atomic iff (1) no two forward
// zones overlap and (2) no backward zone is contained entirely in a forward
// zone. It returns ok=true with a nil violation, or ok=false with the first
// violation found.
func Check1Atomic(p *history.Prepared) (bool, *Violation) {
	zs := Zones(p)
	var fwd, bwd []Zone
	for _, z := range zs {
		if z.Forward() {
			fwd = append(fwd, z)
		} else {
			bwd = append(bwd, z)
		}
	}
	sort.Slice(fwd, func(i, j int) bool { return fwd[i].Low() < fwd[j].Low() })
	// Condition 1: no two forward zones overlap. With the sweep sorted by
	// low endpoint, any overlap manifests against the maximum high seen.
	maxHigh := int64(0)
	maxHighWrite := -1
	for i, z := range fwd {
		if i > 0 && z.Low() < maxHigh {
			return false, &Violation{Kind: "forward-overlap", Writes: []int{maxHighWrite, z.Write}}
		}
		if i == 0 || z.High() > maxHigh {
			maxHigh = z.High()
			maxHighWrite = z.Write
		}
	}
	// Condition 2: no backward zone nested in a forward zone.
	if len(fwd) > 0 && len(bwd) > 0 {
		ivs := make([]interval.Interval, len(bwd))
		for i, z := range bwd {
			ivs[i] = interval.Interval{Lo: z.Low(), Hi: z.High(), ID: z.Write}
		}
		tree := interval.Build(ivs)
		for _, f := range fwd {
			if inside := tree.ContainedIn(f.Low(), f.High()); len(inside) > 0 {
				return false, &Violation{Kind: "backward-in-forward", Writes: []int{f.Write, inside[0].ID}}
			}
		}
	}
	return true, nil
}

// Chunk is one maximal chunk from Stage 1 of FZF: a maximal set of forward
// clusters whose zones union to a continuous interval [Lo, Hi], together
// with every backward cluster whose zone nests inside that interval.
type Chunk struct {
	// Lo and Hi bound the union of the chunk's forward zones.
	Lo, Hi int64
	// Forward lists the dictating writes of the chunk's forward clusters
	// in increasing order of their zones' low endpoints — exactly the
	// order T_F that Stage 2 starts from.
	Forward []int
	// Backward lists the dictating writes of the chunk's backward
	// clusters, in increasing order of their zones' low endpoints.
	Backward []int
}

// OneAtomic reports whether the chunk passes the Gibbons–Korach zone
// conditions in isolation — the chunk-local form of Check1Atomic used by the
// chunk-parallel scheduler. A history is 1-atomic iff every chunk of its
// decomposition is OneAtomic:
//
//   - Condition 1 (no two forward zones overlap) fails globally iff some
//     chunk holds two or more forward clusters: a chunk is by construction a
//     maximal run of overlapping forward zones, and distinct chunks occupy
//     disjoint intervals.
//   - Condition 2 (no backward zone nested in a forward zone) fails globally
//     iff some chunk holds a backward cluster: if backward zone b nests in
//     forward zone f, then b nests in f's chunk interval and is assigned to
//     it (never dangling); conversely a backward cluster assigned to a
//     single-forward chunk nests in that chunk's interval, which is exactly
//     the forward zone's interval — and multi-forward chunks already fail
//     condition 1.
//
// Dangling clusters never violate either condition. Each chunk verdict is
// O(1), so the parallel k=1 path is dominated by the shared decomposition.
func (c Chunk) OneAtomic() bool {
	return len(c.Forward) < 2 && len(c.Backward) == 0
}

// Decomposition is the chunk set CS(H) plus the dangling clusters (backward
// clusters belonging to no chunk).
type Decomposition struct {
	Chunks []Chunk
	// Dangling lists dictating writes of dangling clusters in increasing
	// order of their zones' low endpoints. Every dangling cluster is
	// backward (a direct consequence of the chunk-set definition).
	Dangling []int
}

// OneAtomic is the Gibbons–Korach zone test read off the decomposition: the
// zones Check1Atomic sweeps are the ones Stage 1 sorts into chunks, and a
// history is 1-atomic iff every chunk is (see Chunk.OneAtomic). With
// DecomposeScratch it answers k = 1 without allocating.
func (d Decomposition) OneAtomic() bool {
	for _, c := range d.Chunks {
		if !c.OneAtomic() {
			return false
		}
	}
	return true
}

// Decompose computes CS(H) for the prepared history (Stage 1 of FZF).
func Decompose(p *history.Prepared) Decomposition {
	return DecomposeZones(Zones(p))
}

// DecomposeZones computes the chunk set from an explicit zone list. Exposed
// separately so the Figure 3 example can be checked at the zone level.
func DecomposeZones(zs []Zone) Decomposition {
	var fwd []interval.Interval
	var bwd []Zone
	for _, z := range zs {
		if z.Forward() {
			fwd = append(fwd, interval.Interval{Lo: z.Low(), Hi: z.High(), ID: z.Write})
		} else {
			bwd = append(bwd, z)
		}
	}
	runs := interval.MergeRuns(fwd)
	sort.Slice(bwd, func(i, j int) bool { return bwd[i].Low() < bwd[j].Low() })

	dec := Decomposition{Chunks: make([]Chunk, len(runs))}
	for i, r := range runs {
		dec.Chunks[i] = Chunk{Lo: r.Lo, Hi: r.Hi, Forward: r.Members}
	}
	// Runs are disjoint and sorted by Lo, so each backward zone nests in at
	// most one run; assign by advancing a cursor over the runs.
	ci := 0
	for _, z := range bwd {
		for ci < len(dec.Chunks) && dec.Chunks[ci].Hi < z.Low() {
			ci++
		}
		if ci < len(dec.Chunks) && dec.Chunks[ci].Lo <= z.Low() && z.High() <= dec.Chunks[ci].Hi {
			dec.Chunks[ci].Backward = append(dec.Chunks[ci].Backward, z.Write)
		} else {
			dec.Dangling = append(dec.Dangling, z.Write)
		}
	}
	return dec
}

// Scratch holds reusable buffers for DecomposeScratch so that repeated
// decompositions of same-sized histories perform no allocations once the
// buffers have grown to steady state.
type Scratch struct {
	fwd, bwd   []Zone
	fwdMembers []int // flat Chunk.Forward storage, one contiguous run per chunk
	bwdMembers []int // flat Chunk.Backward storage
	chunks     []Chunk
	dangling   []int
}

// DecomposeScratch is Decompose reusing s's buffers. The returned
// Decomposition's slices alias s and are valid only until the next call with
// the same Scratch.
//
// The zones come in the same orders as DecomposeZones': forward zones by low
// endpoint, backward zones by low endpoint, then write. A forward zone's low
// endpoint is its Z.f, which in a prepared history is the write's own finish
// (every write finishes before its dictated reads, and no two endpoints tie),
// so walking the writes in finish order (Prepared.ByFinish) lists the forward
// zones sorted; only the backward ones are sorted here.
func DecomposeScratch(p *history.Prepared, s *Scratch) Decomposition {
	s.fwd, s.bwd = s.fwd[:0], s.bwd[:0]
	for _, w := range p.ByFinish {
		if !p.H.Ops[w].IsWrite() {
			continue
		}
		if z := zoneOf(p, w); z.Forward() {
			s.fwd = append(s.fwd, z)
		} else {
			s.bwd = append(s.bwd, z)
		}
	}
	slices.SortFunc(s.bwd, func(a, b Zone) int {
		if c := cmp.Compare(a.Low(), b.Low()); c != 0 {
			return c
		}
		return cmp.Compare(a.Write, b.Write)
	})

	// Forward members in sorted-by-low order are exactly the chunks' Forward
	// lists concatenated, so each chunk's list is a subslice of one flat
	// buffer. Fill the buffer first so no append can move it afterwards.
	s.fwdMembers = s.fwdMembers[:0]
	for _, z := range s.fwd {
		s.fwdMembers = append(s.fwdMembers, z.Write)
	}
	s.chunks = s.chunks[:0]
	runStart := 0
	for i, z := range s.fwd {
		if n := len(s.chunks); n > 0 && z.Low() < s.chunks[n-1].Hi {
			c := &s.chunks[n-1]
			if z.High() > c.Hi {
				c.Hi = z.High()
			}
			c.Forward = s.fwdMembers[runStart : i+1]
			continue
		}
		runStart = i
		s.chunks = append(s.chunks, Chunk{Lo: z.Low(), Hi: z.High(), Forward: s.fwdMembers[i : i+1]})
	}

	// Backward zones are assigned with a forward-only cursor, so each chunk's
	// assignments are consecutive appends into one flat buffer (dangling
	// zones go to a separate slice and do not break the runs). Pre-grow the
	// buffer so extending a chunk's subslice never moves it.
	s.bwdMembers = slices.Grow(s.bwdMembers[:0], len(s.bwd))
	s.dangling = s.dangling[:0]
	ci := 0
	for _, z := range s.bwd {
		for ci < len(s.chunks) && s.chunks[ci].Hi < z.Low() {
			ci++
		}
		if ci < len(s.chunks) && s.chunks[ci].Lo <= z.Low() && z.High() <= s.chunks[ci].Hi {
			s.bwdMembers = append(s.bwdMembers, z.Write)
			c := &s.chunks[ci]
			if len(c.Backward) == 0 {
				c.Backward = s.bwdMembers[len(s.bwdMembers)-1 : len(s.bwdMembers)]
			} else {
				c.Backward = c.Backward[:len(c.Backward)+1]
			}
		} else {
			s.dangling = append(s.dangling, z.Write)
		}
	}
	return Decomposition{Chunks: s.chunks, Dangling: s.dangling}
}

package trace

// Property checking over the streaming engine's safe-cut segments.
//
// The engine in stream.go does one parse/cut/schedule pass per trace; this
// file computes, over each closed segment, every property the session
// enables (checkSegment), so one ingest produces k-atomicity, Δ-atomicity,
// and regularity/safety verdicts side by side instead of three replays.
// Every property answers in the same flat Verdict, and one Verdict.Fold
// combines them everywhere.
//
// Soundness rests on extending the segment-equivalence lemma (stream.go) to
// the other two properties:
//
//   - Δ-atomicity decomposes over safe cuts: smallest-Δ(H) = max over
//     segments of smallest-Δ(S), measured on the raw (pre-normalization)
//     time scale. Relaxing a read's start by Δ only dissolves "x precedes r"
//     constraints; by value-closedness the read's dictating write w is in
//     the read's own segment, and by quiescence w already follows every
//     earlier-segment operation, so a witness order for any relaxed segment
//     concatenates with the others exactly as in the k-atomicity proof —
//     relaxation past the cut removes no constraint that was not already
//     implied by "r follows w". (TestCutsPreserveSmallestDelta checks this
//     directly.)
//   - Safety and regularity are per-read and decompose exactly: writes in
//     other segments are never concurrent with a read (quiescence) and never
//     lie strictly between the read and its dictating write without at least
//     one same-segment boundary argument applying — concretely, a
//     cross-segment dictating write is the cross-boundary stale case handled
//     below, and for a same-segment dictating write every intervening write
//     is same-segment too. Per-segment offender counts therefore sum to the
//     whole-history counts. (TestCutsPreserveRegularity checks this.)
//
// Cross-boundary stale reads (value from an already-dispatched segment)
// never reach a segment verifier, so each property turns the evidence
// gathered at drop time into a verdict of its own, folded like a segment's
// (staleVerdict): k-atomicity keeps its forced-writes floor,
// Δ-atomicity gets the sound floor r.Start − cumMaxFinish[s'] (s' the first
// write-bearing segment after the value's), and regularity counts the read
// as irregular definitively (the forced writes all fall between the read and
// its dictating write) and as unsafe unless the read overlaps a write of its
// own closing window (decided by staleReadSafety, which replays the window
// through the real normalize/prepare machinery so write-shortening cannot
// skew the concurrency answer).

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"kat/internal/core"
	"kat/internal/history"
	"kat/internal/regularity"
)

// Property identifies one consistency property the streaming engine can
// verify over its safe-cut segments.
type Property uint8

const (
	// PropertyKAtomicity is the paper's bounded-version-staleness property;
	// always enabled (fixed-k or smallest-k, as the session).
	PropertyKAtomicity Property = iota
	// PropertyDelta is Δ-atomicity: bounded time staleness (smallest Δ).
	PropertyDelta
	// PropertyRegularity is Lamport safety/regularity, per-read.
	PropertyRegularity
	numProperties
)

// String returns the flag-syntax name ("k", "delta", "regularity").
func (p Property) String() string {
	switch p {
	case PropertyKAtomicity:
		return "k"
	case PropertyDelta:
		return "delta"
	case PropertyRegularity:
		return "regularity"
	}
	return fmt.Sprintf("property(%d)", uint8(p))
}

// PropertySet is a bitmask of enabled properties. The zero value means
// k-atomicity only (the engine's historical behavior); PropertyKAtomicity
// is implicitly always enabled.
type PropertySet uint8

const (
	PropertySetK          PropertySet = 1 << PropertyKAtomicity
	PropertySetDelta      PropertySet = 1 << PropertyDelta
	PropertySetRegularity PropertySet = 1 << PropertyRegularity
	PropertySetAll                    = PropertySetK | PropertySetDelta | PropertySetRegularity
)

// Has reports whether the set enables p. K-atomicity is always enabled.
func (s PropertySet) Has(p Property) bool {
	return p == PropertyKAtomicity || s&(1<<p) != 0
}

// Names returns the enabled property names in canonical order.
func (s PropertySet) Names() []string {
	var out []string
	for p := PropertyKAtomicity; p < numProperties; p++ {
		if s.Has(p) {
			out = append(out, p.String())
		}
	}
	return out
}

// String renders the set in -properties flag syntax.
func (s PropertySet) String() string { return strings.Join(s.Names(), ",") }

// ParseProperties parses a comma-separated property list ("k,delta,
// regularity"); names are case-insensitive and k is implied. An empty
// string selects k only.
func ParseProperties(list string) (PropertySet, error) {
	var s PropertySet
	for _, name := range strings.Split(list, ",") {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "", "k":
			s |= PropertySetK
		case "delta", "Δ":
			s |= PropertySetDelta
		case "regularity", "regular", "safety":
			s |= PropertySetRegularity
		default:
			return 0, fmt.Errorf("trace: unknown property %q (want k, delta, regularity)", strings.TrimSpace(name))
		}
	}
	return s, nil
}

// Verdict is everything the engine knows about a register's consistency:
// one closed segment's result, a cross-boundary stale read's contribution, or
// a key's accumulation of both. Each property owns the fields named for it
// and fields of a disabled property stay zero. The zero Verdict says nothing
// and is Fold's identity.
type Verdict struct {
	// Violation is the fixed-k verdict: some segment is not k-atomic, or a
	// read is definitively staler than k (fixed-k sessions).
	Violation bool
	// SmallestK is the smallest k (smallest-k sessions); Saturated reports
	// that a cross-boundary stale read reduced it to a lower-bound floor.
	SmallestK int
	Saturated bool
	// SmallestDelta is the smallest Δ, on the input time scale, and
	// DeltaSaturated its floor marker (Δ-atomicity property).
	SmallestDelta  int64
	DeltaSaturated bool
	// UnsafeReads and IrregularReads count reads violating Lamport safety
	// and regularity (regularity property).
	UnsafeReads    int
	IrregularReads int
}

// Fold merges o into v the way the decomposition lemmas above prescribe:
// a violation anywhere is a violation, smallest k and smallest Δ are maxima
// over segments, offending reads sum. It is commutative and associative, so
// verdicts combine the same in whatever order the pool finishes segments,
// across a key's retired lifetimes, and across checkpoints.
func (v *Verdict) Fold(o Verdict) {
	v.Violation = v.Violation || o.Violation
	v.SmallestK = max(v.SmallestK, o.SmallestK)
	v.Saturated = v.Saturated || o.Saturated
	v.SmallestDelta = max(v.SmallestDelta, o.SmallestDelta)
	v.DeltaSaturated = v.DeltaSaturated || o.DeltaSaturated
	v.UnsafeReads += o.UnsafeReads
	v.IrregularReads += o.IrregularReads
}

// staleReadEvidence is what the engine knows about a cross-boundary stale
// read at the moment it is dropped from its closing window.
type staleReadEvidence struct {
	// forcedWrites counts the writes closed between the read's dictating
	// segment and the read — every one of them forced between the dictating
	// write and the read in any valid total order.
	forcedWrites int
	// deltaFloor is a sound lower bound on the key's smallest Δ implied by
	// the read (see the package comment above).
	deltaFloor int64
	// safe reports whether the read overlaps (post-normalization) at least
	// one write of its own closing window — the only writes that can be
	// concurrent with it.
	safe bool
	// verdict is the fold of what each enabled property makes of the read:
	// its contribution to its key and epoch.
	verdict Verdict
}

// checkSegment computes every enabled property over one closed,
// anomaly-free segment, on the verification worker v: k-atomicity (the
// fixed-k check at e.k, or smallest-k when e.k == 0), then Δ and regularity
// when enabled, each setting only its own fields; the first error wins.
// verifySegment prepares the segment once per dispatch — IDs renumbered by
// position (so normalization breaks ties as the offline checkers do on the
// whole key history; window-local IDs may collide after merges), then one
// normalize and one prepare into v's scratch, with the clusters' raw extremes
// when PropertyDelta is enabled — and p is read-only from then on. p aliases
// v's scratch and is valid only during the call.
func (e *engine) checkSegment(v *core.Verifier, p *history.Prepared) (Verdict, error) {
	var out Verdict
	var err error
	if e.k > 0 {
		rep, kerr := v.CheckPrepared(p, e.k, e.opts)
		out.Violation, err = !rep.Atomic, kerr
	} else {
		out.SmallestK, err = v.SmallestKPrepared(p, e.opts)
	}
	if e.sopts.Properties.Has(PropertyDelta) {
		d, derr := v.SmallestDelta(p)
		out.SmallestDelta = d
		if err == nil {
			err = derr
		}
	}
	if e.sopts.Properties.Has(PropertyRegularity) {
		out.UnsafeReads, out.IrregularReads = v.Regularity(p)
	}
	return out, err
}

// staleVerdict turns the evidence of a cross-boundary stale read, which
// never reaches a segment verifier, into each enabled property's verdict of
// it, folded like a segment's.
func (e *engine) staleVerdict(ev staleReadEvidence) Verdict {
	var out Verdict
	if e.k > 0 {
		// forcedWrites >= threshold == k, so staleness > k: definitive.
		out.Violation = true
	} else {
		out.SmallestK, out.Saturated = ev.forcedWrites+1, true
	}
	if e.sopts.Properties.Has(PropertyDelta) {
		// Through Fold, so a negative floor clamps at 0.
		out.Fold(Verdict{SmallestDelta: ev.deltaFloor, DeltaSaturated: true})
	}
	if e.sopts.Properties.Has(PropertyRegularity) {
		// The forced writes all fall between the read and its
		// (cross-boundary) dictating write, so the read is definitively
		// irregular; it is unsafe unless it overlaps a write of its own
		// closing window.
		out.IrregularReads = 1
		if !ev.safe {
			out.UnsafeReads = 1
		}
	}
	return out
}

// staleReadSafety decides, for each dropped cross-boundary read, whether the
// read is SAFE: concurrent — in the normalized sense the offline checker
// uses, where writes may be shortened to just before their first dictated
// read's finish — with at least one write of its closing window. Writes of
// any other segment finish before the window's reads start (quiescence plus
// the arrival-order invariant), so the window is the whole question.
//
// Rather than re-deriving normalize's shortening and tie-break rules here, a
// synthetic history replays them: the window's kept operations, the dropped
// reads, one synthetic write per distinct dropped value, and one extra
// synthetic "fencepost" write, all placed strictly before the window origin.
// Each dropped read then has a dictating write that precedes everything, and
// the fencepost write sits between that write and the read, so the read is
// definitively irregular in the synthetic history — which makes its
// synthetic safety verdict exactly "concurrent with some window write".
// The per-op Client field (informational, untouched by normalize/prepare)
// carries each read's identity through the sort.
func staleReadSafety(kept, dropped []history.Operation) []bool {
	safe := make([]bool, len(dropped))
	// Window origin over every operation involved.
	origin := int64(math.MaxInt64)
	for _, op := range kept {
		origin = min(origin, op.Start)
	}
	for _, op := range dropped {
		origin = min(origin, op.Start)
	}
	// Distinct dropped values, and every value in play (synthetic writes
	// must not collide with window writes).
	vals := make(map[int64]bool, len(dropped))
	used := make(map[int64]bool, len(kept)+len(dropped)+1)
	for _, op := range kept {
		used[op.Value] = true
	}
	for _, op := range dropped {
		used[op.Value] = true
		vals[op.Value] = true
	}
	fence := int64(0)
	for used[fence] {
		fence++
	}
	nsynth := len(vals) + 1
	if origin < math.MinInt64+2*int64(nsynth)+2 {
		// No room below the origin to place synthetic writes (timestamps at
		// the very bottom of int64). Fall back to the raw-interval scan:
		// only exactly-touching shortened writes could disagree, and traces
		// down here are already outside any realistic clock domain.
		for i, r := range dropped {
			for _, op := range kept {
				if op.IsWrite() && op.ConcurrentWith(r) {
					safe[i] = true
					break
				}
			}
		}
		return safe
	}
	synth := make([]history.Operation, 0, nsynth+len(kept)+len(dropped))
	t := origin - 2*int64(nsynth)
	valOrder := make([]int64, 0, len(vals))
	for v := range vals {
		valOrder = append(valOrder, v)
	}
	sort.Slice(valOrder, func(i, j int) bool { return valOrder[i] < valOrder[j] })
	for _, v := range valOrder {
		synth = append(synth, history.Operation{Kind: history.KindWrite, Value: v, Start: t, Finish: t + 1})
		t += 2
	}
	// Fencepost write: follows every synthetic dictating write, precedes the
	// window, read by nobody.
	synth = append(synth, history.Operation{Kind: history.KindWrite, Value: fence, Start: t, Finish: t + 1})
	base := len(synth)
	synth = append(synth, kept...)
	synth = append(synth, dropped...)
	for i := range synth {
		synth[i].ID = i
		synth[i].Client = i
	}
	p, err := new(history.PrepareScratch).Build(&history.History{Ops: synth})
	if err != nil {
		// The window itself carries an anomaly (duplicate value, dangling
		// read); the key's error verdict dominates any safety count.
		return safe
	}
	unsafeAt := make(map[int]bool, len(p.H.Ops))
	for _, r := range regularity.Check(p).UnsafeReads {
		unsafeAt[p.Op(r).Client] = true
	}
	for i := range dropped {
		safe[i] = !unsafeAt[base+len(kept)+i]
	}
	return safe
}

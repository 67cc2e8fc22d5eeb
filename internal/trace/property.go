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
// own closing window (staleReadSafety, which applies normalization's
// tie-break and write-shortening rules to the window's intervals directly).

import (
	"fmt"
	"sort"
	"strings"

	"kat/internal/core"
	"kat/internal/history"
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
// read is safe: concurrent, in the normalized sense the offline checker uses,
// with at least one write of its closing window. Writes of any other segment
// never overlap the window's reads (every cut is quiescent), and a dropped
// read dictates no window write, so normalization (Section II-C) reduces to
// two rules here: at equal times a start ranks before a finish, and a write
// ends just before the first finish among its kept reads. A dropped read r
// is therefore safe exactly when some kept write w has w.Start <= r.Finish
// and r.Start <= min(w.Finish, first finish of a kept read of w's value).
// Reads whose values are written outside the window (merges into held
// segments) shorten nothing here. The window's writes, sorted by start (a
// window's operations may arrive in any order) with a running maximum of
// that effective finish, answer each read with one binary search.
func staleReadSafety(kept, dropped []history.Operation) []bool {
	firstRead := make(map[int64]int64) // value → earliest finish of a kept read
	for _, op := range kept {
		if f, ok := firstRead[op.Value]; op.IsRead() && (!ok || op.Finish < f) {
			firstRead[op.Value] = op.Finish
		}
	}
	var writes []history.Operation // Start, and Finish as the running maximum
	for _, op := range kept {
		if op.IsWrite() {
			if f, ok := firstRead[op.Value]; ok {
				op.Finish = min(op.Finish, f)
			}
			writes = append(writes, op)
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].Start < writes[j].Start })
	for i := 1; i < len(writes); i++ {
		writes[i].Finish = max(writes[i].Finish, writes[i-1].Finish)
	}
	safe := make([]bool, len(dropped))
	for i, r := range dropped {
		n := sort.Search(len(writes), func(j int) bool { return writes[j].Start > r.Finish })
		safe[i] = n > 0 && writes[n-1].Finish >= r.Start
	}
	return safe
}

package core

import (
	"fmt"

	"kat/internal/delta"
	"kat/internal/fzf"
	"kat/internal/history"
	"kat/internal/oracle"
	"kat/internal/regularity"
	"kat/internal/witness"
	"kat/internal/zone"
)

// Verifier is a reusable verification engine: it owns the scratch arenas the
// hot-path algorithms need (FZF buffers, witness-validation buffers) and
// reuses them across Check/SmallestK calls. A long-lived Verifier makes the
// k=2 FZF path allocation-free at steady state, which is what a
// high-throughput multi-key pipeline wants.
//
// Every pool worker is one: the pool hands each unit its worker's Verifier,
// which forks the units of a big history onto the pool (Fork); a standalone
// Verifier is the same engine with no pool behind it and runs every unit
// inline, so its verdicts, witnesses and oracle probes are those of a pool
// of any size (parallel.go).
//
// A Verifier is NOT safe for concurrent use; give each goroutine its own
// (the pool does exactly that). The zero value is ready to use.
//
// Reports produced through a Verifier alias its internal buffers: a Report's
// Witness and its Prepared (Check prepares a private copy of the input in the
// Verifier's own operation buffer and index) are valid only until the next
// call on the same Verifier. Copy what must outlive that, or spend a fresh
// Verifier on the call (NewVerifier().Check), as the kat package's one-shot
// functions do.
type Verifier struct {
	fzf fzf.Scratch
	wit witness.Scratch
	// prep is the one builder every prepare goes through; hist the private
	// copy of the input Check and SmallestK have it rewrite; views the index
	// buffers of the safe-cut views a unit walks (runs of segments, and the
	// single segments inside one — overSegments).
	prep  history.PrepareScratch
	hist  history.History
	views [2]history.PrepareScratch
	// zone holds the chunk decomposition a forked verification and the
	// ladder's zone test and FZF rung read; stale the forced-staleness
	// sweep's buffers; orc the exact oracle's search (the ladder's climbs,
	// fixed-k oracle segments and the k = 1 witness).
	zone  zone.Scratch
	stale history.StalenessScratch
	orc   oracle.Scratch
	// cuts, minDW and segs are the safe cuts of the unit the ladder splits
	// (segmentsOf).
	cuts, minDW []int
	segs        [][2]int
	// sum and reg are the streaming engine's Δ summary and regularity sweep
	// (SmallestDelta, Regularity).
	sum delta.Summary
	reg regularity.Scratch
	// ladder counts what the smallest-k ladder did (TakeLadder).
	ladder Ladder
	// pool is the pool this Verifier is a worker of; nil for a standalone
	// one, whose units run inline.
	pool *Pool
}

// Ladder counts the smallest-k units the ladder decided at each rung — the
// zone test (k = 1), FZF (k = 2), the oracle climb (k >= 3) — and the oracle
// calls the climbs made. A unit split at its safe cuts is counted through its
// segments. Forked units count into the Verifier that forked them, so the
// counts of one call land on the Verifier it was made on, for any pool.
type Ladder struct {
	Zone, FZF, Climb int
	OracleProbes     int
}

// Add adds o's counts into l.
func (l *Ladder) Add(o Ladder) {
	l.Zone += o.Zone
	l.FZF += o.FZF
	l.Climb += o.Climb
	l.OracleProbes += o.OracleProbes
}

// TakeLadder returns the ladder counts gathered since the last TakeLadder and
// zeroes them.
func (v *Verifier) TakeLadder() Ladder {
	l := v.ladder
	v.ladder = Ladder{}
	return l
}

// NewVerifier returns a fresh engine.
func NewVerifier() *Verifier { return &Verifier{} }

// workers is the number of workers units can spread over.
func (v *Verifier) workers() int {
	if v.pool == nil {
		return 1
	}
	return len(v.pool.vs)
}

// Check decides whether the history is k-atomic. The input is normalized
// internally; anomalies surface as errors.
func (v *Verifier) Check(h *history.History, k int, opts Options) (Report, error) {
	p, err := v.prepare(h)
	if err != nil {
		return Report{}, err
	}
	return v.CheckPrepared(p, k, opts)
}

// prepare is PrepareOwned on a copy of h in the Verifier's own buffer, so h
// is left as it was and a stream of keys stops allocating once the buffer
// has seen the largest.
func (v *Verifier) prepare(h *history.History) (*history.Prepared, error) {
	own := v.Owned()
	own.Ops = append(own.Ops, h.Ops...)
	return v.PrepareOwned(own, false)
}

// Owned returns the Verifier's own history, emptied: where a caller that holds
// its operations in some other form (the streaming engine's packed segments)
// lays them out for PrepareOwned, in a buffer that has seen this worker's
// largest input instead of one of its own.
func (v *Verifier) Owned() *history.History {
	v.hist.Ops = v.hist.Ops[:0]
	return &v.hist
}

// PrepareOwned normalizes and prepares a history the caller owns and will
// not use afterwards — the engine's one door to history's builder, which
// rewrites h in place and keeps the prepared index in the Verifier's scratch
// buffers, so a stream of segments allocates nothing at steady state. The
// result aliases h and the Verifier and is valid only until its next prepare.
// With extremes it also carries each cluster's raw extremes, which
// SmallestDelta reads. The streaming engine prepares every closed segment
// once this way and hands the result to each property checker (or, for keys
// whose verdict is already settled, keeps only the anomaly error).
func (v *Verifier) PrepareOwned(h *history.History, extremes bool) (*history.Prepared, error) {
	v.prep.Extremes = extremes
	p, err := v.prep.Build(h)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return p, nil
}

// SmallestDelta is the smallest Δ of a history prepared with its extremes
// (PrepareOwned(h, true)), from a summary built in the Verifier's scratch.
func (v *Verifier) SmallestDelta(p *history.Prepared) (int64, error) {
	return v.sum.FromPrepared(p).Smallest()
}

// Regularity counts p's unsafe and irregular reads in the Verifier's scratch.
func (v *Verifier) Regularity(p *history.Prepared) (unsafe, irregular int) {
	return regularity.Count(p, &v.reg)
}

// SmallestK computes the least k for which the history is k-atomic, using
// the fast checkers for k=1,2 and a search with the exact oracle above that
// (Section II-B: given a k-AV solution, search for the smallest k; see
// SmallestKPrepared for the order of the probes). Every anomaly-free
// history is W-atomic where W is its number of writes, so the search is
// bounded.
func (v *Verifier) SmallestK(h *history.History, opts Options) (int, error) {
	p, err := v.prepare(h)
	if err != nil {
		return 0, err
	}
	return v.SmallestKPrepared(p, opts)
}

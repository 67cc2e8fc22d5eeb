package generator

import (
	"fmt"
	"sort"

	"kat/internal/history"
	"kat/internal/wire"
)

// ChurnConfig controls the churning-keyspace workload: a stream of key
// lifetimes born at a fixed cadence, each living briefly (one KAtomic
// history's worth of operations) and then quiescing forever — the traffic
// shape that grows a verifier's live heap without bound unless quiescent
// keys are retired. All generation is deterministic given the Seed.
type ChurnConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// Lifetimes is how many key lifetimes are born over the run.
	Lifetimes int
	// OpsPerLifetime is the operations in each lifetime (default 64).
	OpsPerLifetime int
	// Concurrency and ReadFraction shape each lifetime's history as in
	// Config.
	Concurrency  int
	ReadFraction float64
	// NamePool, when > 0, recycles this many distinct key names
	// round-robin across lifetimes, so a retired name is later reborn —
	// exercising retirement *and* re-admission. Write values stay
	// globally unique across lifetimes (each lifetime's values are
	// offset into a distinct high range), which re-admission requires:
	// retirement frees the key's value index, so a re-admitted lifetime
	// reusing an old value would dodge staleness detection. 0 gives
	// every lifetime a fresh name (pure churn, no re-admission).
	NamePool int
	// Gap is the trace-time between successive births (0 = auto). With
	// a NamePool the gap is raised as needed so a name's next lifetime
	// begins strictly after its previous one ended: per-key operations
	// must arrive in nondecreasing start order, and the rebirth must be
	// a genuinely quiescent re-admission rather than an overlap.
	Gap int64
	// NoQuiesce switches to the adversarial variant: every lifetime is
	// a chain of deliberately overlapping write intervals, so no safe
	// cut ever forms, no key ever quiesces, and the verifier's open
	// windows grow for as long as the trace runs. This is the
	// memory-pressure chaos input: a server without a memory budget OOMs
	// on it; one with a budget spills the windows to its data directory,
	// or, without one, sheds with typed, resend-safe overload rejects.
	NoQuiesce bool
}

// KeyedOp pairs an operation with its register key; Churn returns them in
// global arrival (start) order.
type KeyedOp = wire.Op

// lifeSpacing is KAtomic's commit spacing; lifeSpan bounds one lifetime's
// timeline footprint (commits at (i+1)*spacing, interval half-widths of
// 6+spacing*(c-1)/2, plus normalization slack).
const lifeSpacing = 16

func lifeSpan(ops, concurrency int) int64 {
	if concurrency < 1 {
		concurrency = 1
	}
	return int64(ops+2)*lifeSpacing + 2*int64(6+lifeSpacing*(concurrency-1)/2) + 8
}

// Churn generates the churning-keyspace workload. Each lifetime i is an
// independent (1-atomic by construction, unless NoQuiesce) history whose
// timestamps are shifted to its birth time i*gap and whose write values
// are offset into the range (i+1)<<32, keeping values unique per key even
// when NamePool recycles names across lifetimes.
func Churn(cfg ChurnConfig) []KeyedOp {
	if cfg.Lifetimes <= 0 {
		return nil
	}
	if cfg.OpsPerLifetime <= 0 {
		cfg.OpsPerLifetime = 64
	}
	span := lifeSpan(cfg.OpsPerLifetime, cfg.Concurrency)
	gap := cfg.Gap
	if gap <= 0 {
		// Auto: enough birth overlap to keep several keys live at once
		// (the retirement sweep then always has both live and quiescent
		// keys to look at), floored at 1 so time advances.
		gap = span / 8
		if gap < 1 {
			gap = 1
		}
	}
	if p := cfg.NamePool; p > 0 {
		// A name's successive lifetimes are p births apart; stretch the
		// gap until p*gap clears one lifetime's span so the rebirth
		// starts after the previous lifetime finished.
		if min := span/int64(p) + 1; gap < min {
			gap = min
		}
	}
	out := make([]KeyedOp, 0, cfg.Lifetimes*cfg.OpsPerLifetime)
	for i := 0; i < cfg.Lifetimes; i++ {
		name := fmt.Sprintf("key-%06d", i)
		if cfg.NamePool > 0 {
			name = fmt.Sprintf("key-%04d", i%cfg.NamePool)
		}
		base := int64(i) * gap
		valBase := int64(i+1) << 32
		var ops []history.Operation
		if cfg.NoQuiesce {
			ops = overlappingWrites(cfg.OpsPerLifetime)
		} else {
			h := KAtomic(Config{
				Seed: cfg.Seed + int64(i), Ops: cfg.OpsPerLifetime,
				Concurrency: cfg.Concurrency, ReadFraction: cfg.ReadFraction,
			})
			ops = h.Ops
		}
		for _, op := range ops {
			op.Start += base
			op.Finish += base
			op.Value += valBase
			op.Client = i
			out = append(out, KeyedOp{Key: name, Op: op})
		}
	}
	// Global arrival order; any per-key subsequence of a start-sorted
	// stream is itself nondecreasing in start, so the ingest ordering
	// contract holds for every key.
	sortKeyedOps(out)
	return out
}

// overlappingWrites builds the never-quiescing lifetime: write-only (trivially
// k-atomic for any k, so the adversarial trace stays a *valid* workload),
// with each interval overlapping the next — no quiescent point ever
// forms, so no safe cut, no segment dispatch, and no retirement.
// Timestamps are distinct by construction (starts ≡ 0, finishes ≡ 8 mod
// lifeSpacing), so no normalization pass is needed that might shorten the
// overlaps away.
func overlappingWrites(n int) []history.Operation {
	ops := make([]history.Operation, n)
	for i := range ops {
		s := int64(i) * lifeSpacing
		ops[i] = history.Operation{
			ID: i, Kind: history.KindWrite, Value: int64(i + 1),
			Start: s, Finish: s + 2*lifeSpacing + 8,
		}
	}
	return ops
}

// sortKeyedOps orders by (Start, Key, ID): deterministic across runs.
func sortKeyedOps(ops []KeyedOp) {
	sort.SliceStable(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		if a.Op.Start != b.Op.Start {
			return a.Op.Start < b.Op.Start
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Op.ID < b.Op.ID
	})
}

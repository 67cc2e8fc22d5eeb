// Package generator produces synthetic histories for tests and benchmarks:
// histories that are k-atomic by construction (with tunable size, read
// fraction, write concurrency, and staleness depth), adversarial
// high-concurrency histories that drive LBT into its O(c·n) regime, fully
// random histories for differential testing, and mutation helpers that
// inject extra staleness into existing histories.
//
// All generation is deterministic given the Seed.
package generator

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"kat/internal/history"
)

// Config controls synthetic history generation.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// Ops is the total number of operations to generate.
	Ops int
	// ReadFraction is the fraction of operations that are reads
	// (default 0.5). The first operation is always a write.
	ReadFraction float64
	// Concurrency widens operation intervals: roughly how many operations
	// overlap at any instant (default 1, i.e., nearly sequential).
	Concurrency int
	// StalenessDepth is the maximum number of newer committed writes a
	// read may ignore: 0 generates 1-atomic (linearizable) histories,
	// 1 generates 2-atomic, etc. (default 0).
	StalenessDepth int
	// ForceDepth makes at least one read return exactly the
	// StalenessDepth-deep value so the history is not (StalenessDepth)-
	// atomic by luck (best effort; requires enough committed writes).
	ForceDepth bool
}

func (cfg *Config) fill() {
	if cfg.Ops < 0 {
		cfg.Ops = 0
	}
	if cfg.ReadFraction <= 0 || cfg.ReadFraction >= 1 {
		cfg.ReadFraction = 0.5
	}
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	if cfg.StalenessDepth < 0 {
		cfg.StalenessDepth = 0
	}
}

// rngs holds the generators' random sources: seeding one resets its whole
// state, so a reused source draws exactly the sequence a new one would,
// without allocating its ≈ 5 KB table per call.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// seeded takes a source from rngs, seeded; the caller puts it back.
func seeded(seed int64) *rand.Rand {
	rng := rngs.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// KAtomic generates a history guaranteed to be (StalenessDepth+1)-atomic:
// every operation is given a commit point on a logical timeline, operation
// intervals contain their commit points, and each read returns one of the
// StalenessDepth+1 freshest committed writes at its commit point. The commit
// order itself is the witness total order, so validity is by construction.
//
// The result is normalized (distinct timestamps, shortened writes) and ready
// for Prepare.
func KAtomic(cfg Config) *history.History {
	cfg.fill()
	rng := seeded(cfg.Seed)
	defer rngs.Put(rng)
	const spacing = 16
	// Concurrency 1 keeps intervals strictly disjoint (commit order is then
	// the unique valid order, so ForceDepth lower-bounds the smallest k);
	// larger values overlap ~Concurrency neighboring operations.
	halfWidth := int64(6 + spacing*(cfg.Concurrency-1)/2)

	var (
		ops       = make([]history.Operation, 0, cfg.Ops)
		committed []int64 // values in commit order
		nextVal   int64   = 1
		forced    bool
	)
	for i := 0; i < cfg.Ops; i++ {
		commit := int64(i+1) * spacing
		lo := commit - 1 - rng.Int63n(halfWidth+1)
		hi := commit + 1 + rng.Int63n(halfWidth+1)
		isRead := rng.Float64() < cfg.ReadFraction && len(committed) > 0
		if i == 0 {
			isRead = false
		}
		if isRead {
			depth := rng.Intn(cfg.StalenessDepth + 1)
			if cfg.ForceDepth && !forced && len(committed) > cfg.StalenessDepth {
				depth = cfg.StalenessDepth
				forced = true
			}
			if depth >= len(committed) {
				depth = len(committed) - 1
			}
			val := committed[len(committed)-1-depth]
			ops = append(ops, history.Operation{
				ID: i, Kind: history.KindRead, Value: val, Start: lo, Finish: hi,
			})
			continue
		}
		ops = append(ops, history.Operation{
			ID: i, Kind: history.KindWrite, Value: nextVal, Start: lo, Finish: hi,
		})
		committed = append(committed, nextVal)
		nextVal++
	}
	return history.NormalizeInPlace(&history.History{Ops: ops})
}

// Adversarial generates a 2-atomic history whose write concurrency is
// approximately cfg.Concurrency at every instant, driving LBT's per-epoch
// candidate set to size Θ(c) (the worst-case regime of Theorem 3.2). It is
// a KAtomic run with StalenessDepth 1 and write-heavy traffic.
func Adversarial(cfg Config) *history.History {
	cfg.fill()
	cfg.StalenessDepth = 1
	if cfg.ReadFraction == 0.5 {
		cfg.ReadFraction = 0.25
	}
	return KAtomic(cfg)
}

// Random generates an unconstrained random history: random intervals, writes
// with distinct values, and each read returning a uniformly chosen write
// whose interval started before the read finishes (avoiding the trivial
// read-before-write anomaly). The result carries no k-atomicity guarantee —
// ideal for differential testing of checkers. It is normalized and
// anomaly-free.
func Random(cfg Config) *history.History {
	cfg.fill()
	rng := seeded(cfg.Seed)
	defer rngs.Put(rng)
	span := int64(cfg.Ops) * 8
	if span < 8 {
		span = 8
	}
	maxLen := int64(cfg.Concurrency) * 8

	var writes []history.Operation
	var ops []history.Operation
	nWrites := 0
	for i := 0; i < cfg.Ops; i++ {
		if i == 0 || rng.Float64() >= cfg.ReadFraction {
			start := rng.Int63n(span)
			ops = append(ops, history.Operation{
				ID: i, Kind: history.KindWrite, Value: int64(nWrites + 1),
				Start: start, Finish: start + 1 + rng.Int63n(maxLen),
			})
			writes = append(writes, ops[len(ops)-1])
			nWrites++
			continue
		}
		ops = append(ops, history.Operation{ID: i, Kind: history.KindRead})
	}
	// Assign read intervals and dictating writes.
	for i := range ops {
		if !ops[i].IsRead() {
			continue
		}
		start := rng.Int63n(span)
		finish := start + 1 + rng.Int63n(maxLen)
		// Choose among writes starting before this read finishes.
		var eligible []history.Operation
		for _, w := range writes {
			if w.Start < finish {
				eligible = append(eligible, w)
			}
		}
		if len(eligible) == 0 {
			// Read everything overlaps: make it a read of the first write,
			// stretched to overlap it.
			w := writes[0]
			start = w.Start
			finish = w.Finish + 1
			eligible = []history.Operation{w}
		}
		w := eligible[rng.Intn(len(eligible))]
		ops[i].Value = w.Value
		ops[i].Start = start
		ops[i].Finish = finish
	}
	return history.NormalizeInPlace(&history.History{Ops: ops})
}

// LBTTrap builds the pathological input for literal Figure 2 LBT that
// Theorem 3.2's proof warns about: at every epoch, candidate writes tried
// early chain through a long "staircase" of forced reads before failing,
// while one write (examined late under an adversarial candidate order)
// succeeds immediately. Without iterative deepening each epoch costs
// Θ(chain²); with deepening the failing candidates are cut off at the
// doubling budget.
//
// Construction (one register):
//   - staircase writes v_1..v_chain whose dictated reads are shifted one
//     finish-time step later, so an epoch started anywhere on the staircase
//     chains all the way down;
//   - a "doom" pair of old writes whose reads sit at the bottom of the
//     staircase, guaranteeing every staircase chain eventually fails;
//   - `goods` mutually concurrent readless writes with the largest finish
//     times, each of which ends an epoch instantly.
//
// The history is NOT 2-atomic (once the good writes are exhausted every
// remaining candidate fails), so this also measures rejection latency.
func LBTTrap(chain, goods int) *history.History {
	if chain < 1 {
		chain = 1
	}
	if goods < 0 {
		goods = 0
	}
	var ops []history.Operation
	val := int64(1)
	add := func(kind history.Kind, v, s, f int64) {
		ops = append(ops, history.Operation{ID: len(ops), Kind: kind, Value: v, Start: s, Finish: f})
	}
	L := int64(chain)
	fin := func(j int64) int64 { return 1000 + 10*j } // staircase finish ladder
	// Doom pair X, Y: old writes whose reads sit only in v_1's forced
	// region, so every full chain ends in a two-foreign-dicts failure.
	xv, yv := val, val+1
	val += 2
	add(history.KindWrite, xv, 3, 500)
	add(history.KindWrite, yv, 4, 501)
	add(history.KindRead, xv, fin(1)+2, fin(1)+3)
	add(history.KindRead, yv, fin(1)+5, fin(1)+6)
	// Staircase writes are near-points [F_j-5, F_j]: each precedes the
	// next, so only the top one is ever an epoch candidate. Their reads
	// are shifted one rung up (rv_j starts just above F_{j+1}), which is
	// what makes an epoch started at the top chain all the way down.
	vvals := make([]int64, chain+1)
	for j := int64(1); j <= L; j++ {
		vvals[j] = val
		val++
		add(history.KindWrite, vvals[j], fin(j)-5, fin(j))
	}
	for j := int64(1); j <= L; j++ {
		next := fin(j + 1) // v_{j+1}.f; for j=chain this is the trap's finish
		add(history.KindRead, vvals[j], next+2, next+7)
	}
	// The trap write T: readless, spans the staircase, largest write
	// finish among non-goods. Its forced region holds only rv_chain, so
	// its epoch descends the entire staircase before failing.
	add(history.KindWrite, val, 700, fin(L+1))
	val++
	// Good writes: start below the staircase band (staying out of every
	// chain region) and finish above every read start, so each ends an
	// epoch instantly. Mutually concurrent.
	base := fin(L+1) + 1000
	for i := int64(0); i < int64(goods); i++ {
		add(history.KindWrite, val, 800+i%200, base+10*i)
		val++
	}
	return history.NormalizeInPlace(&history.History{Ops: ops})
}

// ZipfCounts distributes total operations over keys with Zipfian skew of
// exponent s > 1: key rank r (0-based) receives ops proportional to
// 1/(r+1)^s, the canonical hot-key model of Internet-scale stores. The
// result is deterministic given the seed, sums exactly to total, and every
// key receives at least one operation when total >= keys. kavgen's -zipf
// flag and the hot-key benchmarks both draw from this.
//
// ZipfCounts panics when s is not > 1 (rand.NewZipf's domain); callers
// exposing the exponent to users must validate it first, as kavgen does.
func ZipfCounts(seed int64, keys, total int, s float64) []int {
	if !(s > 1) {
		panic(fmt.Sprintf("generator: zipf exponent must be > 1, got %v", s))
	}
	counts := make([]int, keys)
	if keys <= 0 || total <= 0 {
		return counts
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(keys-1))
	for i := 0; i < total; i++ {
		counts[z.Uint64()]++
	}
	// Guarantee non-empty registers (an empty history is legal but a
	// zero-op key would silently vanish from keyed output): each empty key
	// takes one op from the fullest remaining donor, walking donors in
	// descending-count order — O(keys log keys) regardless of skew.
	if total >= keys {
		donors := make([]int, keys)
		for i := range donors {
			donors[i] = i
		}
		sort.Slice(donors, func(a, b int) bool { return counts[donors[a]] > counts[donors[b]] })
		d := 0
		for i := range counts {
			if counts[i] > 0 {
				continue
			}
			for counts[donors[d]] <= 1 {
				d++
			}
			counts[donors[d]]--
			counts[i]++
			if counts[donors[d]] <= 1 {
				d++
			}
		}
	}
	return counts
}

// InjectStaleness returns a copy of h in which extra reads have been
// redirected to older writes: each selected read's value is replaced with
// the value of a write `extraDepth` positions earlier in start order. This
// typically deepens the history's smallest k. The result is re-normalized;
// reads that would become anomalous (preceding the older write) are left
// unchanged.
func InjectStaleness(h *history.History, seed int64, fraction float64, extraDepth int) *history.History {
	if extraDepth < 1 {
		extraDepth = 1
	}
	rng := rand.New(rand.NewSource(seed))
	cp := h.Clone()
	cp.SortByStart()
	// Collect writes in start order.
	var writeIdx []int
	posOfValue := make(map[int64]int)
	for i, op := range cp.Ops {
		if op.IsWrite() {
			posOfValue[op.Value] = len(writeIdx)
			writeIdx = append(writeIdx, i)
		}
	}
	for i := range cp.Ops {
		op := &cp.Ops[i]
		if !op.IsRead() || rng.Float64() >= fraction {
			continue
		}
		pos, ok := posOfValue[op.Value]
		if !ok {
			continue
		}
		older := pos - extraDepth
		if older < 0 {
			continue
		}
		w := cp.Ops[writeIdx[older]]
		if op.Finish < w.Start {
			continue // would create a read-before-write anomaly
		}
		op.Value = w.Value
	}
	return history.NormalizeInPlace(cp)
}

package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"kat/internal/core"
	"kat/internal/delta"
	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/refcheck"
	"kat/internal/regularity"
	"kat/internal/zone"
)

// TestVerdictFoldLaws: the zero Verdict is Fold's identity, and Fold commutes
// and associates — what lets a fresh key start from nothing, segments land in
// any order, and a retired floor seed the next lifetime. (Smallest k and Δ
// are never negative; quick's values are made so.)
func TestVerdictFoldLaws(t *testing.T) {
	fold := func(a, b Verdict) Verdict { a.Fold(b); return a }
	laws := func(a, b, c Verdict) bool {
		for _, v := range []*Verdict{&a, &b, &c} {
			v.SmallestK, v.SmallestDelta = v.SmallestK&math.MaxInt, v.SmallestDelta&math.MaxInt64
		}
		return fold(a, Verdict{}) == a && fold(Verdict{}, a) == a && fold(a, b) == fold(b, a) &&
			fold(fold(a, b), c) == fold(a, fold(b, c))
	}
	if err := quick.Check(laws, nil); err != nil {
		t.Error(err)
	}
}

func TestParseProperties(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want PropertySet
	}{
		{"", PropertySetK},
		{"k", PropertySetK},
		{"delta", PropertySetK | PropertySetDelta},
		{"k,delta,regularity", PropertySetAll},
		{" Regularity , DELTA ", PropertySetAll},
		{"safety", PropertySetK | PropertySetRegularity},
	} {
		got, err := ParseProperties(tc.in)
		if err != nil || got|PropertySetK != tc.want {
			t.Errorf("ParseProperties(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseProperties("k,linearizability"); err == nil {
		t.Error("unknown property accepted")
	}
	if got := PropertySetAll.String(); got != "k,delta,regularity" {
		t.Errorf("PropertySetAll.String() = %q", got)
	}
	if !PropertySet(0).Has(PropertyKAtomicity) {
		t.Error("k-atomicity must be implicitly enabled")
	}
}

// propSegmentsAt splits ops at the given sorted cut positions.
func propSegmentsAt(ops []history.Operation, cuts []int) []*history.History {
	bounds := append(append([]int{0}, cuts...), len(ops))
	var out []*history.History
	for i := 1; i < len(bounds); i++ {
		if bounds[i] > bounds[i-1] {
			out = append(out, history.New(ops[bounds[i-1]:bounds[i]]))
		}
	}
	return out
}

// TestCutsPreserveSmallestDelta is the Δ decomposition lemma checked
// directly: for any subset of safe cuts, the maximum smallest-Δ over the
// segments equals the smallest Δ of the whole history.
func TestCutsPreserveSmallestDelta(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 90, Concurrency: 1 + int(seed%3),
			StalenessDepth: int(seed % 4), ForceDepth: true, ReadFraction: 0.6,
		})
		if seed%2 == 1 {
			h = generator.InjectStaleness(h, seed, 0.2, 1+int(seed%2))
		}
		p, err := history.Prepare(history.Normalize(h))
		if err != nil {
			t.Fatalf("seed %d: Prepare: %v", seed, err)
		}
		whole, err := delta.Smallest(p.H)
		if err != nil {
			t.Fatalf("seed %d: Smallest: %v", seed, err)
		}
		cuts := zone.Cuts(p)
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 3; trial++ {
			var subset []int
			for _, c := range cuts {
				if trial == 0 || rng.Intn(2) == 0 { // trial 0: every cut
					subset = append(subset, c)
				}
			}
			var maxD int64
			for _, seg := range propSegmentsAt(p.H.Ops, subset) {
				d, err := delta.Smallest(seg)
				if err != nil {
					t.Fatalf("seed %d: segment Smallest: %v", seed, err)
				}
				if d > maxD {
					maxD = d
				}
			}
			if maxD != whole {
				t.Fatalf("seed %d trial %d: max segment Δ=%d, whole Δ=%d (cuts %v of %v)",
					seed, trial, maxD, whole, subset, cuts)
			}
		}
	}
}

// TestCutsPreserveRegularity is the per-read decomposition checked directly:
// safety/regularity offender counts sum over safe-cut segments (each
// segment normalized on its own) to the whole history's counts.
func TestCutsPreserveRegularity(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 90, Concurrency: 1 + int(seed%4),
			StalenessDepth: int(seed % 3), ForceDepth: true,
		})
		if seed%2 == 0 {
			h = generator.InjectStaleness(h, seed, 0.25, int(seed%3))
		}
		p, err := history.Prepare(history.Normalize(h))
		if err != nil {
			t.Fatalf("seed %d: Prepare: %v", seed, err)
		}
		whole := regularity.Check(p)
		cuts := zone.Cuts(p)
		unsafeN, irregularN := 0, 0
		for _, seg := range propSegmentsAt(p.H.Ops, cuts) {
			sp, err := history.Prepare(history.Normalize(seg))
			if err != nil {
				t.Fatalf("seed %d: segment Prepare: %v", seed, err)
			}
			v := regularity.Check(sp)
			unsafeN += len(v.UnsafeReads)
			irregularN += len(v.IrregularReads)
		}
		if unsafeN != len(whole.UnsafeReads) || irregularN != len(whole.IrregularReads) {
			t.Fatalf("seed %d: segments unsafe=%d irregular=%d, whole unsafe=%d irregular=%d",
				seed, unsafeN, irregularN, len(whole.UnsafeReads), len(whole.IrregularReads))
		}
	}
}

// offlineVerdicts computes the per-key reference verdicts with the offline
// checkers on the complete histories.
type offlineVerdict struct {
	k         int
	d         int64
	unsafe    int
	irregular int
}

func offlineVerdictsOf(t *testing.T, keys map[string]*history.History) map[string]offlineVerdict {
	t.Helper()
	v := core.NewVerifier()
	out := make(map[string]offlineVerdict, len(keys))
	for key, h := range keys {
		k, err := v.SmallestK(h, core.Options{})
		if err != nil {
			t.Fatalf("key %q: SmallestK: %v", key, err)
		}
		d, err := delta.Smallest(h)
		if err != nil {
			t.Fatalf("key %q: delta.Smallest: %v", key, err)
		}
		p, err := history.Prepare(history.Normalize(h))
		if err != nil {
			t.Fatalf("key %q: Prepare: %v", key, err)
		}
		rv := regularity.Check(p)
		out[key] = offlineVerdict{k: k, d: d, unsafe: len(rv.UnsafeReads), irregular: len(rv.IrregularReads)}
	}
	return out
}

// checkVerdictsAgainstOffline asserts one drained multi-property run against
// the offline references: exact equality for non-saturated keys, sound
// floors for saturated ones, and exact regularity counts always.
func checkVerdictsAgainstOffline(t *testing.T, desc string, kvs []KeyVerdict, want map[string]offlineVerdict) {
	t.Helper()
	if len(kvs) != len(want) {
		t.Fatalf("%s: %d key verdicts, want %d", desc, len(kvs), len(want))
	}
	for _, kv := range kvs {
		ref, ok := want[kv.Key]
		if !ok {
			t.Fatalf("%s: unexpected key %q", desc, kv.Key)
		}
		if kv.Err != nil {
			t.Fatalf("%s key %q: unexpected error %v", desc, kv.Key, kv.Err)
		}
		if kv.Properties != PropertySetAll {
			t.Fatalf("%s key %q: properties %v, want all", desc, kv.Key, kv.Properties)
		}
		if kv.Saturated {
			if kv.SmallestK < 1 || kv.SmallestK > ref.k {
				t.Fatalf("%s key %q: saturated k=%d outside (0, %d]", desc, kv.Key, kv.SmallestK, ref.k)
			}
		} else if max(1, kv.SmallestK) != ref.k {
			t.Fatalf("%s key %q: k=%d, offline %d", desc, kv.Key, kv.SmallestK, ref.k)
		}
		if kv.DeltaSaturated {
			if kv.SmallestDelta < 1 || kv.SmallestDelta > ref.d {
				t.Fatalf("%s key %q: saturated Δ=%d outside (0, %d]", desc, kv.Key, kv.SmallestDelta, ref.d)
			}
		} else if kv.SmallestDelta != ref.d {
			t.Fatalf("%s key %q: Δ=%d, offline %d", desc, kv.Key, kv.SmallestDelta, ref.d)
		}
		if kv.UnsafeReads != ref.unsafe || kv.IrregularReads != ref.irregular {
			t.Fatalf("%s key %q: unsafe=%d irregular=%d, offline unsafe=%d irregular=%d",
				desc, kv.Key, kv.UnsafeReads, kv.IrregularReads, ref.unsafe, ref.irregular)
		}
	}
}

// multiKeyArrival renders the keys as one arrival-ordered trace text.
func multiKeyArrival(keys map[string]*history.History) string {
	tr := New()
	for key, h := range keys {
		for _, op := range h.Ops {
			tr.Add(key, op)
		}
	}
	var b strings.Builder
	if err := WriteArrivalOrder(&b, tr); err != nil {
		panic(err)
	}
	return b.String()
}

// TestStreamVerdictsByKeyMatchesOffline drives generator traces through the
// one-pass multi-property engine — reader-driven and session-driven, across
// shard counts and segment cut granularities — and asserts every per-key
// per-property verdict against the offline checkers on the complete
// histories.
func TestStreamVerdictsByKeyMatchesOffline(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		keys := map[string]*history.History{}
		for i := 0; i < 3; i++ {
			keys[fmt.Sprintf("key%d", i)] = generator.KAtomic(generator.Config{
				Seed: seed*31 + int64(i), Ops: 60 + 20*i, Concurrency: 1 + int(seed%3),
				StalenessDepth: (int(seed) + i) % 3, ForceDepth: true, ReadFraction: 0.55,
			})
		}
		want := offlineVerdictsOf(t, keys)
		text := multiKeyArrival(keys)

		for _, minSeg := range []int{1, 16} {
			sopts := StreamOptions{MinSegmentOps: minSeg, Properties: PropertySetAll, Workers: 2}
			kvs, stats, err := StreamVerdictsByKey(strings.NewReader(text), core.Options{}, sopts)
			if err != nil {
				t.Fatalf("seed %d minSeg %d: StreamVerdictsByKey: %v", seed, minSeg, err)
			}
			if stats.SaturatedKeys > 0 {
				t.Fatalf("seed %d minSeg %d: saturated under the default horizon", seed, minSeg)
			}
			checkVerdictsAgainstOffline(t, fmt.Sprintf("stream seed %d minSeg %d", seed, minSeg), kvs, want)
		}

		// Session-driven: per-op appends over several ingest shards.
		for _, shards := range []int{1, 4} {
			sopts := StreamOptions{MinSegmentOps: 1, IngestShards: shards, Properties: PropertySetAll, Workers: 2}
			sess := NewSmallestKSession(core.Options{}, sopts)
			if _, err := sess.AppendTraceBatch(strings.NewReader(text)); err != nil {
				t.Fatalf("seed %d shards %d: AppendTrace: %v", seed, shards, err)
			}
			if err := sess.Flush(); err != nil {
				t.Fatalf("seed %d shards %d: Flush: %v", seed, shards, err)
			}
			checkVerdictsAgainstOffline(t, fmt.Sprintf("session seed %d shards %d", seed, shards), sess.Snapshot(), want)
		}
	}
}

// TestStreamVerdictsStaleFloors forces cross-boundary stale reads (deep
// staleness against a tiny horizon) and asserts the evidence-based folds:
// saturated k and Δ report sound non-trivial floors, and the regularity
// counts stay exactly equal to the offline checker — the dropped reads are
// definitively irregular, and safe exactly when they overlap a write of their
// closing window. At concurrency 1 no dropped read overlaps a write; at
// concurrency 3 some do.
func TestStreamVerdictsStaleFloors(t *testing.T) {
	for _, conc := range []int{1, 3} {
		sawStale := false
		for seed := int64(0); seed < 12; seed++ {
			h := generator.KAtomic(generator.Config{
				Seed: seed, Ops: 120, Concurrency: conc, StalenessDepth: 0, ReadFraction: 0.5,
			})
			h = generator.InjectStaleness(h, seed, 0.3, 6+int(seed%4))
			keys := map[string]*history.History{"x": h}
			want := offlineVerdictsOf(t, keys)
			text := multiKeyArrival(keys)

			sopts := StreamOptions{MinSegmentOps: 1, Horizon: 2, Properties: PropertySetAll, Workers: 2}
			kvs, stats, err := StreamVerdictsByKey(strings.NewReader(text), core.Options{}, sopts)
			if err != nil {
				t.Fatalf("concurrency %d seed %d: StreamVerdictsByKey: %v", conc, seed, err)
			}
			sawStale = sawStale || stats.StaleReads > 0
			checkVerdictsAgainstOffline(t, fmt.Sprintf("concurrency %d stale seed %d", conc, seed), kvs, want)
			if stats.StaleReads > 0 && (!kvs[0].Saturated || !kvs[0].DeltaSaturated) {
				t.Fatalf("concurrency %d seed %d: %d stale reads but saturation flags k=%v Δ=%v",
					conc, seed, stats.StaleReads, kvs[0].Saturated, kvs[0].DeltaSaturated)
			}
		}
		if !sawStale {
			t.Fatalf("concurrency %d: no seed produced a cross-boundary stale read; the floors went untested", conc)
		}
	}
}

// TestStaleReadSafetyMergingWindow: the last window holds w 3, r 2 and r 1.
// r 2 merges the held segment of w 2; w 1 was dispatched at a horizon of one
// write, so r 1 is dropped. r 1 overlaps w 3, so it is safe, and w 2 falls
// between w 1 and r 1, so it is irregular. A window that also merges must
// not turn the dropped read unsafe.
func TestStaleReadSafetyMergingWindow(t *testing.T) {
	const text = "w 1 0 1\nw 2 2 3\nw 3 4 7\nr 2 5 9\nr 1 6 8\n"
	h, err := history.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refcheck.Properties(h)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSmallestKSession(core.Options{}, StreamOptions{
		Horizon: 1, MinSegmentOps: 1, Properties: PropertySetRegularity,
	})
	for _, op := range h.Ops {
		if err := sess.Append("x", op); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.StaleReads != 1 || st.Merges == 0 {
		t.Fatalf("stale reads %d, merges %d; want one stale read in a merging window", st.StaleReads, st.Merges)
	}
	kv := sess.Snapshot()[0]
	if kv.Err != nil || kv.UnsafeReads != 0 || kv.IrregularReads != 1 ||
		kv.UnsafeReads != len(ref.UnsafeReads) || kv.IrregularReads != len(ref.IrregularReads) {
		t.Fatalf("online err=%v unsafe=%d irregular=%d; reference unsafe=%d irregular=%d, want 0 and 1",
			kv.Err, kv.UnsafeReads, kv.IrregularReads, len(ref.UnsafeReads), len(ref.IrregularReads))
	}
}

// TestSettleRuleScanOnly pins the rule resettle encodes: once a key has an
// error, its later segments are only scanned for anomalies in every session;
// once it has a violation, they are only in a k-only fixed-k session — with
// Δ on they still owe their Δ verdicts, and a smallest-k session has no
// violation to settle on. Both the violation (a cross-boundary stale read)
// and the error (a duplicate write) settle at ingest, while segment 0 is
// already dispatched and segments 1 onwards are still held, so which
// segments arrive ScanOnly does not depend on worker timing.
func TestSettleRuleScanOnly(t *testing.T) {
	const (
		// r 1 reads back past the two writes closed after segment 0, which
		// a horizon of 2 has already dispatched.
		stale = "w x 1 0 10\nw x 2 20 30\nw x 3 40 50\nr x 1 60 70\nw x 4 80 90\nw x 5 100 110\nw x 6 120 130\n"
		// The fourth window writes value 1 a second time.
		dup = "w x 1 0 10\nw x 2 20 30\nw x 3 40 50\nw x 1 60 70\nw x 4 80 90\nw x 5 100 110\n"
	)
	sessions := []struct {
		name string
		k    int
		set  PropertySet
	}{
		{"fixed-k k-only", 2, 0},
		{"fixed-k with delta", 2, PropertySetDelta},
		{"smallest-k", 0, PropertySetAll},
	}
	for _, sc := range sessions {
		for _, tc := range []struct {
			name, text string
			// settles reports whether the trace settles this session's key.
			settles bool
		}{
			{"violation", stale, sc.k > 0 && sc.set&^PropertySetK == 0},
			{"error", dup, true},
		} {
			var mu sync.Mutex
			var segs []SegmentVerdict
			sopts := StreamOptions{
				MinSegmentOps: 1, Horizon: 2, Workers: 2, Properties: sc.set,
				OnSegment: func(sv SegmentVerdict) {
					mu.Lock()
					segs = append(segs, sv)
					mu.Unlock()
				},
			}
			var s *Session
			if sc.k > 0 {
				var err error
				if s, err = NewCheckSession(sc.k, core.Options{}, sopts); err != nil {
					t.Fatal(err)
				}
			} else {
				s = NewSmallestKSession(core.Options{}, sopts)
			}
			if _, err := s.AppendTraceBatch(strings.NewReader(tc.text)); err != nil {
				t.Fatalf("%s, %s: AppendTraceBatch: %v", sc.name, tc.name, err)
			}
			if err := s.Flush(); err != nil {
				t.Fatalf("%s, %s: Flush: %v", sc.name, tc.name, err)
			}
			if len(segs) < 4 {
				t.Fatalf("%s, %s: %d segments, want at least 4", sc.name, tc.name, len(segs))
			}
			for _, sv := range segs {
				if want := tc.settles && sv.Seq > 0; sv.ScanOnly != want {
					t.Errorf("%s, %s: segment %d ScanOnly = %v, want %v", sc.name, tc.name, sv.Seq, sv.ScanOnly, want)
				}
			}
		}
	}
}

// TestExhaustivePropertiesOnlineVsOffline sweeps every enumerated history of
// up to 4 operations through a drained multi-property session and asserts
// the per-property verdicts equal the brute-force references — the
// acceptance criterion that online property verdicts are provably identical
// to the offline checkers.
func TestExhaustivePropertiesOnlineVsOffline(t *testing.T) {
	maxN := 4
	if testing.Short() {
		maxN = 3
	}
	sweepPropertiesOnlineVsOffline(t, maxN, 0)
}

// TestExhaustivePropertiesStaleHorizon is the same sweep at a horizon of one
// write, up to 5 operations: a read reaching back past one closed write is a
// cross-boundary stale read, so dropped reads, and windows that both drop
// reads and merge held segments, appear throughout. Regularity counts stay
// exact; k and Δ are exact unless saturated, and a saturated floor never
// exceeds the reference.
func TestExhaustivePropertiesStaleHorizon(t *testing.T) {
	maxN := 5
	if testing.Short() {
		maxN = 4
	}
	sweepPropertiesOnlineVsOffline(t, maxN, 1)
}

// sweepPropertiesOnlineVsOffline feeds every enumerated history of up to maxN
// operations, in start order, to a smallest-k session with every property at
// the given horizon (0: the default, which no tiny history saturates), and
// asserts each drained verdict against the brute-force references.
func sweepPropertiesOnlineVsOffline(t *testing.T, maxN, horizon int) {
	pool := core.NewPool(2)
	defer pool.Close()
	total, stale := 0, int64(0)
	for n := 1; n <= maxN; n++ {
		refcheck.EnumerateHistories(n, func(h *history.History) {
			total++
			desc := strings.ReplaceAll(h.String(), "\n", "; ")
			refK, refErr := refcheck.SmallestK(h)
			refD, refDErr := refcheck.SmallestDelta(h)
			refP, refPErr := refcheck.Properties(h)
			if (refErr == nil) != (refDErr == nil) || (refErr == nil) != (refPErr == nil) {
				t.Fatalf("%s: reference error disagreement: k=%v Δ=%v props=%v", desc, refErr, refDErr, refPErr)
			}

			ops := append([]history.Operation(nil), h.Ops...)
			sort.SliceStable(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
			sess := NewSmallestKSession(core.Options{}, StreamOptions{
				Pool: pool, MinSegmentOps: 1, Horizon: horizon, Properties: PropertySetAll,
			})
			for _, op := range ops {
				if err := sess.Append("x", op); err != nil {
					t.Fatalf("%s: Append: %v", desc, err)
				}
			}
			if err := sess.Flush(); err != nil {
				t.Fatalf("%s: Flush: %v", desc, err)
			}
			stale += sess.Stats().StaleReads
			kvs := sess.Snapshot()
			if len(kvs) != 1 {
				t.Fatalf("%s: %d keys", desc, len(kvs))
			}
			kv := kvs[0]
			if (refErr == nil) != (kv.Err == nil) {
				t.Fatalf("%s: reference err=%v, online err=%v", desc, refErr, kv.Err)
			}
			if refErr != nil {
				return
			}
			if horizon == 0 && (kv.Saturated || kv.DeltaSaturated) {
				t.Fatalf("%s: tiny history saturated the horizon", desc)
			}
			if got := max(1, kv.SmallestK); got != refK && !(kv.Saturated && got < refK) {
				t.Fatalf("%s: online k=%d (saturated %v), reference %d", desc, got, kv.Saturated, refK)
			}
			if kv.SmallestDelta != refD && !(kv.DeltaSaturated && kv.SmallestDelta < refD) {
				t.Fatalf("%s: online Δ=%d (saturated %v), reference %d", desc, kv.SmallestDelta, kv.DeltaSaturated, refD)
			}
			if kv.UnsafeReads != len(refP.UnsafeReads) || kv.IrregularReads != len(refP.IrregularReads) {
				t.Fatalf("%s: online unsafe=%d irregular=%d, reference unsafe=%d irregular=%d",
					desc, kv.UnsafeReads, kv.IrregularReads, len(refP.UnsafeReads), len(refP.IrregularReads))
			}
		})
		if t.Failed() {
			t.FailNow()
		}
	}
	if horizon > 0 && stale == 0 {
		t.Fatalf("no history produced a cross-boundary stale read at horizon %d", horizon)
	}
	t.Logf("swept %d histories online vs offline across all properties at horizon %d (%d stale reads)", total, horizon, stale)
}

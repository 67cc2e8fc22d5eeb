package refcheck

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kat"
	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/oracle"
	"kat/internal/witness"
)

// --- Oracle self-tests -------------------------------------------------

func TestSmallestKKnownHistories(t *testing.T) {
	cases := []struct {
		text string
		want int
	}{
		{"w 1 0 10", 1},
		{"w 1 0 10; r 1 20 30", 1},
		{"w 1 0 10; w 2 20 30; r 1 40 50", 2},
		{"w 1 0 30; w 2 5 35; r 2 40 50; r 1 60 70", 2},
		{"w 1 0 10; w 2 20 30; w 3 40 50; r 1 60 70", 3},
		// Concurrent writes can be ordered after the read's dictating
		// write is consumed, so this stays 1-atomic.
		{"w 1 0 30; w 2 5 35; r 1 10 20", 1},
	}
	for _, tc := range cases {
		h := history.MustParse(tc.text)
		got, err := SmallestK(h)
		if err != nil {
			t.Fatalf("%q: %v", tc.text, err)
		}
		if got != tc.want {
			t.Errorf("%q: smallest k = %d, want %d", tc.text, got, tc.want)
		}
		for k := 1; k <= tc.want+1; k++ {
			ok, err := CheckK(h, k)
			if err != nil {
				t.Fatalf("%q k=%d: %v", tc.text, k, err)
			}
			if ok != (k >= tc.want) {
				t.Errorf("%q: CheckK(%d) = %v, smallest %d", tc.text, k, ok, tc.want)
			}
		}
	}
}

func TestSmallestKAnomalies(t *testing.T) {
	for _, text := range []string{
		"r 1 0 10",            // dangling read
		"w 1 0 10; w 1 20 30", // duplicate write value
		"w 1 20 30; r 1 0 10", // read finishes before its write starts
		"w 1 0 10; r 2 20 30", // read of a never-written value
	} {
		if _, err := SmallestK(history.MustParse(text)); err == nil {
			t.Errorf("%q: expected an anomaly error", text)
		}
	}
}

func TestSmallestKOpsCap(t *testing.T) {
	h := &history.History{Ops: make([]history.Operation, MaxOps+1)}
	if _, err := SmallestK(h); err == nil {
		t.Fatal("oversized history accepted")
	}
	if _, err := CheckK(history.MustParse("w 1 0 10"), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestEnumerateHistoriesCounts(t *testing.T) {
	// (2n-1)!! interval interleavings times the kind/value variants; pinned
	// so the corpus cannot silently shrink.
	want := map[int]int{1: 2, 2: 12, 3: 165, 4: 4410}
	for n, wantCount := range want {
		got := 0
		EnumerateHistories(n, func(h *history.History) {
			if h.Len() != n {
				t.Fatalf("n=%d: yielded history with %d ops", n, h.Len())
			}
			got++
		})
		if got != wantCount {
			t.Errorf("n=%d: enumerated %d histories, want %d", n, got, wantCount)
		}
	}
}

// --- Differential suite -------------------------------------------------

// engines bundles the reusable machinery so the sweep doesn't re-create
// pools and verifiers per history.
type engines struct {
	pool *kat.Pool
	v    *kat.Verifier
}

func newEngines() *engines {
	return &engines{pool: kat.NewPool(2), v: kat.NewVerifier()}
}

func (e *engines) close() { e.pool.Close() }

// singleKeyTrace wraps h under one register key.
func singleKeyTrace(h *history.History) *kat.Trace {
	tr := kat.NewTrace()
	for _, op := range h.Ops {
		tr.Add("x", op)
	}
	return tr
}

func arrivalText(tr *kat.Trace) string {
	var b strings.Builder
	if err := kat.WriteTraceArrivalOrder(&b, tr); err != nil {
		panic(err)
	}
	return b.String()
}

// verifyAllEngines asserts that the sequential, chunk-parallel, streaming,
// and online engines all agree with the brute-force oracle on h: identical
// error presence, identical smallest k, and fixed-k verdicts matching
// refK <= k at and around the oracle's answer. This is the trust anchor the
// acceptance criteria ask for: online verdicts are compared both to the
// oracle and to StreamCheckTrace on the same input.
func verifyAllEngines(t *testing.T, e *engines, h *history.History) {
	t.Helper()
	refK, refErr := SmallestK(h)
	desc := strings.ReplaceAll(h.String(), "\n", "; ")

	// Sequential smallest-k and fixed-k checks.
	seqK, seqErr := e.v.SmallestK(h, kat.Options{})
	if (refErr == nil) != (seqErr == nil) {
		t.Fatalf("%s: oracle err=%v, sequential err=%v", desc, refErr, seqErr)
	}
	tr := singleKeyTrace(h)
	canon := arrivalText(tr)
	if refErr != nil {
		// Every engine must reject the anomalous history too.
		if gotK := kat.SmallestKByKeyParallel(tr, kat.Options{MinParallelOps: -1}, 2)["x"]; gotK != 0 {
			t.Fatalf("%s: parallel accepted anomalous history (k=%d)", desc, gotK)
		}
		rep, _, err := kat.StreamCheckTrace(strings.NewReader(canon), 1, kat.Options{},
			kat.StreamOptions{Pool: e.pool, MinSegmentOps: 1})
		if err != nil {
			t.Fatalf("%s: StreamCheckTrace: %v", desc, err)
		}
		if len(rep.Keys) != 1 || rep.Keys[0].Err == nil {
			t.Fatalf("%s: stream accepted anomalous history", desc)
		}
		sess := kat.NewOnlineSmallestKSession(kat.Options{}, kat.StreamOptions{Pool: e.pool, MinSegmentOps: 1})
		if _, err := sess.AppendTraceBatch(strings.NewReader(canon)); err != nil {
			t.Fatalf("%s: online ingest: %v", desc, err)
		}
		sess.Flush()
		if ks, _ := sess.SmallestKByKey(); ks["x"] != 0 {
			t.Fatalf("%s: online accepted anomalous history (k=%d)", desc, ks["x"])
		}
		return
	}
	if seqK != refK {
		t.Fatalf("%s: oracle k=%d, sequential k=%d", desc, refK, seqK)
	}

	bounds := []int{1, refK - 1, refK, refK + 1}
	for _, k := range bounds {
		if k < 1 {
			continue
		}
		rep, err := e.v.Check(h, k, kat.Options{})
		if err != nil {
			t.Fatalf("%s: Check(%d): %v", desc, k, err)
		}
		if rep.Atomic != (refK <= k) {
			t.Fatalf("%s: Check(%d) = %v, oracle smallest %d", desc, k, rep.Atomic, refK)
		}
	}

	// Chunk-parallel trace engine (MinParallelOps -1 forces chunk
	// scheduling even on tiny inputs).
	popts := kat.Options{MinParallelOps: -1}
	if gotK := kat.SmallestKByKeyParallel(tr, popts, 2)["x"]; gotK != refK {
		t.Fatalf("%s: parallel smallest k = %d, oracle %d", desc, gotK, refK)
	}
	prep := kat.CheckTraceParallel(tr, refK, popts, 2)
	if !prep.Keys[0].Atomic {
		t.Fatalf("%s: parallel not atomic at oracle k=%d", desc, refK)
	}
	if refK > 1 {
		if below := kat.CheckTraceParallel(tr, refK-1, popts, 2); below.Keys[0].Atomic {
			t.Fatalf("%s: parallel atomic below oracle k=%d", desc, refK)
		}
	}

	// Streaming engine (MinSegmentOps 1 cuts at every quiescent instant).
	sopts := kat.StreamOptions{Pool: e.pool, MinSegmentOps: 1}
	streamK, stats, err := kat.StreamSmallestKByKey(strings.NewReader(canon), kat.Options{}, sopts)
	if err != nil {
		t.Fatalf("%s: StreamSmallestKByKey: %v", desc, err)
	}
	if stats.SaturatedKeys > 0 {
		t.Fatalf("%s: tiny history saturated the horizon", desc)
	}
	if streamK["x"] != refK {
		t.Fatalf("%s: stream smallest k = %d, oracle %d", desc, streamK["x"], refK)
	}

	// Online sessions: verdicts must match both the oracle and the
	// reader-driven stream engine on the same input.
	onlineK := kat.NewOnlineSmallestKSession(kat.Options{}, sopts)
	if _, err := onlineK.AppendTraceBatch(strings.NewReader(canon)); err != nil {
		t.Fatalf("%s: online ingest: %v", desc, err)
	}
	if err := onlineK.Flush(); err != nil {
		t.Fatalf("%s: online flush: %v", desc, err)
	}
	if got, _ := onlineK.SmallestKByKey(); got["x"] != refK {
		t.Fatalf("%s: online smallest k = %d, oracle %d", desc, got["x"], refK)
	}
	for _, k := range []int{refK, refK - 1} {
		if k < 1 {
			continue
		}
		streamRep, _, err := kat.StreamCheckTrace(strings.NewReader(canon), k, kat.Options{}, sopts)
		if err != nil {
			t.Fatalf("%s: StreamCheckTrace(%d): %v", desc, k, err)
		}
		sess, err := kat.NewOnlineCheckSession(k, kat.Options{}, sopts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.AppendTraceBatch(strings.NewReader(canon)); err != nil {
			t.Fatalf("%s: online ingest: %v", desc, err)
		}
		if err := sess.Flush(); err != nil {
			t.Fatalf("%s: online flush: %v", desc, err)
		}
		rep, _ := sess.Report()
		if rep.Keys[0].Atomic != (refK <= k) {
			t.Fatalf("%s: online Check(%d) = %v, oracle smallest %d", desc, k, rep.Keys[0].Atomic, refK)
		}
		if rep.Keys[0].Atomic != streamRep.Keys[0].Atomic || rep.Keys[0].Ops != streamRep.Keys[0].Ops {
			t.Fatalf("%s: online %+v != stream %+v at k=%d", desc, rep.Keys[0], streamRep.Keys[0], k)
		}
	}
}

// TestDifferentialTinyHistories sweeps every generated history of up to 4
// operations (2+12+165+4410 histories: all interval interleavings, kind
// masks, and read-value assignments) through all four production engines
// and the brute-force oracle.
func TestDifferentialTinyHistories(t *testing.T) {
	maxN := 4
	if testing.Short() {
		maxN = 3
	}
	e := newEngines()
	defer e.close()
	total := 0
	for n := 1; n <= maxN; n++ {
		EnumerateHistories(n, func(h *history.History) {
			total++
			verifyAllEngines(t, e, h)
		})
		if t.Failed() {
			t.FailNow()
		}
	}
	t.Logf("swept %d histories through all engines", total)
}

// TestDifferentialRandomHistories extends the sweep to randomized histories
// of 5..8 operations — beyond exhaustive-enumeration reach but still within
// the brute-force oracle's.
func TestDifferentialRandomHistories(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 80
	}
	e := newEngines()
	defer e.close()
	rng := rand.New(rand.NewSource(20260728))
	for i := 0; i < rounds; i++ {
		h := randomHistory(rng, 5+rng.Intn(4))
		verifyAllEngines(t, e, h)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestOracleVsExactSearch cross-checks the two independent exact deciders —
// this package's permutation search and internal/oracle's memoized
// eager-read DFS — on a larger randomized corpus (cheap: no pools).
func TestOracleVsExactSearch(t *testing.T) {
	rounds := 1500
	if testing.Short() {
		rounds = 300
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < rounds; i++ {
		h := randomHistory(rng, 2+rng.Intn(7))
		refK, refErr := SmallestK(h)
		p, err := history.Prepare(history.Normalize(h))
		if (refErr == nil) != (err == nil) {
			t.Fatalf("%v: prepare err mismatch: %v vs %v", h, refErr, err)
		}
		if err != nil {
			continue
		}
		for k := 1; k <= refK+1; k++ {
			res, err := oracle.CheckK(p, k, oracle.Options{})
			if err != nil {
				t.Fatalf("oracle.CheckK: %v", err)
			}
			if res.Atomic != (refK <= k) {
				t.Fatalf("history:\n%s\noracle.CheckK(%d) = %v, refcheck smallest %d",
					h, k, res.Atomic, refK)
			}
		}
	}
}

// TestStalenessBracketHoldsSmallestK: history.StalenessBracket's bounds hold
// the exact smallest k — the first k the exact oracle accepts, and on
// histories of at most MaxOps operations the permutation search's answer too
// — on k-atomic histories of depth 0–4, concurrency 1–8 and up to 60
// operations, with staleness injected into every other one.
func TestStalenessBracketHoldsSmallestK(t *testing.T) {
	var stale history.StalenessScratch
	open := 0
	for _, n := range []int{8, 24, 60} {
		for depth := 0; depth <= 4; depth++ {
			for conc := 1; conc <= 8; conc++ {
				seed := int64(1000*n + 10*depth + conc)
				h := generator.KAtomic(generator.Config{
					Seed: seed, Ops: n, Concurrency: conc,
					StalenessDepth: depth, ForceDepth: conc%2 == 0, ReadFraction: 0.5,
				})
				if conc%2 != 0 {
					h = generator.InjectStaleness(h, seed, 0.2, 1+depth%3)
				}
				p, err := history.Build(h)
				if err != nil {
					t.Fatalf("n %d depth %d conc %d: Build: %v", n, depth, conc, err)
				}
				lo, hi := history.StalenessBracket(p, &stale, 1)
				k := 1
				for ; ; k++ {
					res, err := oracle.CheckK(p, k, oracle.Options{})
					if err != nil {
						t.Fatalf("n %d depth %d conc %d: oracle.CheckK(%d): %v", n, depth, conc, k, err)
					}
					if res.Atomic {
						break
					}
				}
				if n <= MaxOps {
					if ref, err := SmallestK(h); err != nil || ref != k {
						t.Fatalf("n %d depth %d conc %d: oracle smallest k %d, permutation search %d, %v", n, depth, conc, k, ref, err)
					}
				}
				if lo > k || k > hi {
					t.Fatalf("history:\n%s\nsmallest k %d outside the bracket [%d, %d]", h, k, lo, hi)
				}
				if lo < hi {
					open++
				}
			}
		}
	}
	if open == 0 {
		t.Fatal("every bracket closed; the sweep never tested an answer strictly inside one")
	}
}

// oracleScratch is the one Scratch every input of
// FuzzOracleScratchMatchesExhaustive searches on, so whatever a search leaves
// behind in it meets the next input.
var oracleScratch oracle.Scratch

// FuzzOracleScratchMatchesExhaustive holds the oracle's reusable search to the
// exhaustive one: on random histories of up to 8 operations, CheckKScratch
// accepts at SmallestK, with a witness that validates, and rejects one below
// it.
func FuzzOracleScratchMatchesExhaustive(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		h := randomHistory(rand.New(rand.NewSource(seed)), 1+int(n)%8)
		refK, refErr := SmallestK(h)
		p, err := history.Prepare(history.Normalize(h))
		if (refErr == nil) != (err == nil) {
			t.Fatalf("%v: prepare err mismatch: %v vs %v", h, refErr, err)
		}
		if err != nil {
			return
		}
		for k := max(1, refK-1); k <= refK; k++ {
			res, err := oracle.CheckKScratch(p, k, oracle.Options{}, &oracleScratch)
			if err != nil {
				t.Fatalf("history:\n%s\nCheckKScratch(%d): %v", h, k, err)
			}
			if res.Atomic != (k == refK) {
				t.Fatalf("history:\n%s\nCheckKScratch(%d) = %v, exhaustive smallest %d", h, k, res.Atomic, refK)
			}
			if res.Atomic {
				if err := witness.Validate(p, res.Witness, k); err != nil {
					t.Fatalf("history:\n%s\nCheckKScratch(%d) witness: %v", h, k, err)
				}
			}
		}
	})
}

// TestDifferentialMultiKey merges random tiny histories under several keys
// and asserts the trace-level engines (parallel, streaming, online) report
// exactly the per-key oracle answers.
func TestDifferentialMultiKey(t *testing.T) {
	rounds := 120
	if testing.Short() {
		rounds = 30
	}
	e := newEngines()
	defer e.close()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rounds; i++ {
		nkeys := 2 + rng.Intn(3)
		tr := kat.NewTrace()
		want := make(map[string]int, nkeys)
		for ki := 0; ki < nkeys; ki++ {
			key := fmt.Sprintf("key-%c", 'a'+ki)
			h := randomHistory(rng, 2+rng.Intn(6))
			refK, refErr := SmallestK(h)
			if refErr != nil {
				want[key] = 0
			} else {
				want[key] = refK
			}
			for _, op := range h.Ops {
				tr.Add(key, op)
			}
		}
		if got := kat.SmallestKByKeyParallel(tr, kat.Options{MinParallelOps: -1}, 2); !mapsEqual(got, want) {
			t.Fatalf("parallel %v, oracle %v\ntrace:\n%s", got, want, tr)
		}
		canon := arrivalText(tr)
		sopts := kat.StreamOptions{Pool: e.pool, MinSegmentOps: 1}
		got, stats, err := kat.StreamSmallestKByKey(strings.NewReader(canon), kat.Options{}, sopts)
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if stats.SaturatedKeys == 0 && !mapsEqual(got, want) {
			t.Fatalf("stream %v, oracle %v\ntrace:\n%s", got, want, tr)
		}
		sess := kat.NewOnlineSmallestKSession(kat.Options{}, sopts)
		if _, err := sess.AppendTraceBatch(strings.NewReader(canon)); err != nil {
			t.Fatalf("online ingest: %v", err)
		}
		sess.Flush()
		if gotOnline, _ := sess.SmallestKByKey(); !mapsEqual(gotOnline, got) {
			t.Fatalf("online %v, stream %v\ntrace:\n%s", gotOnline, got, tr)
		}
	}
}

func mapsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// randomHistory builds an arbitrary small history: random intervals, random
// kinds, reads mostly pointing at real writes with occasional dangling reads
// so the anomaly paths stay covered.
func randomHistory(rng *rand.Rand, n int) *history.History {
	h := &history.History{Ops: make([]history.Operation, n)}
	var writeVals []int64
	for i := range h.Ops {
		start := rng.Int63n(40)
		h.Ops[i] = history.Operation{
			ID:     i,
			Start:  start,
			Finish: start + 1 + rng.Int63n(15),
		}
		if rng.Float64() < 0.55 {
			h.Ops[i].Kind = history.KindWrite
			v := int64(len(writeVals) + 1)
			if rng.Float64() < 0.03 {
				v = 1 // occasional duplicate-value anomaly
			}
			h.Ops[i].Value = v
			writeVals = append(writeVals, v)
		} else {
			h.Ops[i].Kind = history.KindRead
		}
	}
	for i := range h.Ops {
		if !h.Ops[i].IsRead() {
			continue
		}
		if len(writeVals) == 0 || rng.Float64() < 0.04 {
			h.Ops[i].Value = 99 // dangling read
		} else {
			h.Ops[i].Value = writeVals[rng.Intn(len(writeVals))]
		}
	}
	return h
}

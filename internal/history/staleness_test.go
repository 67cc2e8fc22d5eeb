package history_test

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kat/internal/core"
	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/witness"
	"kat/internal/zone"
)

// On sequential (non-overlapping) histories the forced-staleness bound is
// exact: a read redirected d writes back has exactly d forced writes in
// between.
func TestForcedStalenessExactWhenSequential(t *testing.T) {
	for depth := 0; depth < 4; depth++ {
		h := generator.KAtomic(generator.Config{
			Seed: int64(depth), Ops: 200, Concurrency: 1,
			StalenessDepth: depth, ForceDepth: true, ReadFraction: 0.5,
		})
		p, err := history.Prepare(h)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		if got, want := history.ForcedStaleness(p), depth+1; got != want {
			t.Errorf("depth %d: ForcedStaleness=%d, want %d", depth, got, want)
		}
	}
}

// The bound must never exceed the true smallest k.
func TestForcedStalenessIsLowerBound(t *testing.T) {
	v := core.NewVerifier()
	for seed := int64(0); seed < 30; seed++ {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 120, Concurrency: 1 + int(seed%5),
			StalenessDepth: int(seed % 4), ReadFraction: 0.6,
		})
		if seed%3 == 0 {
			h = generator.InjectStaleness(h, seed, 0.3, 1+int(seed%3))
		}
		p, err := history.Prepare(history.Normalize(h))
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		lb := history.ForcedStaleness(p)
		k, err := v.SmallestKPrepared(p, core.Options{})
		if err != nil {
			t.Fatalf("SmallestKPrepared: %v", err)
		}
		if lb > k {
			t.Errorf("seed %d: ForcedStaleness=%d exceeds smallest k=%d", seed, lb, k)
		}
		if lb < 1 {
			t.Errorf("seed %d: ForcedStaleness=%d < 1", seed, lb)
		}
	}
}

func TestForcedStalenessEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		text string
		want int
	}{
		{"w 1 0 10", 1},                                  // no reads
		{"w 1 0 10; r 1 20 30", 1},                       // fresh read
		{"w 1 0 10; w 2 20 30; r 1 40 50", 2},            // one forced write
		{"w 1 0 10; w 2 20 30; w 3 40 50; r 1 60 70", 3}, // two forced writes
		{"w 1 0 10; w 2 5 15; r 1 20 30", 1},             // concurrent writes force nothing
		{"w 1 0 10; w 2 20 30; r 1 25 40; r 2 50 60", 1}, // read overlaps the newer write
	} {
		p, err := history.Prepare(history.Normalize(history.MustParse(tc.text)))
		if err != nil {
			t.Fatalf("%q: %v", tc.text, err)
		}
		if got := history.ForcedStaleness(p); got != tc.want {
			t.Errorf("%q: ForcedStaleness=%d, want %d", tc.text, got, tc.want)
		}
	}
}

// bruteForced is ForcedStaleness by its definition, in O(n²): 1 plus the
// maximum, over the reads dictate resolves, of the writes that start after
// the dictating write finishes and finish before the read starts.
func bruteForced(ops []history.Operation, dictate func(read int) (int, bool)) int {
	best := 0
	for i, r := range ops {
		w, ok := dictate(i)
		if !r.IsRead() || !ok {
			continue
		}
		n := 0
		for _, x := range ops {
			if x.IsWrite() && x.Start > ops[w].Finish && x.Finish < r.Start {
				n++
			}
		}
		best = max(best, n)
	}
	return 1 + best
}

// bruteForcedPrepared is bruteForced over p's own dictating-write index.
func bruteForcedPrepared(p *history.Prepared) int {
	return bruteForced(p.H.Ops, func(i int) (int, bool) { return p.DictatingWrite[i], p.DictatingWrite[i] >= 0 })
}

// bruteByFinish is the staleness of StalenessBracket's by-finish order by its
// definition, in O(n²): 1 plus the maximum, over the reads, of the writes
// that finish after the read's dictating write and before the read starts.
func bruteByFinish(p *history.Prepared) int {
	ops, best := p.H.Ops, 0
	for r, w := range p.DictatingWrite {
		if w < 0 {
			continue
		}
		n := 0
		for _, x := range ops {
			if x.IsWrite() && x.Finish > ops[w].Finish && x.Finish < ops[r].Start {
				n++
			}
		}
		best = max(best, n)
	}
	return 1 + best
}

// byFinishOrder is StalenessBracket's witness spelled out: each write at its
// finish, each read just after the later of its start and its dictating
// write's finish (reads at one point by index).
func byFinishOrder(p *history.Prepared) []int {
	type point struct {
		t    int64
		read bool
		i    int
	}
	ops := p.H.Ops
	pts := make([]point, len(ops))
	for i, op := range ops {
		pts[i] = point{op.Finish, false, i}
		if w := p.DictatingWrite[i]; w >= 0 {
			pts[i] = point{max(op.Start, ops[w].Finish), true, i}
		}
	}
	slices.SortFunc(pts, func(a, b point) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		if a.read != b.read {
			if a.read {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.i, b.i)
	})
	order := make([]int, len(pts))
	for j, pt := range pts {
		order[j] = pt.i
	}
	return order
}

// remapped returns a copy of p's history with every timestamp t moved to
// t·scale + offset: the same order, so still a prepared history, but with
// sparse timestamps far from the dense ranks Build leaves.
func remapped(p *history.Prepared, scale, offset int64) *history.History {
	h := p.H.Clone()
	for i := range h.Ops {
		h.Ops[i].Start = h.Ops[i].Start*scale + offset
		h.Ops[i].Finish = h.Ops[i].Finish*scale + offset
	}
	return h
}

// FuzzForcedStaleness pins the sweep to its definition on each input shape it
// sees: Build's dense ranks, strict Prepare on sparse timestamps far from
// zero, safe-cut SubPrepared views whose timestamps start far from their own
// size, and Measure's raw variant over arbitrary operations — unsorted
// writes, repeated finishes, duplicate values and dangling reads included.
// On the prepared shapes it holds StalenessBracket to its definition too: hi
// is the by-finish order's staleness counted pair by pair, that order is a
// witness Validate accepts at hi, and lo is max(floor, ForcedStaleness), the
// bound never above hi.
func FuzzForcedStaleness(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		raw := make([]byte, 4*(seed%24))
		for i := range raw {
			raw[i] = byte(seed*31 + int64(i)*17)
		}
		f.Add(seed, raw)
	}
	// A write finishing exactly when a read starts is not forced before it:
	// w1 [0,10], w2 [20,30] | [40,50], then a read of w1 at 30 | 50.
	f.Add(int64(0), []byte{0, 1, 0, 12, 0, 2, 20, 12, 1, 1, 30, 12})
	f.Add(int64(0), []byte{0, 1, 0, 12, 0, 2, 40, 12, 1, 1, 50, 12})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		u := uint64(seed)
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 1 + int(u%120), Concurrency: 1 + int(u/7%6),
			StalenessDepth: int(u / 3 % 5), ReadFraction: 0.6,
		})
		if seed%2 != 0 {
			h = generator.InjectStaleness(h, seed, 0.3, 1+int(u/5%3))
		}
		dense, err := history.Build(h)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		var stale history.StalenessScratch
		check := func(what string, p *history.Prepared) {
			t.Helper()
			forced := bruteForcedPrepared(p)
			if got := history.ForcedStaleness(p); got != forced {
				t.Fatalf("seed %d, %s (%d ops): ForcedStaleness=%d, by definition %d", seed, what, p.Len(), got, forced)
			}
			hi := bruteByFinish(p)
			for _, floor := range []int{1, 3} {
				wantLo := max(floor, forced)
				if lo, got := history.StalenessBracket(p, &stale, floor); lo != wantLo || got != hi || forced > hi {
					t.Fatalf("seed %d, %s (%d ops), floor %d: StalenessBracket=[%d, %d], by definition [%d, %d]",
						seed, what, p.Len(), floor, lo, got, wantLo, hi)
				}
			}
			if err := witness.Validate(p, byFinishOrder(p), hi); err != nil {
				t.Fatalf("seed %d, %s (%d ops): the by-finish order is no %d-atomic witness: %v", seed, what, p.Len(), hi, err)
			}
		}
		check("dense", dense)
		offset := int64(-1) << 62
		if seed%3 == 0 {
			offset = 1 << 61
		}
		sparse, err := history.Prepare(remapped(dense, 1000+int64(u%7), offset))
		if err != nil {
			t.Fatalf("strict Prepare: %v", err)
		}
		check("sparse", sparse)
		lo := 0
		for _, cut := range append(zone.Cuts(dense), dense.Len()) {
			view, err := history.SubPrepared(dense, lo, cut, nil)
			if err != nil {
				t.Fatalf("SubPrepared [%d,%d): %v", lo, cut, err)
			}
			check(fmt.Sprintf("view [%d,%d)", lo, cut), view)
			lo = cut
		}

		// The raw variant: four bytes an operation — kind, value, start, length.
		var ops []history.Operation
		for i := 0; i+4 <= len(raw); i += 4 {
			kind := history.KindWrite
			if raw[i]&1 != 0 {
				kind = history.KindRead
			}
			start := int64(raw[i+2] % 64)
			ops = append(ops, history.Operation{ID: len(ops), Kind: kind, Value: int64(raw[i+1] % 6),
				Start: start, Finish: start + int64(raw[i+3]%14) - 2})
		}
		if len(ops) == 0 {
			return
		}
		// A read's dictating write is the first write of its value.
		want := bruteForced(ops, func(i int) (int, bool) {
			for w, op := range ops {
				if op.IsWrite() && op.Value == ops[i].Value {
					return w, true
				}
			}
			return -1, false
		})
		if got := history.Measure(history.New(ops)).ForcedStaleness; got != want {
			t.Fatalf("raw %v: Measure.ForcedStaleness=%d, by definition %d", ops, got, want)
		}
	})
}

// TestForcedStalenessScratchZeroAlloc: on a warm scratch the sweep allocates
// nothing, on Build's dense ranks and on sparse raw timestamps alike.
func TestForcedStalenessScratchZeroAlloc(t *testing.T) {
	dense, err := history.Build(generator.KAtomic(generator.Config{
		Seed: 5, Ops: 2000, Concurrency: 4, StalenessDepth: 2, ReadFraction: 0.6,
	}))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sparse, err := history.Prepare(remapped(dense, 1000, 0))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	var s history.StalenessScratch
	for name, p := range map[string]*history.Prepared{"dense": dense, "sparse": sparse} {
		want := history.ForcedStalenessScratch(p, &s)
		if want != bruteForcedPrepared(p) || want < 2 {
			t.Fatalf("%s: ForcedStaleness=%d, by definition %d", name, want, bruteForcedPrepared(p))
		}
		allocs := testing.AllocsPerRun(10, func() {
			if got := history.ForcedStalenessScratch(p, &s); got != want {
				t.Fatalf("%s: %d, then %d", name, want, got)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op on a warm scratch, want 0", name, allocs)
		}
	}
}

func TestMeasureReportsForcedStaleness(t *testing.T) {
	h := history.MustParse("w 1 0 10; w 2 20 30; w 3 40 50; r 1 60 70")
	if got := history.Measure(h).ForcedStaleness; got != 3 {
		t.Errorf("Measure.ForcedStaleness=%d, want 3", got)
	}
	// Dangling reads are skipped, not fatal.
	h = history.MustParse("r 9 0 10; w 1 20 30")
	if got := history.Measure(h).ForcedStaleness; got != 1 {
		t.Errorf("anomalous Measure.ForcedStaleness=%d, want 1", got)
	}
}

// PrepareInPlaceScratch must produce the same index as Prepare, across
// reuses of one scratch by differently-sized histories.
func TestPrepareInPlaceScratchMatchesPrepare(t *testing.T) {
	var s history.PrepareScratch
	for seed := int64(0); seed < 12; seed++ {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 30 + int(seed*17)%120, Concurrency: 1 + int(seed%4),
			StalenessDepth: int(seed % 3),
		})
		want, err := history.Prepare(h)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		got, err := history.PrepareInPlaceScratch(h.Clone(), &s)
		if err != nil {
			t.Fatalf("PrepareInPlaceScratch: %v", err)
		}
		if !reflect.DeepEqual(want.H.Ops, got.H.Ops) {
			t.Fatalf("seed %d: ops differ", seed)
		}
		if !reflect.DeepEqual(want.DictatingWrite, got.DictatingWrite) {
			t.Fatalf("seed %d: DictatingWrite differs", seed)
		}
		if len(want.DictatedReads) != len(got.DictatedReads) {
			t.Fatalf("seed %d: DictatedReads length differs", seed)
		}
		for i := range want.DictatedReads {
			a, b := want.DictatedReads[i], got.DictatedReads[i]
			if len(a) != len(b) || (len(a) > 0 && !reflect.DeepEqual(a, b)) {
				t.Fatalf("seed %d: DictatedReads[%d] differs: %v vs %v", seed, i, a, b)
			}
		}
	}
}

func TestPrepareInPlaceScratchReportsAnomalies(t *testing.T) {
	var s history.PrepareScratch
	h := history.MustParse("w 1 0 10; r 2 20 30")
	if _, err := history.PrepareInPlaceScratch(history.NormalizeInPlace(h), &s); err == nil {
		t.Fatal("dangling read not reported")
	}
	// The scratch must still work after an error.
	ok := history.MustParse("w 1 0 10; r 1 20 30")
	p, err := history.PrepareInPlaceScratch(history.NormalizeInPlace(ok), &s)
	if err != nil || p.Len() != 2 {
		t.Fatalf("scratch unusable after error: %v", err)
	}
}

func TestNormalizeInPlaceMatchesNormalize(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h := generator.Random(generator.Config{Seed: seed, Ops: 60, Concurrency: 3})
		want := history.Normalize(h)
		cp := h.Clone()
		got := history.NormalizeInPlace(cp)
		if got != cp {
			t.Fatal("NormalizeInPlace did not return its argument")
		}
		if !reflect.DeepEqual(want.Ops, got.Ops) {
			t.Fatalf("seed %d: NormalizeInPlace diverges from Normalize", seed)
		}
	}
}

func TestParseReaderMatchesParse(t *testing.T) {
	text := "# header\nw 1 0 10; r 1 20 30\n\nw 2 40 50 weight=3 # trailing\nr 2 60 70 client=4\n"
	want, err := history.Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got, err := history.ParseReader(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseReader: %v", err)
	}
	if !reflect.DeepEqual(want.Ops, got.Ops) {
		t.Fatalf("ParseReader diverges:\n%v\nvs\n%v", want.Ops, got.Ops)
	}
	if _, err := history.ParseReader(strings.NewReader("w 1 0")); err == nil {
		t.Fatal("short operation not rejected")
	}
}

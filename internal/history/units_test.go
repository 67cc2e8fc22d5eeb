package history

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// rawCuts is the cut pass's definition spelled out quadratically: the
// positions i where every earlier operation finishes strictly before ops[i]
// starts and no read at or after i returns a value written before i.
func rawCuts(ops []Operation) []int {
	var cuts []int
	for i := 1; i < len(ops); i++ {
		quiet := true
		for _, op := range ops[:i] {
			quiet = quiet && op.Finish < ops[i].Start
		}
		for _, r := range ops[i:] {
			for _, w := range ops[:i] {
				quiet = quiet && !(r.Kind == KindRead && w.Kind == KindWrite && w.Value == r.Value)
			}
		}
		if quiet {
			cuts = append(cuts, i)
		}
	}
	return cuts
}

// preparedSafeCut is zone.SafeCut on a prepared history, which this package
// cannot import.
func preparedSafeCut(p *Prepared, i int) bool {
	for _, op := range p.H.Ops[:i] {
		if op.Finish >= p.H.Ops[i].Start {
			return false
		}
	}
	for _, w := range p.DictatingWrite[i:] {
		if w >= 0 && w < i {
			return false
		}
	}
	return true
}

// checkSafeUnits holds SafeUnits on ops to its definition: it declines
// exactly the histories out of start order or that Build rejects; at floor 1
// its boundaries are rawCuts, each a safe cut of the prepared history; at a
// larger floor they are some of those, every run but a lone one at least
// floor long.
func checkSafeUnits(t *testing.T, s *PrepareScratch, ops []Operation) {
	t.Helper()
	h := New(ops)
	for i := range h.Ops {
		h.Ops[i].ID = i // as the offline check hands a run to the builder
	}
	sorted := slices.IsSortedFunc(ops, func(a, b Operation) int { return cmp.Compare(a.Start, b.Start) })
	p, err := new(PrepareScratch).Build(h.Clone())
	prefix := [][2]int{{-1, -1}}
	for _, floor := range []int{1, 3, 16} {
		units, ok := s.SafeUnits(ops, floor, prefix)
		if want := sorted && err == nil; ok != want {
			t.Fatalf("floor %d: ok = %v, want %v (sorted %v, Build error %v)\nops: %+v", floor, ok, want, sorted, err, ops)
		}
		if !ok {
			if len(units) != 1 {
				t.Fatalf("declined, but units grew to %v", units)
			}
			continue
		}
		if len(units) < 2 || units[0] != prefix[0] {
			t.Fatalf("floor %d: units %v do not extend the prefix", floor, units)
		}
		units = units[1:]
		var bounds []int
		for j, u := range units {
			if j == 0 && u[0] != 0 || j > 0 && u[0] != units[j-1][1] || u[1] < u[0] {
				t.Fatalf("floor %d: units %v do not tile [0, %d)", floor, units, len(ops))
			}
			if len(units) > 1 && u[1]-u[0] < floor {
				t.Fatalf("floor %d: run %v under the floor in %v", floor, u, units)
			}
			if j > 0 {
				bounds = append(bounds, u[0])
			}
		}
		if last := units[len(units)-1][1]; last != len(ops) {
			t.Fatalf("floor %d: units %v end at %d of %d", floor, units, last, len(ops))
		}
		want := rawCuts(ops)
		for _, c := range bounds {
			if !slices.Contains(want, c) || !preparedSafeCut(p, c) {
				t.Fatalf("floor %d: boundary %d is not a safe cut (raw cuts %v)\nops: %+v", floor, c, want, ops)
			}
		}
		if floor == 1 && !slices.Equal(bounds, want) {
			t.Fatalf("floor 1: boundaries %v, raw cuts %v\nops: %+v", bounds, want, ops)
		}
	}
}

// TestSafeUnitsMatchDefinition runs checkSafeUnits on one reused scratch over
// the builder's fuzz shapes (anomalies, ties, unsorted starts, the int64
// ends) and over clean start-ordered histories with long writes.
func TestSafeUnitsMatchDefinition(t *testing.T) {
	var s PrepareScratch
	rng := rand.New(rand.NewSource(44))
	buf := make([]byte, 1+5*48)
	for i := 0; i < 3000; i++ {
		rng.Read(buf)
		if i%4 != 0 {
			buf[0] |= 2 // sorted by start
		}
		checkSafeUnits(t, &s, opsFromBytes(buf[:1+5*rng.Intn(49)]))
	}
	for seed := int64(0); seed < 100; seed++ {
		checkSafeUnits(t, &s, cleanOps(rand.New(rand.NewSource(seed)), 1+int(seed)))
	}
	// Hand-made: a gap a read reaches back across, a gap where endpoints
	// only touch, and a read that starts before its write.
	for _, text := range []string{
		"w 1 0 10; r 1 20 30; w 2 40 50; r 1 60 70; w 3 80 90",
		"w 1 0 10; r 1 10 20; w 2 20 30",
		"w 1 0 10; r 2 11 30; w 2 12 20; r 2 40 50",
		"",
	} {
		checkSafeUnits(t, &s, MustParse(text).Ops)
	}
}

package history

import (
	"math/rand"
	"slices"
	"testing"
)

// rawCuts is the cut pass's definition spelled out quadratically, for ops in
// any order: the positions i where every operation before i finishes strictly
// before every operation at or after i starts, and no read at or after i
// returns a value written before i.
func rawCuts(ops []Operation) []int {
	var cuts []int
	for i := 1; i < len(ops); i++ {
		quiet := true
		for _, a := range ops[:i] {
			for _, b := range ops[i:] {
				quiet = quiet && a.Finish < b.Start
				quiet = quiet && !(b.Kind == KindRead && a.Kind == KindWrite && a.Value == b.Value)
			}
		}
		if quiet {
			cuts = append(cuts, i)
		}
	}
	return cuts
}

// preparedSafeCut is zone.SafeCut on a prepared history, which this package
// cannot import. The builder sorts by start, so a real-time cut at i of the
// raw operations is at i in the prepared history too.
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
// exactly the histories Build rejects, and then hands back the one run
// [0, n); at floor 1 its boundaries are rawCuts, each a safe cut of the
// prepared history; at a larger floor they are some of those, every run but a
// lone one at least floor long.
func checkSafeUnits(t *testing.T, s *PrepareScratch, ops []Operation) {
	t.Helper()
	h := New(ops)
	for i := range h.Ops {
		h.Ops[i].ID = i // as the offline check hands a run to the builder
	}
	p, err := new(PrepareScratch).Build(h.Clone())
	prefix := [][2]int{{-1, -1}}
	for _, floor := range []int{1, 3, 16} {
		units, ok := s.SafeUnits(ops, floor, prefix)
		if want := err == nil; ok != want {
			t.Fatalf("floor %d: ok = %v, want %v (Build error %v)\nops: %+v", floor, ok, want, err, ops)
		}
		if !ok {
			if !slices.Equal(units, [][2]int{prefix[0], {0, len(ops)}}) {
				t.Fatalf("declined, but units are %v, not the prefix and [0, %d)", units, len(ops))
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
// ends), over clean start-ordered histories with long writes, and over those
// again with the operations shuffled inside each quiescent segment, which
// leaves them out of start order with their cuts in place.
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
		rng := rand.New(rand.NewSource(seed))
		ops := cleanOps(rng, 1+int(seed))
		checkSafeUnits(t, &s, ops)
		shuffleSegments(rng, ops)
		checkSafeUnits(t, &s, ops)
	}
	// Hand-made: a gap a read reaches back across, a gap where endpoints
	// only touch, a read that starts before its write; out of start order, a
	// cut the set keeps, a cut a later operation's start retracts, and a read
	// listed after its write that finishes before the write starts.
	for _, text := range []string{
		"w 1 0 10; r 1 20 30; w 2 40 50; r 1 60 70; w 3 80 90",
		"w 1 0 10; r 1 10 20; w 2 20 30",
		"w 1 0 10; r 2 11 30; w 2 12 20; r 2 40 50",
		"w 1 0 10; r 1 20 30; w 3 80 90; w 2 40 50; r 2 60 70",
		"w 1 0 10; w 2 20 30; w 3 5 8",
		"w 1 50 60; r 1 0 10",
		"",
	} {
		checkSafeUnits(t, &s, MustParse(text).Ops)
	}
}

// shuffleSegments shuffles ops, in start order, inside each of its raw
// quiescent segments, so the list leaves start order but every cut of the
// operation set stays at its position.
func shuffleSegments(rng *rand.Rand, ops []Operation) {
	lo, maxFinish := 0, int64(0)
	for i := 0; i <= len(ops); i++ {
		if i == len(ops) || i > 0 && maxFinish < ops[i].Start {
			seg := ops[lo:i]
			rng.Shuffle(len(seg), func(a, b int) { seg[a], seg[b] = seg[b], seg[a] })
			lo = i
		}
		if i < len(ops) && (i == 0 || ops[i].Finish > maxFinish) {
			maxFinish = ops[i].Finish
		}
	}
}

package fzf

import (
	"slices"
	"testing"

	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/zone"
)

// The differential reference for Assemble: the Stage 3 it replaced, kept as
// it was — every chunk and dangling cluster as an element carrying its low
// endpoint, chunks first, stably sorted by low and concatenated.

// refElement is the old element.
type refElement struct {
	low   int64
	write int
	order []int
}

// refAssemble is the old Assemble: elements built from dec and orders, then
// the old assemble.
func refAssemble(p *history.Prepared, dec zone.Decomposition, orders [][]int, buf []int) []int {
	elements := make([]refElement, 0, len(dec.Chunks)+len(dec.Dangling))
	for i, ch := range dec.Chunks {
		elements = append(elements, refElement{low: ch.Lo, write: -1, order: orders[i]})
	}
	for _, w := range dec.Dangling {
		elements = append(elements, refElement{low: clusterLow(p, w), write: w})
	}
	slices.SortStableFunc(elements, func(a, b refElement) int {
		switch {
		case a.low < b.low:
			return -1
		case a.low > b.low:
			return 1
		}
		return 0
	})
	for _, e := range elements {
		if e.write >= 0 {
			buf = append(buf, e.write)
			buf = append(buf, p.DictatedReads[e.write]...)
		} else {
			buf = append(buf, e.order...)
		}
	}
	return buf
}

// TestAssembleMatchesStableSort holds the merged witness to the stable-sorted
// one, element for element: through CheckScratch, and through Assemble over
// CheckChunk orders, on 2-atomic histories with dangling clusters, and on a
// hand-built decomposition whose chunk Lo ties a dangling cluster's low (a
// prepared history has distinct endpoints, so no decomposition of one ties).
func TestAssembleMatchesStableSort(t *testing.T) {
	s, cs := NewScratch(), NewScratch()
	var zs zone.Scratch
	withDangling := 0
	for conc := 2; conc <= 8; conc++ {
		for depth := 1; depth <= 2; depth++ {
			for seed := int64(0); seed < 8; seed++ {
				h := generator.KAtomic(generator.Config{Seed: seed, Ops: 300, Concurrency: conc, StalenessDepth: depth, ReadFraction: 0.6})
				p, err := history.Prepare(h)
				if err != nil {
					t.Fatalf("c=%d d=%d seed %d: Prepare: %v", conc, depth, seed, err)
				}
				res := CheckScratch(p, s)
				if !res.Atomic {
					continue // depth 2 is not always 2-atomic
				}
				if err := SelfCheck(p, res); err != nil {
					t.Fatalf("c=%d d=%d seed %d: witness: %v", conc, depth, seed, err)
				}
				if res.Dangling > 0 {
					withDangling++
				}
				dec := zone.DecomposeScratch(p, &zs)
				orders := make([][]int, len(dec.Chunks))
				for i, ch := range dec.Chunks {
					ord, _, _ := CheckChunk(p, ch, cs)
					orders[i] = slices.Clone(ord)
				}
				want := refAssemble(p, dec, orders, nil)
				if !slices.Equal(res.Witness, want) {
					t.Fatalf("c=%d d=%d seed %d: CheckScratch witness\n%v\nstable sort\n%v", conc, depth, seed, res.Witness, want)
				}
				if got := Assemble(p, dec, orders, nil); !slices.Equal(got, want) {
					t.Fatalf("c=%d d=%d seed %d: Assemble\n%v\nstable sort\n%v", conc, depth, seed, got, want)
				}
			}
		}
	}
	if withDangling == 0 {
		t.Fatal("no generated history had a dangling cluster")
	}

	// A backward cluster alone and a forward one after it; the chunk's Lo is
	// set just before, onto and just after the dangling cluster's low.
	p := prep(t, "w 1 0 10\nr 1 5 20\nw 2 30 40\nr 2 50 60\n")
	dec := zone.Decompose(p)
	if len(dec.Chunks) != 1 || len(dec.Dangling) != 1 {
		t.Fatalf("decomposition %+v, want one chunk and one dangling cluster", dec)
	}
	low := clusterLow(p, dec.Dangling[0])
	ord, _, _ := CheckChunk(p, dec.Chunks[0], cs)
	orders := [][]int{slices.Clone(ord)}
	for _, lo := range []int64{low - 1, low, low + 1} {
		dec.Chunks[0].Lo = lo
		got, want := Assemble(p, dec, orders, nil), refAssemble(p, dec, orders, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("chunk Lo %d: Assemble %v, stable sort %v", lo, got, want)
		}
		if chunkFirst := got[0] == orders[0][0]; chunkFirst != (lo <= low) {
			t.Fatalf("chunk Lo %d against dangling low %d: witness %v", lo, low, got)
		}
	}
}

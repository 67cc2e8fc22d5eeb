package zone

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kat/internal/generator"
	"kat/internal/history"
)

// decompositionsEqual compares two decompositions structurally.
func decompositionsEqual(t *testing.T, a, b Decomposition) bool {
	t.Helper()
	if len(a.Chunks) != len(b.Chunks) || len(a.Dangling) != len(b.Dangling) {
		t.Logf("shape differs: %d/%d chunks, %d/%d dangling",
			len(a.Chunks), len(b.Chunks), len(a.Dangling), len(b.Dangling))
		return false
	}
	for i := range a.Chunks {
		ca, cb := a.Chunks[i], b.Chunks[i]
		if ca.Lo != cb.Lo || ca.Hi != cb.Hi {
			t.Logf("chunk %d interval differs: [%d,%d] vs [%d,%d]", i, ca.Lo, ca.Hi, cb.Lo, cb.Hi)
			return false
		}
		if len(ca.Forward) != len(cb.Forward) || len(ca.Backward) != len(cb.Backward) {
			t.Logf("chunk %d member counts differ", i)
			return false
		}
		for j := range ca.Forward {
			if ca.Forward[j] != cb.Forward[j] {
				t.Logf("chunk %d forward member %d differs: %d vs %d", i, j, ca.Forward[j], cb.Forward[j])
				return false
			}
		}
		for j := range ca.Backward {
			if ca.Backward[j] != cb.Backward[j] {
				t.Logf("chunk %d backward member %d differs: %d vs %d", i, j, ca.Backward[j], cb.Backward[j])
				return false
			}
		}
	}
	for i := range a.Dangling {
		if a.Dangling[i] != b.Dangling[i] {
			t.Logf("dangling %d differs: %d vs %d", i, a.Dangling[i], b.Dangling[i])
			return false
		}
	}
	return true
}

// TestPropertyDecomposeScratchEquivalent checks that the allocation-free
// DecomposeScratch produces exactly the Decomposition of the reference
// Decompose on arbitrary histories — chunk intervals, member lists in order,
// and dangling clusters — including across scratch reuse (stale buffer
// contents from a previous, differently-shaped history must not leak).
func TestPropertyDecomposeScratchEquivalent(t *testing.T) {
	s := &Scratch{} // deliberately shared across all iterations
	prop := func(qh generator.QuickHistory) bool {
		p, err := history.Prepare(qh.H)
		if err != nil {
			return false
		}
		want := Decompose(p)
		got := DecomposeScratch(p, s)
		if !decompositionsEqual(t, want, got) {
			return false
		}
		// Idempotence under immediate reuse with the same input.
		again := DecomposeScratch(p, s)
		return decompositionsEqual(t, want, again)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// TestDecomposeChunkBoundaryEdgeCases pins the boundary semantics of chunk
// formation on hand-built zone lists: adjacent (non-overlapping) forward
// zones split into separate chunks, strictly overlapping ones merge,
// backward zones assign by closed-interval nesting, and single-cluster
// chunks (the smallest work units of the chunk scheduler) form correctly.
func TestDecomposeChunkBoundaryEdgeCases(t *testing.T) {
	fz := func(w int, lo, hi int64) Zone { return Zone{Write: w, MinFinish: lo, MaxStart: hi} }
	bz := func(w int, lo, hi int64) Zone { return Zone{Write: w, MinFinish: hi, MaxStart: lo} }

	cases := []struct {
		name     string
		zones    []Zone
		chunks   []Chunk
		dangling []int
	}{
		{
			name:  "adjacent-forward-zones-touching-endpoints-split",
			zones: []Zone{fz(0, 0, 10), fz(1, 10, 20)},
			// z1.Low == z0.High: zones only touch, union not continuous
			// beyond a point — two chunks (merge requires strict overlap).
			chunks: []Chunk{
				{Lo: 0, Hi: 10, Forward: []int{0}},
				{Lo: 10, Hi: 20, Forward: []int{1}},
			},
		},
		{
			name:   "overlapping-forward-zones-merge",
			zones:  []Zone{fz(0, 0, 10), fz(1, 9, 20)},
			chunks: []Chunk{{Lo: 0, Hi: 20, Forward: []int{0, 1}}},
		},
		{
			name:   "nested-forward-zone-merges-without-extending",
			zones:  []Zone{fz(0, 0, 20), fz(1, 5, 15)},
			chunks: []Chunk{{Lo: 0, Hi: 20, Forward: []int{0, 1}}},
		},
		{
			name:  "backward-zone-nests-inside-chunk",
			zones: []Zone{fz(0, 0, 20), bz(1, 5, 15)},
			chunks: []Chunk{
				{Lo: 0, Hi: 20, Forward: []int{0}, Backward: []int{1}},
			},
		},
		{
			name:  "backward-zone-at-exact-chunk-bounds-nests",
			zones: []Zone{fz(0, 0, 20), bz(1, 0, 20)},
			chunks: []Chunk{
				{Lo: 0, Hi: 20, Forward: []int{0}, Backward: []int{1}},
			},
		},
		{
			name:     "backward-zone-straddling-chunk-edge-dangles",
			zones:    []Zone{fz(0, 0, 20), bz(1, 15, 25)},
			chunks:   []Chunk{{Lo: 0, Hi: 20, Forward: []int{0}}},
			dangling: []int{1},
		},
		{
			name:     "backward-zone-in-gap-dangles",
			zones:    []Zone{fz(0, 0, 10), fz(1, 30, 40), bz(2, 15, 25)},
			chunks:   []Chunk{{Lo: 0, Hi: 10, Forward: []int{0}}, {Lo: 30, Hi: 40, Forward: []int{1}}},
			dangling: []int{2},
		},
		{
			name:     "only-backward-zones-all-dangle",
			zones:    []Zone{bz(0, 0, 10), bz(1, 5, 15)},
			dangling: []int{0, 1},
		},
		{
			name:  "single-op-wide-chunks-interleaved-with-backward",
			zones: []Zone{fz(0, 0, 2), bz(1, 0, 2), fz(2, 10, 12), bz(3, 11, 12)},
			chunks: []Chunk{
				{Lo: 0, Hi: 2, Forward: []int{0}, Backward: []int{1}},
				{Lo: 10, Hi: 12, Forward: []int{2}, Backward: []int{3}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := DecomposeZones(tc.zones)
			want := Decomposition{Chunks: tc.chunks, Dangling: tc.dangling}
			if !decompositionsEqual(t, want, got) {
				t.Fatalf("DecomposeZones = %+v, want %+v", got, want)
			}
		})
	}
}

// TestOneAtomicMatchesCheck1Atomic: the chunk-local verdict aggregated over
// the decomposition must agree with the sequential Check1Atomic sweep on
// arbitrary histories (the k=1 leg of the chunk scheduler's equivalence).
func TestOneAtomicMatchesCheck1Atomic(t *testing.T) {
	prop := func(qh generator.QuickHistory) bool {
		p, err := history.Prepare(qh.H)
		if err != nil {
			return false
		}
		want, _ := Check1Atomic(p)
		if got := Decompose(p).OneAtomic(); got != want {
			t.Logf("chunk verdict %v, sweep %v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

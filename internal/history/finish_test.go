package history_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/zone"
)

// TestFinishOrderIsSortByFinish: the finish order a prepare leaves is the
// order a sort by finish gives — for Build (arrival order and shuffled, so
// both of its forms), for the strict Prepare on dense and on sparse times, and
// for every SubPrepared view of either: each safe-cut segment, and each run
// of segments from the start.
func TestFinishOrderIsSortByFinish(t *testing.T) {
	check := func(what string, p *history.Prepared) {
		t.Helper()
		want := make([]int, p.Len())
		for i := range want {
			want[i] = i
		}
		slices.SortFunc(want, func(a, b int) int { return cmp.Compare(p.Op(a).Finish, p.Op(b).Finish) })
		if !slices.Equal(p.ByFinish, want) {
			t.Fatalf("%s: ByFinish = %v, sorted by finish %v", what, p.ByFinish, want)
		}
	}
	var s history.PrepareScratch
	for seed := int64(0); seed < 40; seed++ {
		h := generator.KAtomic(generator.Config{
			Seed: seed, Ops: 40 + int(seed)*7, Concurrency: 1 + int(seed%5),
			StalenessDepth: int(seed % 4), ForceDepth: seed%2 == 0, ReadFraction: 0.5,
		})
		if seed%3 == 0 {
			rand.New(rand.NewSource(seed)).Shuffle(len(h.Ops), func(i, j int) { h.Ops[i], h.Ops[j] = h.Ops[j], h.Ops[i] })
		}
		built, err := history.Build(h)
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		strict, err := history.Prepare(remapped(built, 1000+seed, int64(-1)<<50))
		if err != nil {
			t.Fatalf("seed %d: strict Prepare: %v", seed, err)
		}
		for name, p := range map[string]*history.Prepared{"Build": built, "strict": strict} {
			check(fmt.Sprintf("seed %d, %s", seed, name), p)
			lo := 0
			for _, cut := range append(zone.Cuts(p), p.Len()) {
				for _, r := range [][2]int{{lo, cut}, {0, cut}} {
					view, err := history.SubPrepared(p, r[0], r[1], &s)
					if err != nil {
						t.Fatalf("seed %d, %s: SubPrepared %v: %v", seed, name, r, err)
					}
					check(fmt.Sprintf("seed %d, %s view %v", seed, name, r), view)
				}
				lo = cut
			}
		}
	}
}

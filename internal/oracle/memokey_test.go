package oracle

import (
	"testing"

	"kat/internal/history"
)

// TestMemoKeyInjective: two states with the same placed operations but
// different live-write loads must not share a memo key, or a hit on one
// prunes the other, which nobody showed infeasible, and a k-atomic history is
// called not k-atomic. It covers both ways a fixed-width key collides: two
// read writes 65 536 positions apart, placed in either order (swapped loads),
// and, under a weight bound past 2^32, a read write whose load differs by
// 2^32 depending on whether an unread write of weight 2^32 follows it.
//
// It drives the search only through newSearch, placeWrite and key, and
// lives in a file of its own, so it can be copied into an older tree of this
// package and run there as is.
func TestMemoKeyInjective(t *testing.T) {
	const gap = 1 << 16
	var ops []history.Operation
	for i := int64(0); i <= gap; i++ {
		ops = append(ops, history.Operation{Kind: history.KindWrite, Value: i + 1, Start: 10 * i, Finish: 10*i + 5})
	}
	end := int64(10 * (gap + 1))
	ops = append(ops,
		history.Operation{Kind: history.KindRead, Value: 1, Start: end, Finish: end + 5},
		history.Operation{Kind: history.KindRead, Value: gap + 1, Start: end + 10, Finish: end + 15})
	wide := []history.Operation{
		{Kind: history.KindWrite, Value: 1, Start: 0, Finish: 10, Weight: 1},
		{Kind: history.KindWrite, Value: 2, Start: 5, Finish: 30, Weight: 1 << 32},
		{Kind: history.KindRead, Value: 1, Start: 20, Finish: 40},
	}
	for _, tc := range []struct {
		name  string
		ops   []history.Operation
		bound int64
		opts  Options
		x, y  int
	}{
		{"indices 65536 apart", ops, 3, Options{}, 0, gap},
		{"loads 2^32 apart", wide, 1 << 33, Options{UseWeights: true}, 0, 1},
	} {
		p, err := history.Build(history.New(tc.ops))
		if err != nil {
			t.Fatalf("%s: Build: %v", tc.name, err)
		}
		a, b := newSearch(p, tc.bound, tc.opts), newSearch(p, tc.bound, tc.opts)
		a.placeWrite(tc.x)
		a.placeWrite(tc.y)
		b.placeWrite(tc.y)
		b.placeWrite(tc.x)
		if string(a.key()) == string(b.key()) {
			t.Errorf("%s: writes %d,%d and %d,%d placed in either order share a memo key", tc.name, tc.x, tc.y, tc.y, tc.x)
		}
	}
}

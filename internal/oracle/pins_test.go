package oracle_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"kat/internal/generator"
	"kat/internal/history"
	"kat/internal/oracle"
	"kat/internal/wav"
)

// searchPinsFile holds TestSearchPinned's expectations, one row a line;
// -update-pins rewrites it from the running tree.
const searchPinsFile = "testdata/search_pins.json"

var updatePins = flag.Bool("update-pins", false, "rewrite "+searchPinsFile)

// pinRow is one search's outcome: the decision, the states it explored, its
// error, and an FNV-64a digest of its witness.
type pinRow struct {
	Case    string `json:"case"`
	Bound   int64  `json:"bound"`
	Atomic  bool   `json:"atomic"`
	States  int    `json:"states"`
	Err     string `json:"err"`
	Witness string `json:"witness"`
}

// TestSearchPinned pins the search itself, not only its answers: on the
// generator shapes of core's TestLadderMatchesReferenceOrder at k = 1..6 and
// on Figure 5 bin-packing reductions around their bound, every CheckK and
// CheckWeighted call must explore the same number of states and return the
// same verdict, error and witness as when the file was recorded. Every row
// runs on one reused Scratch, so state left over from an earlier search
// shows up as a changed row.
func TestSearchPinned(t *testing.T) {
	var sc oracle.Scratch
	opts := oracle.Options{MaxStates: 200_000}
	checkK := func(p *history.Prepared, k int) (oracle.Result, error) { return oracle.CheckKScratch(p, k, opts, &sc) }
	checkW := func(p *history.Prepared, b int64) (oracle.Result, error) {
		return oracle.CheckWeightedScratch(p, b, opts, &sc)
	}

	var rows []pinRow
	add := func(name string, bound int64, res oracle.Result, err error) {
		r := pinRow{Case: name, Bound: bound, Atomic: res.Atomic, States: res.States}
		if err != nil {
			r.Err = err.Error()
		}
		if res.Atomic {
			h := fnv.New64a()
			var buf []byte
			for _, i := range res.Witness {
				buf = binary.AppendUvarint(buf, uint64(i))
			}
			h.Write(buf)
			r.Witness = fmt.Sprintf("%016x", h.Sum64())
		}
		rows = append(rows, r)
	}
	build := func(name string, h *history.History) *history.Prepared {
		p, err := history.Build(h)
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		return p
	}

	type shape struct {
		name string
		h    *history.History
	}
	var shapes []shape
	for depth := 0; depth <= 4; depth++ {
		for conc := 1; conc <= 6; conc++ {
			cfg := generator.Config{Seed: int64(100*depth + conc), Ops: 80, Concurrency: conc,
				StalenessDepth: depth, ForceDepth: conc%2 == 0, ReadFraction: 0.5}
			h := generator.KAtomic(cfg)
			shapes = append(shapes,
				shape{fmt.Sprintf("katomic d%d c%d", depth, conc), h},
				shape{fmt.Sprintf("stale d%d c%d", depth, conc), generator.InjectStaleness(h, cfg.Seed, 0.2, 1+depth%3)})
		}
	}
	for conc := 2; conc <= 6; conc += 2 {
		shapes = append(shapes, shape{fmt.Sprintf("adversarial c%d", conc),
			generator.Adversarial(generator.Config{Seed: int64(conc), Ops: 300, Concurrency: conc})})
	}
	shapes = append(shapes, shape{"lbttrap 6 2", generator.LBTTrap(6, 2)}, shape{"lbttrap 12 0", generator.LBTTrap(12, 0)})
	// All-concurrent writes, finishing in start order or nested (in reverse),
	// then sequential reads: of the first value (the search backtracks over
	// write orders), or of the first, the second and the first again (not
	// 1-atomic: the search exhausts the write subsets through the memo, and
	// the widest runs into the state budget).
	for _, w := range []int64{8, 12, 20} {
		for _, step := range []int64{1, -1} {
			for _, reads := range [][]int64{{1}, {1, 2, 1}} {
				var ops []history.Operation
				for i := int64(0); i < w; i++ {
					ops = append(ops, history.Operation{Kind: history.KindWrite, Value: i + 1, Start: i, Finish: 1000 + step*i})
				}
				for i, v := range reads {
					ops = append(ops, history.Operation{Kind: history.KindRead, Value: v, Start: 2000 + 20*int64(i), Finish: 2010 + 20*int64(i)})
				}
				shapes = append(shapes, shape{fmt.Sprintf("dense w%d step %d reads %v", w, step, reads), history.New(ops)})
			}
		}
	}
	for _, s := range shapes {
		p := build(s.name, s.h)
		for k := 1; k <= 6; k++ {
			res, err := checkK(p, k)
			add(s.name, int64(k), res, err)
		}
	}

	bps := []wav.BinPacking{
		{Sizes: []int64{2, 3}, Capacity: 5, Bins: 1},
		{Sizes: []int64{3, 3}, Capacity: 5, Bins: 1},
		{Sizes: []int64{3, 3}, Capacity: 3, Bins: 2},
		{Sizes: []int64{2, 2, 2}, Capacity: 3, Bins: 2},
	}
	for items := 2; items <= 6; items += 2 {
		sizes := make([]int64, items)
		for i := range sizes {
			sizes[i] = int64(2 + i%3)
		}
		bps = append(bps, wav.BinPacking{Sizes: sizes, Capacity: 6, Bins: 2})
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		sizes := make([]int64, 1+rng.Intn(4))
		bins, capacity := 1+rng.Intn(3), int64(2+rng.Intn(6))
		for i := range sizes {
			sizes[i] = 1 + rng.Int63n(capacity+1)
		}
		bps = append(bps, wav.BinPacking{Sizes: sizes, Capacity: capacity, Bins: bins})
	}
	for _, bp := range bps {
		red, err := wav.Reduce(bp)
		if err != nil {
			t.Fatalf("%+v: Reduce: %v", bp, err)
		}
		name := fmt.Sprintf("wav %v/%d/%d", bp.Sizes, bp.Capacity, bp.Bins)
		p := build(name, red.History)
		for b := red.Bound - 1; b <= red.Bound+1; b++ {
			res, err := checkW(p, b)
			add(name, b, res, err)
		}
	}

	var out strings.Builder
	sep := "["
	for _, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s\n%s", sep, line)
		sep = ","
	}
	out.WriteString("\n]\n")
	if *updatePins {
		if err := os.WriteFile(searchPinsFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(searchPinsFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, searchPinsFile, gl[i], wl[i])
			}
		}
		t.Fatalf("%d rows, %s has %d lines", len(rows), searchPinsFile, len(wl))
	}
}

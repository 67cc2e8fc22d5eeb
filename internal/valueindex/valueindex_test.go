package valueindex

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// Each fuzz record is one call: an opcode byte, an eight-byte value and a
// four-byte sequence number, little-endian.
const recordBytes = 13

const (
	opPut = iota
	opGet
	opReserve
	opBatch
	numOps
)

func record(op byte, v int64, seq int32) []byte {
	b := []byte{op}
	b = binary.LittleEndian.AppendUint64(b, uint64(v))
	return binary.LittleEndian.AppendUint32(b, uint32(seq))
}

// sharedHome returns n values whose home is slot 0 of a table of the given
// size: every one of them probes past the others.
func sharedHome(n, size int) []int64 {
	var x table
	x.grow(3 * size / 4)
	var vs []int64
	for v := int64(-1 << 20); len(vs) < n; v++ {
		if x.home(v) == 0 {
			vs = append(vs, v)
		}
	}
	return vs
}

// table returns the index's table, made if it has none yet.
func (x *Index) table() *table {
	if x.tab == nil {
		x.tab = new(table)
	}
	return x.tab
}

// count returns the number of values the index holds.
func (x *Index) count() int {
	n := 0
	if x.tab != nil {
		n = x.tab.n
	}
	for _, r := range x.runs {
		n += int(r.count)
	}
	return n
}

// bytes returns the bytes the index holds beyond its own struct.
func (x *Index) bytes() int {
	b := cap(x.runs) * int(unsafe.Sizeof(run{}))
	if x.tab != nil {
		b += int(unsafe.Sizeof(table{})) + cap(x.tab.slots)*int(unsafe.Sizeof(slot{}))
	}
	return b
}

// window draws the values of one batch from the rng: shuffled stretches of
// consecutive values and rising values with gaps (both from the cursor
// *next), random values, stragglers just below the cursor, and duplicates of
// the window's own values and of earlier windows' (written).
func window(rng *rand.Rand, next *int64, written []int64) []int64 {
	n := 1 + rng.IntN(48)
	w := make([]int64, 0, n)
	for len(w) < n {
		switch rng.IntN(8) {
		case 0, 1, 2:
			for k := 1 + rng.IntN(16); k > 0; k-- {
				w = append(w, *next)
				*next++
			}
		case 3:
			*next += 2 + rng.Int64N(5)
			w = append(w, *next)
			*next++
		case 4:
			w = append(w, int64(rng.Uint64()))
		case 5:
			w = append(w, *next-1-rng.Int64N(64))
		case 6:
			if len(w) > 0 {
				w = append(w, w[rng.IntN(len(w))])
			}
		case 7:
			if len(written) > 0 {
				w = append(w, written[rng.IntN(len(written))])
			}
		}
	}
	rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	return w
}

// FuzzValueIndex holds the index to a map[int64]int32 over any sequence of
// single puts, batches, gets and reservations: the same answer to every call,
// the first sequence number stored for a value kept, and after the last call
// the same count and the same pairs. A batch is a window of values under one
// sequence number (see window); a record's value seeds it, and a value with
// its low bit set first moves the cursor there. The slot-count checks are the
// table's alone: growth happens wherever the sequence makes the table outgrow
// three quarters, in a put, a batch or a reservation. At the end the runs
// must be sorted, disjoint and at least two values long, and, when every
// call's sequence number was above the one before, replaying the pairs in
// checkpoint order — each sequence number's values in one Add, in ascending
// order — must rebuild the same runs.
func FuzzValueIndex(f *testing.F) {
	f.Add([]byte{})
	var seed []byte
	for _, v := range []int64{0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1} {
		seed = append(seed, record(opPut, v, 0)...)
		seed = append(seed, record(opPut, v, math.MaxInt32)...)
		seed = append(seed, record(opGet, v, 0)...)
	}
	f.Add(seed)
	seed = nil
	for i, v := range sharedHome(12, minSlots) {
		seed = append(seed, record(opPut, v, int32(i%2)*(math.MaxInt32-int32(i)))...)
		seed = append(seed, record(opGet, v+1, 0)...)
	}
	f.Add(seed)
	seed = record(opReserve, 100, 0)
	for v := int64(0); v < 200; v++ {
		seed = append(seed, record(opPut, -v, int32(v%3)*1_000_000)...)
		seed = append(seed, record(opGet, v, 0)...)
	}
	f.Add(seed)
	seed = nil
	for i := int32(0); i < 40; i++ {
		seed = append(seed, record(opBatch, int64(2*i), i)...)
		seed = append(seed, record(opGet, int64(i), 0)...)
	}
	f.Add(seed)
	seed = record(opBatch, math.MaxInt64-20, 0)
	for i := int32(1); i < 8; i++ {
		seed = append(seed, record(opBatch, int64(2*i), i)...)
		seed = append(seed, record(opPut, math.MinInt64+int64(i), i)...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var x Index
		ref := map[int64]int32{}
		var written []int64 // ref's values in the order they were stored
		var next int64      // the batches' cursor
		last, ordered := int32(-1), true
		add := func(vs []int64, seq int32) {
			want := 0
			for _, v := range vs {
				if _, had := ref[v]; !had {
					ref[v] = seq
					written = append(written, v)
					want++
				}
			}
			ordered = ordered && seq > last
			last = seq
			if got := x.Add(slices.Clone(vs), seq); got != want {
				t.Fatalf("Add(%v, %d) stored %d, want %d", vs, seq, got, want)
			}
		}
		for ; len(data) >= recordBytes; data = data[recordBytes:] {
			v := int64(binary.LittleEndian.Uint64(data[1:]))
			seq := int32(binary.LittleEndian.Uint32(data[9:]) & math.MaxInt32)
			switch data[0] % numOps {
			case opPut:
				add([]int64{v}, seq)
			case opBatch:
				if v&1 != 0 {
					next = v
				}
				add(window(rand.New(rand.NewPCG(uint64(v), uint64(seq))), &next, written), seq)
			case opGet:
				want, wok := ref[v]
				if got, ok := x.Get(v); got != want || ok != wok {
					t.Fatalf("Get(%d) = %d, %v, want %d, %v", v, got, ok, want, wok)
				}
			case opReserve:
				n, tab := int(uint64(v)%1024), x.table()
				size := len(tab.slots)
				tab.reserve(n)
				// The next n puts must find room without growing.
				if 4*(tab.n+n) > 3*len(tab.slots) || size != len(tab.slots) && 4*(tab.n+n) <= 3*size {
					t.Fatalf("reserve(%d) with %d values: %d slots (was %d)", n, tab.n, len(tab.slots), size)
				}
			}
		}
		if got := x.count(); got != len(ref) {
			t.Fatalf("%d values counted, want %d", got, len(ref))
		}
		if tab := x.table(); 4*tab.n > 3*len(tab.slots) {
			t.Fatalf("%d values in %d slots", tab.n, len(tab.slots))
		}
		for i, r := range x.runs {
			if r.count < 2 || i > 0 && x.runs[i-1].lo+int64(x.runs[i-1].count) > r.lo {
				t.Fatalf("run %d of %v: short, or not above the one before", i, x.runs)
			}
		}
		var want [][2]int64
		for v, seq := range ref {
			want = append(want, [2]int64{v, int64(seq)})
			if got, ok := x.Get(v); !ok || got != seq {
				t.Fatalf("Get(%d) = %d, %v at the end, want %d", v, got, ok, seq)
			}
		}
		got := x.AppendPairs(nil)
		byValue := func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) }
		slices.SortFunc(got, byValue)
		slices.SortFunc(want, byValue)
		if !slices.Equal(got, want) {
			t.Fatalf("pairs %v, want %v", got, want)
		}

		// The replay a checkpoint restore makes.
		slices.SortFunc(got, func(a, b [2]int64) int { return cmp.Or(cmp.Compare(a[1], b[1]), byValue(a, b)) })
		var y Index
		for i := 0; i < len(got); {
			var vs []int64
			j := i
			for ; j < len(got) && got[j][1] == got[i][1]; j++ {
				vs = append(vs, got[j][0])
			}
			if n := y.Add(vs, int32(got[i][1])); n != len(vs) {
				t.Fatalf("replay of seq %d stored %d of %d values", got[i][1], n, len(vs))
			}
			i = j
		}
		if y.count() != len(ref) {
			t.Fatalf("replay holds %d values, want %d", y.count(), len(ref))
		}
		if ordered && !slices.Equal(y.runs, x.runs) {
			t.Fatalf("replay runs %v, want %v", y.runs, x.runs)
		}
	})
}

// TestPutAllocsOnlyToGrow pins that a lookup and a store into a table with
// room allocate nothing.
func TestPutAllocsOnlyToGrow(t *testing.T) {
	var x Index
	x.table().reserve(1 << 12)
	v := int64(0)
	vs := make([]int64, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		vs[0] = 3 * v // no two consecutive: every value goes to the table
		x.Add(vs, 1)
		x.Get(v - 7)
		v++
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per Add+Get with room reserved", allocs)
	}
}

// TestBytesPerValue bounds what the index holds per value, with each window's
// values entered in one Add: consecutive values, 64 a window, cost at most a
// byte each (one 16-byte run per window), and random values, which all go to
// the table, no more than a table of every value would, and at most 32 bytes.
func TestBytesPerValue(t *testing.T) {
	const n, per = 1 << 16, 64
	rng := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct {
		name  string
		value func(i int) int64
		limit float64
	}{
		{"consecutive", func(i int) int64 { return int64(i) }, 1},
		{"random", func(int) int64 { return int64(rng.Uint64()) }, 32},
	} {
		var x Index
		var tab table
		vs := make([]int64, per)
		for i := 0; i < n; i += per {
			for j := range vs {
				vs[j] = tc.value(i + j)
			}
			tab.reserve(per)
			for _, v := range vs {
				tab.put(v, int32(i/per))
			}
			rng.Shuffle(per, func(a, b int) { vs[a], vs[b] = vs[b], vs[a] })
			if got := x.Add(vs, int32(i/per)); got != per {
				t.Fatalf("%s: window %d stored %d of %d", tc.name, i/per, got, per)
			}
		}
		got, all := float64(x.bytes())/n, Index{tab: &tab}
		t.Logf("%s: %.2f bytes per value (%d runs); a table of every value: %.2f", tc.name, got, len(x.runs), float64(all.bytes())/n)
		if got > tc.limit || x.bytes() > all.bytes() {
			t.Fatalf("%s: %.2f bytes per value, want at most %v and at most a table's %.2f", tc.name, got, tc.limit, float64(all.bytes())/n)
		}
	}
}

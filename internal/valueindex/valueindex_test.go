package valueindex

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// Each fuzz record is one call: an opcode byte, an eight-byte value and a
// four-byte sequence number, little-endian.
const recordBytes = 13

const (
	opPut = iota
	opGet
	opReserve
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
	var x Index
	x.grow(3 * size / 4)
	var vs []int64
	for v := int64(-1 << 20); len(vs) < n; v++ {
		if x.home(v) == 0 {
			vs = append(vs, v)
		}
	}
	return vs
}

// FuzzValueIndex holds the table to a map[int64]int32 over any sequence of
// puts, gets and reservations: the same answer to every call, the first
// sequence number stored for a value kept, and after the last call the same
// length and the same pairs. Growth happens wherever the sequence makes the
// table outgrow three quarters, in Put or in Reserve.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var x Index
		ref := map[int64]int32{}
		for ; len(data) >= recordBytes; data = data[recordBytes:] {
			v := int64(binary.LittleEndian.Uint64(data[1:]))
			seq := int32(binary.LittleEndian.Uint32(data[9:]) & math.MaxInt32)
			switch data[0] % numOps {
			case opPut:
				_, had := ref[v]
				if !had {
					ref[v] = seq
				}
				if stored := x.Put(v, seq); stored == had {
					t.Fatalf("Put(%d, %d) = %v with the value present: %v", v, seq, stored, had)
				}
			case opGet:
				want, wok := ref[v]
				if got, ok := x.Get(v); got != want || ok != wok {
					t.Fatalf("Get(%d) = %d, %v, want %d, %v", v, got, ok, want, wok)
				}
			case opReserve:
				n := int(uint64(v) % 1024)
				size := len(x.slots)
				x.Reserve(n)
				// The next n Puts must find room without growing.
				if 4*(x.n+n) > 3*len(x.slots) || size != len(x.slots) && 4*(x.n+n) <= 3*size {
					t.Fatalf("Reserve(%d) with %d values: %d slots (was %d)", n, x.n, len(x.slots), size)
				}
			}
		}
		if x.n != len(ref) {
			t.Fatalf("%d values counted, want %d", x.n, len(ref))
		}
		if 4*x.n > 3*len(x.slots) {
			t.Fatalf("%d values in %d slots", x.n, len(x.slots))
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
	})
}

// TestPutAllocsOnlyToGrow pins that a lookup and a store into a table with
// room allocate nothing.
func TestPutAllocsOnlyToGrow(t *testing.T) {
	var x Index
	x.Reserve(1 << 12)
	v := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		x.Put(v, 1)
		x.Get(v - 7)
		v++
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per Put+Get with room reserved", allocs)
	}
}

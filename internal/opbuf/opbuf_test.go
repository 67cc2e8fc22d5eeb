package opbuf

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sync"
	"testing"

	"kat/internal/history"
)

// renumber gives ops the IDs Decode assigns: positions.
func renumber(ops []history.Operation) []history.Operation {
	for i := range ops {
		ops[i].ID = i
	}
	return ops
}

func pack(s *Store, ops []history.Operation) List {
	var l List
	for i := range ops {
		s.Push(&l, &ops[i])
	}
	return l
}

// opsFrom reads operations off fuzz bytes, 1 + 5×8 bytes each: the kind byte
// as it comes, every other field any 64-bit pattern, so weights at and below
// zero, negative clients, inverted intervals and timestamps at either end of
// int64 (whose deltas wrap) all occur.
func opsFrom(data []byte) []history.Operation {
	var ops []history.Operation
	for ; len(data) >= 41; data = data[41:] {
		f := func(i int) int64 { return int64(binary.LittleEndian.Uint64(data[1+8*i:])) }
		ops = append(ops, history.Operation{
			Kind: history.Kind(data[0]), Value: f(0), Start: f(1), Finish: f(2), Weight: f(3), Client: int(f(4)),
		})
	}
	return ops
}

func opBytes(ops ...history.Operation) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, byte(op.Kind))
		for _, v := range []int64{op.Value, op.Start, op.Finish, op.Weight, int64(op.Client)} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	return b
}

// FuzzOpBufRoundTrip holds the packed store to a plain slice: the operations
// the bytes spell are cut into runs where plan says, each run pushed into its
// own list, the lists spliced back in order, and the whole filtered the way a
// closing window drops its stale reads (freed and re-pushed without every
// drop-th operation); what decodes equals the same edits on the slice, field
// for field, and every chunk comes back when the lists are freed.
func FuzzOpBufRoundTrip(f *testing.F) {
	w := history.Operation{Kind: history.KindWrite, Value: 7, Start: 100, Finish: 110}
	r := history.Operation{Kind: history.KindRead, Value: 7, Start: 120, Finish: 125, Client: -3}
	ends := history.Operation{Kind: history.KindWrite, Value: math.MinInt64, Start: math.MaxInt64, Finish: math.MinInt64, Weight: -1, Client: math.MinInt}
	odd := history.Operation{Kind: 200, Value: -1, Start: math.MinInt64, Finish: math.MaxInt64, Weight: 5}
	f.Add(opBytes(), []byte{}, uint8(0))
	f.Add(opBytes(w, r), []byte{1}, uint8(2))
	f.Add(opBytes(ends, odd, ends, w, odd), []byte{0, 2, 0}, uint8(3))
	var mixed, plain []history.Operation
	for i := 0; i < 40; i++ {
		mixed = append(mixed, w, r, ends)
		plain = append(plain, w, w, w, w, w)
	}
	f.Add(opBytes(mixed...), []byte{30, 1, 60}, uint8(5))
	f.Add(opBytes(plain...), []byte{25, 25, 25, 100}, uint8(1))
	f.Fuzz(func(t *testing.T, data, plan []byte, drop uint8) {
		ops := opsFrom(data)
		var s Store
		var all List
		rest := ops
		for _, cut := range plan {
			n := min(int(cut), len(rest))
			l := pack(&s, rest[:n])
			if l.Len() != n {
				t.Fatalf("run of %d operations has Len %d", n, l.Len())
			}
			s.Splice(&all, &l)
			if l.Len() != 0 || l.Bytes() != 0 {
				t.Fatalf("spliced-from list keeps %d operations, %d bytes", l.Len(), l.Bytes())
			}
			rest = rest[n:]
		}
		tail := pack(&s, rest)
		s.Splice(&all, &tail)
		want := renumber(slices.Clone(ops))
		if got := s.Decode(&all, nil); !slices.Equal(got, want) {
			t.Fatalf("spliced lists decode to\n%v\nwant\n%v", got, want)
		}
		if drop > 0 {
			kept := want[:0:0]
			for i, op := range want {
				if i%int(drop) != 0 {
					kept = append(kept, op)
				}
			}
			s.Free(&all)
			all = pack(&s, kept)
			want = renumber(kept)
			// Decode appends: the IDs continue from what dst already holds.
			got := s.Decode(&all, make([]history.Operation, 2))[2:]
			for i := range got {
				got[i].ID -= 2
			}
			if !slices.Equal(got, want) {
				t.Fatalf("filtered list decodes to\n%v\nwant\n%v", got, want)
			}
		}
		if all.Bytes() < int64(all.Len()) || (all.Len() == 0) != (all.Bytes() == 0) {
			t.Fatalf("%d operations in %d bytes", all.Len(), all.Bytes())
		}
		s.Free(&all)
		if free := s.freeChunks(); free != max(s.total-1, 0) {
			t.Fatalf("%d of %d chunks free after every list was freed", free, s.total-1)
		}
	})
}

// freeChunks walks the free stack (quiescent stores only).
func (s *Store) freeChunks() int {
	n := 0
	for i := uint32(s.free.Load()); i != 0; i = s.chunk(i).next.Load() {
		n++
	}
	return n
}

// TestRecordBounds pins the two sizes the chunk arithmetic stands on: no
// record outgrows history.MaxRecord, and a plain operation of a running trace
// packs into about ten bytes.
func TestRecordBounds(t *testing.T) {
	// Every field, both deltas included (0 − MinInt64 wraps to MinInt64), at
	// the ten-byte zigzag.
	worst := history.Operation{Kind: 77, Value: math.MinInt64, Start: math.MinInt64, Finish: 0, Weight: math.MinInt64, Client: math.MinInt}
	if n := history.RecordLen(&worst, 0); n != history.MaxRecord {
		t.Errorf("worst-case record is %d bytes, MaxRecord %d", n, history.MaxRecord)
	}
	var s Store
	var l List
	const n = 10000
	for i := 0; i < n; i++ {
		s.Push(&l, &history.Operation{Kind: history.KindWrite + history.Kind(i%2), Value: int64(i / 2), Start: int64(40 * i), Finish: int64(40*i + 25)})
	}
	if per := float64(l.Bytes()) / n; per > 8 {
		t.Errorf("a plain operation costs %.1f bytes packed, want <= 8", per)
	}
}

// TestRecordGolden pins the record bytes a list holds, so moving or
// reworking the codec cannot change them: a write, then a read taking its
// start from the write's; a kind that is neither, its raw byte after the head;
// weight and client; a start before the previous one; and int64 extremes,
// whose deltas wrap.
func TestRecordGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []history.Operation
		hex  string
	}{
		{"write", []history.Operation{{Kind: history.KindWrite, Value: 7, Start: 100, Finish: 110}}, "800ec80114"},
		{"write then read", []history.Operation{
			{Kind: history.KindWrite, Value: 7, Start: 100, Finish: 110},
			{Kind: history.KindRead, Value: 7, Start: 120, Finish: 125},
		}, "800ec80114" + "810e280a"},
		{"other kind", []history.Operation{{Kind: 200, Value: -1, Start: 3, Finish: 4}}, "88c8010602"},
		{"weight and client", []history.Operation{{Kind: history.KindWrite, Value: 1, Start: 0, Finish: 1, Weight: 3, Client: 2}}, "860200020604"},
		{"negative client", []history.Operation{{Kind: history.KindRead, Value: 1, Start: 5, Finish: 9, Client: -3}}, "85020a0805"},
		{"negative start delta", []history.Operation{
			{Kind: history.KindWrite, Value: 1, Start: 500, Finish: 510},
			{Kind: history.KindRead, Value: 1, Start: 400, Finish: 505},
		}, "8002e80714" + "8102c701d201"},
		{"extremes", []history.Operation{
			{Kind: history.KindWrite, Value: math.MaxInt64, Start: math.MinInt64, Finish: math.MaxInt64, Weight: math.MaxInt64, Client: math.MinInt},
		}, "86" + "feffffffffffffffff01" + "ffffffffffffffffff01" + "01" + "feffffffffffffffff01" + "ffffffffffffffffff01"},
		{"extremes, wrapping", []history.Operation{
			{Kind: history.KindRead, Value: math.MinInt64, Start: math.MaxInt64, Finish: math.MinInt64},
			{Kind: history.KindWrite, Value: 0, Start: math.MinInt64, Finish: math.MinInt64, Weight: math.MinInt64, Client: math.MaxInt},
		}, "81" + "ffffffffffffffffff01" + "feffffffffffffffff01" + "02" +
			"86" + "00" + "02" + "00" + "ffffffffffffffffff01" + "feffffffffffffffff01"},
	} {
		var s Store
		l := pack(&s, tc.ops)
		if got := hex.EncodeToString(s.chunk(l.head).data[:l.fill]); got != tc.hex {
			t.Errorf("%s: records %s, want %s", tc.name, got, tc.hex)
		}
		if got, want := s.Decode(&l, nil), renumber(slices.Clone(tc.ops)); !slices.Equal(got, want) {
			t.Errorf("%s: decodes to %v, want %v", tc.name, got, want)
		}
	}
}

// TestStoreConcurrent is the engine's traffic in small: producers fill lists
// and hand them to consumers that decode and free them, so chunks cycle
// through the free stack between goroutines while others are pushing.
func TestStoreConcurrent(t *testing.T) {
	var s Store
	type batch struct {
		l    List
		base int64
	}
	const producers, rounds, per = 4, 300, 90
	ch := make(chan batch, producers)
	var wg, cwg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			var buf []history.Operation
			for b := range ch {
				buf = s.Decode(&b.l, buf[:0])
				s.Free(&b.l)
				if len(buf) != per {
					t.Errorf("decoded %d operations, want %d", len(buf), per)
					continue
				}
				for i, op := range buf {
					if op.Value != b.base+int64(i) || op.Start != b.base*3+int64(i) {
						t.Errorf("operation %d of batch %d decoded as %v", i, b.base, op)
						break
					}
				}
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b := batch{base: int64(p*rounds+r) * 1000}
				for i := 0; i < per; i++ {
					s.Push(&b.l, &history.Operation{Kind: history.KindWrite, Value: b.base + int64(i), Start: b.base*3 + int64(i), Finish: b.base*3 + int64(i) + 9})
				}
				ch <- b
			}
		}(p)
	}
	wg.Wait()
	close(ch)
	cwg.Wait()
	if free := s.freeChunks(); free != s.total-1 {
		t.Errorf("%d of %d chunks free after every list was freed", free, s.total-1)
	}
}

// BenchmarkCodec prices the codec alone, cache-resident: one 128-operation
// window pushed, decoded and freed, per operation.
func BenchmarkCodec(b *testing.B) {
	ops := make([]history.Operation, 128)
	for i := range ops {
		ops[i] = history.Operation{Kind: history.KindWrite + history.Kind(i%2), Value: int64(1000 + i/2), Start: int64(100000 + 170*i), Finish: int64(100000 + 170*i + 90)}
	}
	var s Store
	var buf []history.Operation
	b.Run("push", func(b *testing.B) {
		for i := 0; i < b.N; i += len(ops) {
			l := pack(&s, ops)
			s.Free(&l)
		}
	})
	b.Run("decode", func(b *testing.B) {
		l := pack(&s, ops)
		b.ResetTimer()
		for i := 0; i < b.N; i += len(ops) {
			buf = s.Decode(&l, buf[:0])
		}
		s.Free(&l)
	})
}

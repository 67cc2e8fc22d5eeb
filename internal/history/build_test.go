package history

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// opsFromBytes decodes a fuzz input into operations: a one-byte header
// (bit 0: IDs are indices, else taken from the data; bit 1: sort by start
// before use; bit 2: stretch the timestamps to the ends of int64; bit 3: the
// fields are literal), then five bytes per operation — kind, value, start,
// length, ID. Literal fields (value mod 16, start mod 64, a signed length)
// spell a scenario out exactly, which is how the seeds are written. The
// default decoding leans towards clean, nearly start-ordered histories, the
// shape the packed form is for — a write's value is fresh, a read returns an
// earlier write's, starts drift upwards — and reaches every anomaly through
// reserved byte values: 255 repeats a written value or reads one nobody
// wrote, 240.. reads any write including later ones, a length of 250..
// inverts the interval.
func opsFromBytes(data []byte) []Operation {
	if len(data) == 0 {
		return nil
	}
	head, data := data[0], data[1:]
	totalWrites := 0
	for d := data; len(d) >= 5; d = d[5:] {
		totalWrites += 1 - int(d[0]&1)
	}
	var ops []Operation
	writes := 0
	for ; len(data) >= 5 && len(ops) < 48; data = data[5:] {
		op := Operation{ID: len(ops), Kind: KindWrite + Kind(data[0]&1)}
		switch v := int(data[1]); {
		case head&8 != 0:
			op.Value = int64(v % 16)
		case op.Kind == KindWrite && (v < 255 || writes == 0):
			writes++
			op.Value = int64(writes)
		case op.Kind == KindWrite:
			op.Value = int64(1 + v%writes)
		case v == 255 || totalWrites == 0:
			op.Value = 1000
		case v < 240 && writes > 0:
			op.Value = int64(1 + v%writes)
		default:
			op.Value = int64(1 + v%totalWrites)
		}
		if head&8 != 0 {
			op.Start = int64(data[2] % 64)
			op.Finish = op.Start + int64(int8(data[3]))
		} else {
			op.Start = int64(len(ops)) + int64(data[2]%8)
			if op.Finish = op.Start + int64(data[3]%12); data[3] >= 250 {
				op.Finish = op.Start - int64(data[3]-249)
			}
		}
		if head&1 == 0 {
			op.ID = int(data[4] % 8)
		}
		ops = append(ops, op)
	}
	if head&2 != 0 {
		slices.SortStableFunc(ops, func(a, b Operation) int { return int(a.Start - b.Start) })
		if head&1 != 0 {
			for i := range ops {
				ops[i].ID = i
			}
		}
	}
	if head&4 != 0 {
		for i := range ops {
			ops[i].Start = stretch(ops[i].Start)
			ops[i].Finish = stretch(ops[i].Finish)
		}
	}
	return ops
}

// stretch maps small timestamps order-preservingly onto both ends of int64.
func stretch(t int64) int64 {
	if t < 32 {
		return math.MinInt64 + t + 24
	}
	return math.MaxInt64 - 128 + t
}

// bytesFromText renders a history in opsFromBytes' literal encoding (IDs =
// indices), for readable seeds.
func bytesFromText(head byte, text string) []byte {
	out := []byte{head | 9}
	for _, op := range MustParse(text).Ops {
		out = append(out, byte(op.Kind-KindWrite), byte(op.Value), byte(op.Start), byte(op.Finish-op.Start), 0)
	}
	return out
}

// sameAsReference fails unless the builder's outcome on ops — Build, and
// Normalize on its own — is the reference pipeline's: the same error text,
// or the same operations (ranks and renumbered IDs), DictatingWrite,
// DictatedReads and WriteFor of every write.
func sameAsReference(t *testing.T, ops []Operation) {
	t.Helper()
	want, wantErr := refPrepare(refNormalizeInPlace(New(ops)))
	var s PrepareScratch
	for round := 0; round < 2; round++ { // the second round on a used scratch, asked for the extremes
		s.Extremes = round == 1
		got, err := s.Build(New(ops))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Build error = %v, reference %v\nops: %+v", err, wantErr, ops)
		}
		if err != nil {
			continue
		}
		comparePrepared(t, got, want, ops)
		if s.Extremes {
			compareExtremes(t, got, ops)
		} else if got.Extremes != nil {
			t.Fatal("extremes recorded unasked")
		}
	}
	if wantErr == nil {
		// Normalize keeps order and IDs; only the timestamps are the builder's.
		n, ref := Normalize(New(ops)), refNormalizeInPlace(New(ops))
		if !reflect.DeepEqual(n.Ops, ref.Ops) {
			t.Fatalf("Normalize diverges from the reference\nops:  %+v\ngot:  %+v\nwant: %+v", ops, n.Ops, ref.Ops)
		}
	}
}

func comparePrepared(t *testing.T, got *Prepared, want *refPrepared, ops []Operation) {
	t.Helper()
	if !reflect.DeepEqual(got.H.Ops, want.H.Ops) && (len(got.H.Ops) != 0 || len(want.H.Ops) != 0) {
		t.Fatalf("operations differ\nops:  %+v\ngot:  %+v\nwant: %+v", ops, got.H.Ops, want.H.Ops)
	}
	if !slices.Equal(got.DictatingWrite, want.DictatingWrite) {
		t.Fatalf("DictatingWrite = %v, reference %v\nops: %+v", got.DictatingWrite, want.DictatingWrite, ops)
	}
	for w := range want.DictatedReads {
		if !slices.Equal(got.DictatedReads[w], want.DictatedReads[w]) {
			t.Fatalf("DictatedReads[%d] = %v, reference %v\nops: %+v", w, got.DictatedReads[w], want.DictatedReads[w], ops)
		}
	}
	for i, op := range want.H.Ops {
		gw, gok := got.WriteFor(op.Value)
		ww, wok := want.WriteFor(op.Value)
		if gw != ww || gok != wok {
			t.Fatalf("WriteFor(%d) = %d,%v, reference %d,%v (op %d)\nops: %+v", op.Value, gw, gok, ww, wok, i, ops)
		}
	}
	if _, ok := got.WriteFor(-12345); ok {
		t.Fatal("WriteFor resolved a value nobody wrote")
	}
	if !inFinishOrder(got) {
		t.Fatalf("ByFinish = %v is not the operations in finish order\nops: %+v\ngot: %+v", got.ByFinish, ops, got.H.Ops)
	}
}

// inFinishOrder reports whether p.ByFinish lists p's operations by strictly
// increasing finish: a prepared history's finishes are distinct, so that is
// every index once, in the one order a sort by finish gives.
func inFinishOrder(p *Prepared) bool {
	if len(p.ByFinish) != p.Len() {
		return false
	}
	for j := 1; j < len(p.ByFinish); j++ {
		if p.Op(p.ByFinish[j-1]).Finish >= p.Op(p.ByFinish[j]).Finish {
			return false
		}
	}
	return true
}

// compareExtremes fails unless every write's recorded extremes are its
// cluster's on the raw input: the write's start, and the minimum finish and
// maximum start over it and the reads of its value.
func compareExtremes(t *testing.T, got *Prepared, ops []Operation) {
	t.Helper()
	for w, op := range got.H.Ops {
		if !op.IsWrite() {
			continue
		}
		var want Extremes
		for _, raw := range ops {
			if raw.IsWrite() && raw.Value == op.Value {
				want = Extremes{raw.Finish, raw.Start, raw.Start}
			}
		}
		for _, raw := range ops {
			if raw.IsRead() && raw.Value == op.Value {
				want.MinFinish, want.MaxStart = min(want.MinFinish, raw.Finish), max(want.MaxStart, raw.Start)
			}
		}
		if got.Extremes[w] != want {
			t.Fatalf("Extremes[%d] = %+v, raw cluster %+v\nops: %+v", w, got.Extremes[w], want, ops)
		}
	}
}

// strictSameAsReference is sameAsReference for the validate-only Prepare:
// tied timestamps and long writes must stay errors, with the old text.
func strictSameAsReference(t *testing.T, ops []Operation) {
	t.Helper()
	want, wantErr := refPrepare(New(ops))
	got, err := Prepare(New(ops))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("Prepare error = %v, reference %v\nops: %+v", err, wantErr, ops)
	}
	if err == nil {
		comparePrepared(t, got, want, ops)
	}
}

// FuzzPrepareEquivalence holds the builder to the pipeline it replaced
// (ref_test.go) on arbitrary operation lists, and the strict Prepare to the
// old prepare on the same un-normalized lists.
func FuzzPrepareEquivalence(f *testing.F) {
	for _, text := range []string{
		"w 1 0 10; r 1 5 20; w 2 10 20; r 2 20 30", // start/finish and finish/finish ties
		"w 1 0 10; w 2 0 12; r 1 0 14; r 2 3 14",   // start/start ties, finish/finish ties
		"w 1 5 5; r 1 5 5; w 2 7 7",                // zero-length operations
		"w 1 0 20; r 1 5 20; r 1 6 30",             // long write whose first read's finish ties its own
		"w 1 0 100; r 1 1 2; r 1 3 50",             // long write, shortened below several reads
		"w 1 5 10; r 1 2 8",                        // read starting before its write does
		"w 5 0 100; w 5 20 120; r 5 40 50",         // two writes sharing a first reader's value
		"w 1 0 10; r 2 5 20",                       // dangling read
		"w 1 20 30; r 1 0 19",                      // read-before-write by one tick
		"w 1 20 30; r 1 0 20",                      // ... and not, by a tie
		"w 1 0 10",                                 // n = 1
	} {
		for head := byte(0); head < 8; head += 2 { // as given and sorted, near zero and at the int64 ends
			f.Add(bytesFromText(head, text))
		}
	}
	f.Add([]byte{})                                                        // n = 0
	f.Add([]byte{1, 0, 1, 9, 0xfb, 0, 0, 1, 1, 3, 5, 0, 0})                // inverted write, a reader of it
	f.Add([]byte{0, 0, 1, 9, 4, 3, 0, 1, 1, 2, 9, 3, 0, 0, 2, 2, 4, 0, 0}) // unsorted starts, duplicate and zero IDs
	f.Add([]byte{2, 0, 1, 1, 4, 7, 0, 1, 1, 1, 9, 2, 0})                   // sorted, IDs != indices
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := opsFromBytes(data)
		sameAsReference(t, ops)
		strictSameAsReference(t, ops)
	})
}

// TestPrepareEquivalenceSweep is the fuzz target's property over seeded
// random histories of every shape the builder distinguishes, larger than a
// fuzz input gets.
func TestPrepareEquivalenceSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	buf := make([]byte, 1+5*48)
	for i := 0; i < 4000; i++ {
		rng.Read(buf)
		if i%2 == 0 {
			buf[0] |= 3 // sorted, IDs = indices: the packed form
		}
		if buf[0] &^= 8; i%8 == 7 {
			buf[0] |= 8 // literal fields: mostly anomalous
		}
		ops := opsFromBytes(buf[:1+5*rng.Intn(49)])
		sameAsReference(t, ops)
		strictSameAsReference(t, ops)
	}
	// Clean generator-shaped histories, shuffled: the general form must give
	// what the packed form gives.
	for seed := int64(0); seed < 200; seed++ {
		ops := cleanOps(rand.New(rand.NewSource(seed)), 1+int(seed))
		sameAsReference(t, ops)
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		sameAsReference(t, ops)
	}
}

// cleanOps returns n anomaly-free operations in start order with coarse,
// tie-heavy timestamps and some long writes.
func cleanOps(rng *rand.Rand, n int) []Operation {
	var ops []Operation
	var writes []Operation
	for i := 0; i < n; i++ {
		start := int64(i/3) * 2
		op := Operation{ID: i, Kind: KindWrite, Value: int64(len(writes) + 1), Start: start, Finish: start + int64(rng.Intn(12))}
		if len(writes) > 0 && rng.Intn(3) > 0 {
			w := writes[rng.Intn(len(writes))]
			op.Kind, op.Value = KindRead, w.Value
		} else {
			writes = append(writes, op)
		}
		ops = append(ops, op)
	}
	return ops
}

// TestBuildLargeIndices drives the packed form past one table resize and
// through a scratch that has seen a larger history.
func TestBuildLargeIndices(t *testing.T) {
	var s PrepareScratch
	for _, n := range []int{5000, 64, 700} {
		ops := cleanOps(rand.New(rand.NewSource(int64(n))), n)
		want, err := refPrepare(refNormalizeInPlace(New(ops)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Build(New(ops))
		if err != nil {
			t.Fatal(err)
		}
		comparePrepared(t, got, want, nil)
	}
}

func ExamplePrepareScratch_Build() {
	var s PrepareScratch
	p, err := s.Build(MustParse("w 1 0 100; r 1 10 20; w 2 100 110"))
	fmt.Println(err)
	for _, op := range p.H.Ops {
		fmt.Println(op)
	}
	// Output:
	// <nil>
	// w 1 0 2
	// r 1 1 3
	// w 2 4 5
}

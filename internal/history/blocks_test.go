package history

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// refParseKeyed is the serial keyed parser: one pass of ScanText, each
// operation appended to its key's history as it comes, its ID its position
// there. FuzzParseReaderEquivalence holds the block pipeline to it.
func refParseKeyed(r io.Reader) (map[string]*History, error) {
	keys := make(map[string]*History)
	err := ScanText(r, true, func(key []byte, op Operation) error {
		h, ok := keys[string(key)]
		if !ok {
			h = &History{}
			keys[string(key)] = h
		}
		op.ID = len(h.Ops)
		h.Ops = append(h.Ops, op)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// interleavedTrace is a clean keyed trace whose keys take turns line by line.
func interleavedTrace(keys, perKey int) string {
	var b strings.Builder
	for i := 0; i < perKey; i++ {
		for k := 0; k < keys; k++ {
			op := Operation{Kind: KindWrite, Value: int64(i), Start: int64(10 * i), Finish: int64(10*i + 5)}
			if i%3 == 2 {
				op.Kind, op.Value, op.Client = KindRead, int64(i-1), k
			}
			b.Write(AppendOpText(nil, fmt.Sprintf("key-%03d", k), op))
		}
	}
	return b.String()
}

// spanningTrace is a keyed trace whose hot key has an operation on every
// other line, so in blocks of a few lines it spans every block: writes with
// weight=, reads with client= of either sign, starts that fall back and leap
// from one operation to the next and so across block boundaries, and int64
// extremes in every numeric field.
func spanningTrace() string {
	var b strings.Builder
	starts := []int64{5, 3, math.MinInt64, math.MaxInt64 - 1, -7, 1 << 40, 0, math.MinInt64 + 1}
	for i := 0; i < 24; i++ {
		s := starts[i%len(starts)]
		op := Operation{Kind: KindWrite, Value: int64(i), Start: s, Finish: s + 1, Weight: int64(i % 3)}
		if i%4 == 3 {
			op = Operation{Kind: KindRead, Value: int64(i - 1), Start: s, Finish: math.MaxInt64, Client: 2 - i%5}
		}
		b.Write(AppendOpText(nil, "hot", op))
		cold := Operation{Kind: KindWrite, Value: math.MinInt64 + int64(i), Start: -s, Finish: math.MaxInt64, Client: math.MinInt}
		b.Write(AppendOpText(nil, fmt.Sprintf("k%d", i%3), cold))
	}
	return b.String()
}

// FuzzParseReaderEquivalence holds the block pipeline behind the offline
// keyed reader (trace.ParseReader) to the serial parser over arbitrary bytes,
// cut into blocks of 1 to 256 bytes and scanned by the caller and 0 to 3 more
// goroutines: the same keys, operations and IDs, or the same error word for
// word, segment number included.
func FuzzParseReaderEquivalence(f *testing.F) {
	clean := interleavedTrace(7, 40)
	for _, seed := range append(scanEquivalenceSeeds(), clean, clean+"w key-001 5 0\n"+clean) {
		f.Add([]byte(seed), uint8(len(seed)/3), uint8(1))
		f.Add([]byte(seed), uint8(15), uint8(3))
	}
	// The hot key decoded from 12 to 24 blocks, on the caller alone and with
	// helpers.
	span := []byte(spanningTrace())
	f.Add(span, uint8(60), uint8(2))
	f.Add(span, uint8(150), uint8(3))
	f.Add(span, uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, text []byte, block, workers uint8) {
		b, w := 1+int(block), int(workers)%4
		got, gerr := parseKeyed(bytes.NewReader(text), b, w)
		want, werr := refParseKeyed(bytes.NewReader(text))
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%q in %d-byte blocks, %d more goroutines: error %v, want %v", text, b, w, gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q in %d-byte blocks, %d more goroutines: histories differ", text, b, w)
		}
	})
}

// countingReader notes the most goroutines alive while it is read.
type countingReader struct {
	r    io.Reader
	most int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.most = max(c.most, runtime.NumGoroutine())
	return c.r.Read(p)
}

// failAfter yields the first n bytes of text, then fails.
func failAfter(text string, n int) io.Reader {
	return io.MultiReader(strings.NewReader(text[:n]), iotest.ErrReader(errors.New("disk gone")))
}

// TestParseReaderGoroutines: whatever the input — clean, broken in its
// first, a middle or its last block, cut off by a failing reader (after a bad
// segment too, which wins), read a byte at a time, empty, or without a final
// newline — the pipeline ends as the serial parser does, its goroutines are
// gone once it returns, and a one-block input starts none.
func TestParseReaderGoroutines(t *testing.T) {
	const block = 256
	clean := interleavedTrace(5, 60)
	lines := strings.SplitAfter(strings.TrimSuffix(clean, "\n"), "\n")
	broken := func(at int) string {
		bad := slices.Clone(lines)
		bad[at] = "w key-000 1 0\n"
		return strings.Join(bad, "")
	}
	if len(clean) < 8*block {
		t.Fatalf("trace of %d bytes spans too few blocks", len(clean))
	}
	for _, tc := range []struct {
		name    string
		in      func() io.Reader
		err     bool
		oneShot bool // one block: no goroutine started
	}{
		{name: "clean", in: func() io.Reader { return strings.NewReader(clean) }},
		{name: "bad first block", in: func() io.Reader { return strings.NewReader(broken(1)) }, err: true},
		{name: "bad middle block", in: func() io.Reader { return strings.NewReader(broken(len(lines) / 2)) }, err: true},
		{name: "bad last block", in: func() io.Reader { return strings.NewReader(broken(len(lines) - 1)) }, err: true},
		{name: "reader fails", in: func() io.Reader { return failAfter(clean, len(clean)/2) }, err: true},
		{name: "bad block, then the reader fails", in: func() io.Reader { return failAfter(broken(len(lines)/4), len(clean)/2) }, err: true},
		{name: "one byte at a time", in: func() io.Reader { return iotest.OneByteReader(strings.NewReader(clean)) }},
		{name: "empty", in: func() io.Reader { return strings.NewReader("") }, oneShot: true},
		{name: "no final newline", in: func() io.Reader { return strings.NewReader(strings.TrimSuffix(clean, "\n")) }},
		{name: "one block", in: func() io.Reader { return strings.NewReader(strings.Join(lines[:3], "")) }, oneShot: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			in := &countingReader{r: tc.in(), most: base}
			got, err := parseKeyed(in, block, 4)
			want, werr := refParseKeyed(tc.in())
			if fmt.Sprint(err) != fmt.Sprint(werr) || (err != nil) != tc.err {
				t.Fatalf("err = %v, want %v", err, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("histories differ from the serial parser's")
			}
			if tc.oneShot && in.most != base {
				t.Fatalf("%d goroutines while parsing one block, want %d", in.most, base)
			}
			if !tc.oneShot && !tc.err && in.most == base {
				t.Fatal("no worker alive while reading a many-block input")
			}
			// A worker has called Done before it exits: wait for the exit.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the parse, want %d", runtime.NumGoroutine(), base)
				}
			}
		})
	}
}

// TestParseKeyedBytesPerOp bounds what the parse allocates for a 200 000-op,
// 64-key interleaved trace: the histories it returns (56 bytes an operation)
// and not much more. Each block in flight holds its text and records, a fixed
// cost per core that 200 000 operations amortise over a few cores only, so the
// parse runs at GOMAXPROCS=2, the offline benchmark's.
func TestParseKeyedBytesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const keys, perKey = 64, 3125
	text := interleavedTrace(keys, perKey)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	hs, err := ParseKeyed(strings.NewReader(text))
	runtime.ReadMemStats(&after)
	if err != nil || len(hs) != keys {
		t.Fatalf("%d keys, err %v", len(hs), err)
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / (keys * perKey); per > 80 {
		t.Errorf("the parse allocates %.1f B/op, want <= 80", per)
	}
}

package history

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

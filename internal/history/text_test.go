package history

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// scanAll runs text through the one scanner in the given form.
func scanAll(text string, keyed bool) (keys []string, ops []Operation, err error) {
	d := TextDecoder{Keyed: keyed}
	err = d.Scan([]byte(text), func(key []byte, op Operation) error {
		keys = append(keys, string(key))
		ops = append(ops, op)
		return nil
	})
	return keys, ops, err
}

// grammarRows is the grammar, row by row, in both forms: keyed is single with
// a key column after the kind and nothing else changed. ops is what both must
// parse to; err, when set, is what both must answer after the "segment 1
// (...): " position (keyedErr where the two forms word it apart: the field
// count, which names the form's own fields).
var grammarRows = []struct {
	name          string
	single, keyed string
	ops           []Operation
	err, keyedErr string
}{
	{name: "plain", single: "w 1 0 10", keyed: "w k 1 0 10",
		ops: []Operation{{Kind: KindWrite, Value: 1, Start: 0, Finish: 10}}},
	{name: "tabs", single: "r\t1\t\t0\t10\tclient=4", keyed: "r\tk\t1\t\t0\t10\tclient=4",
		ops: []Operation{{Kind: KindRead, Value: 1, Start: 0, Finish: 10, Client: 4}}},
	{name: "upper-case kind, signed numbers", single: "W -1 -5 +10", keyed: "W k -1 -5 +10",
		ops: []Operation{{Kind: KindWrite, Value: -1, Start: -5, Finish: 10}}},
	{name: "19 digits", single: "w 1234567890123456789 -1234567890123456789 +1234567890123456789 weight=1234567890123456789",
		keyed: "w k 1234567890123456789 -1234567890123456789 +1234567890123456789 weight=1234567890123456789",
		ops: []Operation{{Kind: KindWrite, Value: 1234567890123456789, Start: -1234567890123456789,
			Finish: 1234567890123456789, Weight: 1234567890123456789}}},
	{name: "20 digits", single: "w 12345678901234567890 0 10", keyed: "w k 12345678901234567890 0 10",
		err: `value: strconv.ParseInt: parsing "12345678901234567890": value out of range`},
	{name: "attributes", single: "w 1 0 10 weight=3 client=7", keyed: "w k 1 0 10 weight=3 client=7",
		ops: []Operation{{Kind: KindWrite, Value: 1, Start: 0, Finish: 10, Weight: 3, Client: 7}}},
	{name: "attributes reordered", single: "r 1 0 10 client=-7 weight=3", keyed: "r k 1 0 10 client=-7 weight=3",
		ops: []Operation{{Kind: KindRead, Value: 1, Start: 0, Finish: 10, Weight: 3, Client: -7}}},
	{name: "attribute repeated, later wins", single: "w 1 0 10 client=1 weight=2 client=2", keyed: "w k 1 0 10 client=1 weight=2 client=2",
		ops: []Operation{{Kind: KindWrite, Value: 1, Start: 0, Finish: 10, Weight: 2, Client: 2}}},
	{name: "more than 8 fields", single: "w 1 0 10 weight=1 client=2 client=3 weight=4 client=5 weight=6",
		keyed: "w k 1 0 10 weight=1 client=2 client=3 weight=4 client=5 weight=6",
		ops:   []Operation{{Kind: KindWrite, Value: 1, Start: 0, Finish: 10, Weight: 6, Client: 5}}},
	{name: "weight=0", single: "w 1 0 10 weight=0", keyed: "w k 1 0 10 weight=0",
		err: "weight must be positive, got 0"},
	{name: "client overflow", single: "w 1 0 10 client=99999999999999999999", keyed: "w k 1 0 10 client=99999999999999999999",
		err: `attribute "client": strconv.ParseInt: parsing "99999999999999999999": value out of range`},
	{name: "malformed attribute", single: "w 1 0 10 client", keyed: "w k 1 0 10 client",
		err: `malformed attribute "client"`},
	{name: "unknown attribute", single: "w 1 0 10 color=3", keyed: "w k 1 0 10 color=3",
		err: `unknown attribute "color"`},
	{name: "unknown attribute, bad number first", single: "w 1 0 10 color=red", keyed: "w k 1 0 10 color=red",
		err: `attribute "color": strconv.ParseInt: parsing "red": invalid syntax`},
	{name: "long kind", single: "write 1 0 10", keyed: "write k 1 0 10",
		err: `unknown kind "write"`},
	{name: "bad number", single: "w 1 zero 10", keyed: "w k 1 zero 10",
		err: `start: strconv.ParseInt: parsing "zero": invalid syntax`},
	{name: "too few fields", single: "x 1 0", keyed: "x k 1 0",
		err: "want at least 4 fields (kind value start finish), got 3", keyedErr: "want kind key value start finish"},
	// Only ASCII space separates fields, so any other space is a byte of the
	// field it sits in. Where that leaves enough fields the two forms word
	// the error alike; where it does not, each counts its own.
	{name: "NBSP before an attribute", single: "w 1 0 10\u00a0client=3", keyed: "w k 1 0 10\u00a0client=3",
		err: `finish: strconv.ParseInt: parsing "10\u00a0client=3": invalid syntax`},
	{name: "U+2003 inside the numbers", single: "w 1\u20030 10 20", keyed: "w k 1\u20030 10 20",
		err: `value: strconv.ParseInt: parsing "1\u20030": invalid syntax`},
	{name: "U+0085 after the kind", single: "w\u00851 0 10 20", keyed: "w\u0085k 1 0 10 20",
		err: `unknown kind "w\u00851"`, keyedErr: `unknown kind "w\u0085k"`},
	{name: "NBSP for a separator", single: "w\u00a01 0 10", keyed: "w\u00a0k 1 0 10",
		err: "want at least 4 fields (kind value start finish), got 3", keyedErr: "want kind key value start finish"},
	// At the ends of a segment every Unicode space is trimmed, in both forms.
	{name: "non-ASCII space at segment ends", single: "\u00a0w 1 0 10\u2003;\u0085r 1 5 20 \u0085\n", keyed: "\u00a0w k 1 0 10\u2003;\u0085r k 1 5 20 \u0085\n",
		ops: []Operation{{Kind: KindWrite, Value: 1, Start: 0, Finish: 10}, {Kind: KindRead, Value: 1, Start: 5, Finish: 20}}},
	{name: "separators, comments, CRLF", single: "# head\r\nw 1 0 10; r 1 5 20 # tail; w 9 9 9\r\n;;\n\nw 2 30 40",
		keyed: "# head\r\nw k 1 0 10; r k 1 5 20 # tail; w k 9 9 9\r\n;;\n\nw k 2 30 40",
		ops: []Operation{{Kind: KindWrite, Value: 1, Start: 0, Finish: 10}, {Kind: KindRead, Value: 1, Start: 5, Finish: 20},
			{Kind: KindWrite, Value: 2, Start: 30, Finish: 40}}},
}

// TestTextGrammarOneRule holds the two forms of the text format to one
// grammar: every row parses to the same operations, or fails with the same
// words, with and without the key column.
func TestTextGrammarOneRule(t *testing.T) {
	for _, row := range grammarRows {
		t.Run(row.name, func(t *testing.T) {
			for _, keyed := range []bool{false, true} {
				text, wantErr, prefix := row.single, row.err, ""
				if keyed {
					text, prefix = row.keyed, "trace: "
					if row.keyedErr != "" {
						wantErr = row.keyedErr
					}
				}
				keys, ops, err := scanAll(text, keyed)
				if wantErr != "" {
					// Error rows are one segment, so the position is fixed.
					want := prefix + fmt.Sprintf("segment 1 (%q): ", strings.TrimSpace(text)) + wantErr
					if err == nil || err.Error() != want {
						t.Errorf("keyed=%v %q:\n got  %v\n want %s", keyed, text, err, want)
					}
					continue
				}
				if err != nil {
					t.Errorf("keyed=%v %q: %v", keyed, text, err)
					continue
				}
				if len(ops) != len(row.ops) {
					t.Errorf("keyed=%v %q: %d operations, want %d", keyed, text, len(ops), len(row.ops))
					continue
				}
				for i, op := range ops {
					wantKey := ""
					if keyed {
						wantKey = "k"
					}
					if op != row.ops[i] || keys[i] != wantKey {
						t.Errorf("keyed=%v %q: op %d = %q %+v, want %q %+v", keyed, text, i, keys[i], op, wantKey, row.ops[i])
					}
				}
			}
		})
	}
}

// textGolden pins the persisted text form: these bytes are what write-ahead
// logs, spill blobs and checkpoints on disk hold, so a line here may only
// ever be added. Every line parses to its operation; the lines marked print
// are also exactly what the printer writes for it (the others are spellings
// the parser accepts and the printer never produces).
var textGolden = []struct {
	line  string
	key   string
	op    Operation
	print bool
}{
	{"w 7 10 20\n", "", Operation{Kind: KindWrite, Value: 7, Start: 10, Finish: 20}, true},
	{"r 7 15 30\n", "", Operation{Kind: KindRead, Value: 7, Start: 15, Finish: 30}, true},
	{"w -5 -10 -1\n", "", Operation{Kind: KindWrite, Value: -5, Start: -10, Finish: -1}, true},
	{"w 9223372036854775807 -9223372036854775808 0\n", "", Operation{Kind: KindWrite, Value: 9223372036854775807, Start: -9223372036854775808}, true},
	{"w 1 0 10 weight=4\n", "", Operation{Kind: KindWrite, Value: 1, Finish: 10, Weight: 4}, true},
	{"r 1 5 20 client=2\n", "", Operation{Kind: KindRead, Value: 1, Start: 5, Finish: 20, Client: 2}, true},
	{"r 1 5 20 client=-2\n", "", Operation{Kind: KindRead, Value: 1, Start: 5, Finish: 20, Client: -2}, true},
	{"w 1 0 10 weight=2 client=3\n", "", Operation{Kind: KindWrite, Value: 1, Finish: 10, Weight: 2, Client: 3}, true},
	{"r 1 0 10 weight=2\n", "", Operation{Kind: KindRead, Value: 1, Finish: 10, Weight: 2}, true},
	{"w key-0001 7 10 20\n", "key-0001", Operation{Kind: KindWrite, Value: 7, Start: 10, Finish: 20}, true},
	{"r key-0001 7 15 30 client=2\n", "key-0001", Operation{Kind: KindRead, Value: 7, Start: 15, Finish: 30, Client: 2}, true},
	{"w t/a:b=c 1 0 10 weight=2 client=-3\n", "t/a:b=c", Operation{Kind: KindWrite, Value: 1, Finish: 10, Weight: 2, Client: -3}, true},
	{"w k\u00a0k 1 0 10\n", "k\u00a0k", Operation{Kind: KindWrite, Value: 1, Finish: 10}, true},
	// Accepted, never written: the defaults spelled out, the other order.
	{"w 1 0 10 weight=1\n", "", Operation{Kind: KindWrite, Value: 1, Finish: 10, Weight: 1}, false},
	{"w 1 0 10 client=0\n", "", Operation{Kind: KindWrite, Value: 1, Finish: 10}, false},
	{"W k 1 0 10 client=3 weight=2\n", "k", Operation{Kind: KindWrite, Value: 1, Finish: 10, Weight: 2, Client: 3}, false},
}

func TestTextGoldenPin(t *testing.T) {
	for _, g := range textGolden {
		keys, ops, err := scanAll(g.line, g.key != "")
		if err != nil || len(ops) != 1 || ops[0] != g.op || keys[0] != g.key {
			t.Errorf("%q parses to %q %+v (%v), want %q %+v", g.line, keys, ops, err, g.key, g.op)
		}
		if !g.print {
			continue
		}
		if got := AppendOpText(nil, g.key, g.op); string(got) != g.line {
			t.Errorf("%+v under %q prints %q, want %q", g.op, g.key, got, g.line)
		}
		if got := AppendOpText(nil, []byte(g.key), g.op); string(got) != g.line {
			t.Errorf("%+v under bytes %q prints %q, want %q", g.op, g.key, got, g.line)
		}
		if g.key == "" && g.op.String()+"\n" != g.line {
			t.Errorf("%+v.String() = %q, want %q less the line end", g.op, g.op.String(), g.line)
		}
	}
	// What the printer leaves out: the defaults, which the parser restores.
	for _, op := range []Operation{
		{Kind: KindWrite, Value: 1, Finish: 10, Weight: 1},
		{Kind: KindWrite, Value: 1, Finish: 10, Weight: 0},
		{Kind: KindWrite, Value: 1, Finish: 10, Weight: -4},
		{Kind: KindWrite, Value: 1, Finish: 10, ID: 12},
	} {
		if got := string(AppendOpText(nil, "", op)); got != "w 1 0 10\n" {
			t.Errorf("%+v prints %q, want the bare line", op, got)
		}
	}
	// A kind that is neither: named in the single-register form, a read in
	// the keyed one — the two spellings the parent binaries wrote.
	if got := string(AppendOpText(nil, "", Operation{Kind: 3, Value: 1, Finish: 2})); got != "Kind(3) 1 0 2\n" {
		t.Errorf("single-register bad kind prints %q", got)
	}
	if got := string(AppendOpText(nil, "k", Operation{Value: 1, Finish: 2})); got != "r k 1 0 2\n" {
		t.Errorf("keyed bad kind prints %q", got)
	}
}

// TestTextDecoderReader checks the reader half against every way a stream
// can be cut: the operations and the error are the same for any chunk size
// and any read size, a reader error surfaces only after what was buffered —
// a final unterminated line included — has been handed out, and a reader that
// never makes progress is an error, not a hang.
func TestTextDecoderReader(t *testing.T) {
	text := "# c\nw a 1 0 10; r a 1 5 20\r\n\nw b 2 30 40 client=9\nr b 2 41 50"
	_, want, err := scanAll(text, true)
	if err != nil || len(want) != 4 {
		t.Fatalf("reference scan: %d ops, %v", len(want), err)
	}
	boom := errors.New("connection reset")
	readers := map[string]func() io.Reader{
		"whole":    func() io.Reader { return strings.NewReader(text) },
		"one-byte": func() io.Reader { return iotest.OneByteReader(strings.NewReader(text)) },
		"data+EOF": func() io.Reader { return iotest.DataErrReader(strings.NewReader(text)) },
		"dies":     func() io.Reader { return io.MultiReader(strings.NewReader(text), iotest.ErrReader(boom)) },
	}
	for name, mk := range readers {
		for _, chunk := range []int{1, 7, 64, 1 << 16} {
			var d TextDecoder
			d.Keyed = true
			d.Reset(mk(), chunk)
			var got []Operation
			var rerr error
			for rerr == nil {
				var block []byte
				if block, rerr = d.Next(); rerr == nil {
					if err := d.Scan(block, func(_ []byte, op Operation) error { got = append(got, op); return nil }); err != nil {
						t.Fatalf("%s chunk=%d: %v", name, chunk, err)
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s chunk=%d: %d operations, want %d", name, chunk, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s chunk=%d: op %d = %+v, want %+v", name, chunk, i, got[i], want[i])
				}
			}
			if name == "dies" {
				if !errors.Is(rerr, boom) || rerr.Error() != "trace: connection reset" {
					t.Fatalf("chunk=%d: reader error %v, want the wrapped cause", chunk, rerr)
				}
			} else if rerr != io.EOF {
				t.Fatalf("%s chunk=%d: ended with %v, want io.EOF", name, chunk, rerr)
			}
			if _, again := d.Next(); again != rerr {
				t.Fatalf("%s chunk=%d: Next after the end = %v, want %v again", name, chunk, again, rerr)
			}
		}
	}
	// Segment positions count across blocks.
	var d TextDecoder
	d.Reset(strings.NewReader("w 1 0 10\nw 2 20 30\nbogus\n"), 10)
	err = nil
	for err == nil {
		var block []byte
		if block, err = d.Next(); err == nil {
			err = d.Scan(block, func([]byte, Operation) error { return nil })
		}
	}
	if err == nil || !strings.HasPrefix(err.Error(), `segment 3 ("bogus"): `) {
		t.Fatalf("error %v, want segment 3", err)
	}
	if _, err := ParseReader(stuckReader{}); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("stuck reader: %v, want io.ErrNoProgress", err)
	}
}

type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }

// parseOpCorpus is FuzzParseOp's seed segments, in the keyed form (the
// corpus of trace.FuzzParseKeyedOp, which that target took over).
var parseOpCorpus = []string{
	"w k 1 0 10",
	"w k 1 0 10 weight=3 client=7",
	"r k 1 0 10 client=7 weight=3",
	"w k 1 0 10 client=1 client=2",
	"w k 1 0 10 weight=2 client=1 weight=5",
	"w k 1 0 10 weight=0",
	"w k 1 0 10 weight=-1",
	"r k 1 0 10 client=+7",
	"r k 1 0 10 client=-7",
	"w k 1 0 10 client=1234567890123456789",
	"w k 1234567890123456789 0 10 weight=1234567890123456789",
	"w k 1 0 10 color=3",
	"w k 1 0 10 a=b=c",
	"w k 1 0 10 client=1=2",
	"w k 1 0 10 client",
	"w k 1 0 10 client=",
	"w k 1 0 10 =5",
	"w k 1 0 10 weight=1 client=2 client=3",
	"w k 1 0 10 weight=1 client=2 client=3 weight=4",
	"w\tk\t1\t0\t10\tclient=4",
	"W k -1 -5 +10",
	"write k 1 0 10",
	"x k 1 0 10",
	"w k 1 0",
	"w k one 0 10",
	"",
}

// FuzzParseOp holds the scanner, on one segment in either form, to the string
// parser it replaced (ref_test.go): the segment trimmed, then split on ASCII
// space and every number handed to strconv. Same key, same operation, the
// same error word for word — and it holds the printer to the scanner:
// whatever parses prints as the old printers printed it, and the print parses
// back to itself. Input that is not one segment is FuzzScanEquivalence's.
func FuzzParseOp(f *testing.F) {
	for _, seed := range parseOpCorpus {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	for _, row := range grammarRows {
		f.Add(row.single, false)
		f.Add(row.keyed, true)
	}
	f.Fuzz(func(t *testing.T, part string, keyed bool) {
		seg := strings.TrimSpace(part)
		if seg == "" || strings.ContainsAny(part, "\n;#") {
			return
		}
		keys, ops, err := scanAll(part, keyed)
		wantKey, wantOp, wantErr := refParseOp(seg, keyed)
		if wantErr != nil {
			want := fmt.Sprintf("segment 1 (%q): %v", seg, wantErr)
			if keyed {
				want = "trace: " + want
			}
			if err == nil || err.Error() != want || len(ops) != 0 {
				t.Fatalf("%q keyed=%v: %d operations, error %v, string parser says %s", part, keyed, len(ops), err, want)
			}
			return
		}
		if err != nil || len(ops) != 1 || keys[0] != wantKey || ops[0] != wantOp {
			t.Fatalf("%q keyed=%v: parsed %q %+v (%v), string parser says %q %+v", part, keyed, keys, ops, err, wantKey, wantOp)
		}
		op := ops[0]
		line := AppendOpText(nil, wantKey, op)
		old := refOpString(op)
		if keyed { // the old keyed printers spliced the key into that string
			kind, rest, _ := strings.Cut(old, " ")
			old = kind + " " + wantKey + " " + rest
		}
		if string(line) != old+"\n" {
			t.Fatalf("%q keyed=%v: prints %q, the old printer %q", part, keyed, line, old+"\n")
		}
		if op.Weight == 1 {
			op.Weight = 0 // the default: not written, so not read back
		}
		keys2, ops2, err := scanAll(string(line), keyed)
		if err != nil || len(ops2) != 1 || keys2[0] != wantKey || ops2[0] != op {
			t.Fatalf("%q keyed=%v: print %q parses back to %q %+v (%v)", part, keyed, line, keys2, ops2, err)
		}
		if again := AppendOpText(nil, keys2[0], ops2[0]); !bytes.Equal(again, line) {
			t.Fatalf("%q keyed=%v: print→parse→print %q, then %q", part, keyed, line, again)
		}
	})
}

// scanEquivalenceSeeds is FuzzScanEquivalence's corpus: the grammar rows, the
// operation corpus joined every way a block joins segments, Unicode space
// where the trim does and does not reach, the digit counts either side of the
// in-place limit, and a last line with no line end.
func scanEquivalenceSeeds() []string {
	var seeds []string
	for _, row := range grammarRows {
		seeds = append(seeds, row.single, row.keyed)
	}
	for _, sep := range []string{"\n", ";", "\r\n", " # note\n", "#;\n"} {
		seeds = append(seeds, strings.Join(parseOpCorpus, sep))
	}
	for _, sp := range []string{"\u00a0", "\u0085", "\u2028"} {
		seeds = append(seeds,
			sp+"w k 1 0 10"+sp+"\n"+sp+" r k 1 5 20 client=3 "+sp+";"+sp,
			"w k"+sp+"k 1 0 10\nw "+sp+"k 1 0 10\nw k 1 0 10 client=3"+sp+"\n",
			"w k 1 0 10"+sp+"client=3\nw k 1 0 10 "+sp+" "+sp+"#c\nw k 1 0 "+sp+"\n",
		)
	}
	seeds = append(seeds,
		"w k 123456789012345678 -123456789012345678 +123456789012345678 weight=123456789012345678 client=-123456789012345678\n",
		"w k 1234567890123456789 -1234567890123456789 +1234567890123456789 weight=+1234567890123456789 client=-1234567890123456789\n",
		"w k -9223372036854775808 9223372036854775807 -0 client=+0\nw k 9223372036854775808 0 1\n",
		"w k - + 1\nw k 1 0 10 weight=+\nw k +-1 0 1\n",
		"w a 1 0 10\nr a 1 20 30 client=2",
	)
	return seeds
}

var errStopScan = errors.New("stop")

// scanRun is what one scanner made of a fuzz input: every key and operation
// it handed to emit, and how it ended.
type scanRun struct {
	keys []string
	ops  []Operation
	err  string
}

// runScan feeds text to scan as two blocks cut at split, stopping emit after
// stop operations when stop > 0; the second block is scanned only if the
// first ends without error.
func runScan(scan func([]byte, func([]byte, Operation) error) error, text []byte, split, stop int) scanRun {
	var r scanRun
	emit := func(key []byte, op Operation) error {
		if stop > 0 && len(r.ops) == stop {
			return errStopScan
		}
		r.keys = append(r.keys, string(key))
		r.ops = append(r.ops, op)
		return nil
	}
	err := scan(text[:split], emit)
	if err == nil {
		err = scan(text[split:], emit)
	}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// FuzzScanEquivalence holds the one-pass scanner to the split-then-parse one
// it replaced (refScan, ref_test.go) over arbitrary bytes in both forms, cut
// into two blocks at any offset: the same keys and operations in the same
// order, the same error word for word (segment position included), and the
// same stopping point when emit fails.
func FuzzScanEquivalence(f *testing.F) {
	for _, seed := range scanEquivalenceSeeds() {
		f.Add([]byte(seed), uint16(len(seed)/2), uint8(0))
		f.Add([]byte(seed), uint16(0), uint8(2))
	}
	f.Fuzz(func(t *testing.T, text []byte, split uint16, stop uint8) {
		cut := int(split) % (len(text) + 1)
		for _, keyed := range []bool{false, true} {
			d, ref := TextDecoder{Keyed: keyed}, refDecoder{Keyed: keyed}
			got := runScan(d.Scan, text, cut, int(stop))
			want := runScan(ref.refScan, text, cut, int(stop))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q cut at %d, stop after %d, keyed=%v:\n got  %+v\n want %+v", text, cut, stop, keyed, got, want)
			}
		}
	})
}

// TestScanZeroAlloc: a warm decoder scans a keyed block with attributes, CRLF,
// comments and ';' segments without allocating — the README's promise for
// well-formed input.
func TestScanZeroAlloc(t *testing.T) {
	block := []byte("# head\r\nw key-1 1 0 10 weight=3 client=7\r\nr key-1 1 5 20 client=-2; w key-2 -5 -10 -1\n" +
		"w k\u00a0k 9 30 40 client=1 weight=2 # tail\n\u00a0r key-2 -5 41 50\u2003\n")
	d := TextDecoder{Keyed: true}
	var n int
	emit := func(_ []byte, op Operation) error { n++; return nil }
	if err := d.Scan(block, emit); err != nil || n != 5 {
		t.Fatalf("scan: %d operations, %v", n, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = d.Scan(block, emit) }); allocs != 0 {
		t.Fatalf("warm Scan allocates %.1f times per block, want 0", allocs)
	}
}

// TestParseReaderBytesPerOp bounds what the single-register parse allocates
// for 200 000 operations: the history it returns (56 bytes an operation), the
// records it packs them into while scanning and its one text chunk.
func TestParseReaderBytesPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 200_000
	var b strings.Builder
	for i := 0; i < n; i++ {
		op := Operation{Kind: KindWrite, Value: int64(i), Start: int64(10 * i), Finish: int64(10*i + 15)}
		if i%2 == 1 {
			op.Kind, op.Value = KindRead, int64(i-1)
		}
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	text := b.String()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h, err := ParseReader(strings.NewReader(text))
	runtime.ReadMemStats(&after)
	if err != nil || h.Len() != n {
		t.Fatalf("%d operations, err %v", h.Len(), err)
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > 96 {
		t.Errorf("the parse allocates %.1f B/op, want <= 96", per)
	} else {
		t.Logf("%.1f B/op", per)
	}
}

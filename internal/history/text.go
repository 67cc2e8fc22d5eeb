package history

// The text format (the package comment states the grammar), each layer written
// once with the key column a parameter: printer, block scanner (whose
// per-segment step is the operation parser), reader.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// AppendOpText appends one operation as a line of the text format, '\n'
// included: the keyed form when key is non-empty, the single-register form
// when it is empty. A kind that is neither read nor write cannot be parsed
// back: the single-register form names it (it is a diagnostic there), the
// keyed form has always written it as a read.
func AppendOpText[K string | []byte](buf []byte, key K, op Operation) []byte {
	switch {
	case op.Kind == KindWrite:
		buf = append(buf, 'w')
	case op.Kind == KindRead || len(key) > 0:
		buf = append(buf, 'r')
	default:
		buf = append(buf, op.Kind.String()...)
	}
	if len(key) > 0 {
		buf = append(buf, ' ')
		buf = append(buf, key...)
	}
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, op.Value, 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, op.Start, 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, op.Finish, 10)
	if op.Weight > 1 {
		buf = append(buf, " weight="...)
		buf = strconv.AppendInt(buf, op.Weight, 10)
	}
	if op.Client != 0 {
		buf = append(buf, " client="...)
		buf = strconv.AppendInt(buf, int64(op.Client), 10)
	}
	return append(buf, '\n')
}

// String renders the operation in the single-register form without the line
// end, e.g. "w 7 10 20" or "r 7 15 30 client=2".
func (op Operation) String() string {
	line := AppendOpText(nil, "", op)
	return string(line[:len(line)-1])
}

// String renders the history in the text format, one operation per line, in
// the current operation order.
func (h *History) String() string {
	var buf []byte
	for _, op := range h.Ops {
		buf = AppendOpText(buf, "", op)
	}
	return string(buf)
}

// WriteText writes the history in the text format, one operation per line.
func WriteText(w io.Writer, h *History) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, op := range h.Ops {
		line = AppendOpText(line[:0], "", op)
		bw.Write(line) // a failed write is sticky: Flush reports it
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("history: write text: %w", err)
	}
	return nil
}

// The scanner reads a block once, front to back, classifying each byte with
// one table lookup: a field byte, ASCII blank, or one of the three bytes that
// end a segment. Unicode space is trimmed only where it can sit, at a
// segment's two ends, so only a non-ASCII byte there costs a rune decode.
const (
	cField byte = iota // a field byte below utf8.RuneSelf
	cHigh              // a field byte from utf8.RuneSelf up: maybe a Unicode space
	cBlank             // ASCII white space but '\n': separates fields
	cLine              // '\n': ends a line and its segment
	cSemi              // ';': ends a segment
	cHash              // '#': ends a segment; a comment runs to the line end
)

var textClass = func() (t [256]byte) {
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = cHigh
	}
	for _, c := range []byte(" \t\r\v\f") {
		t[c] = cBlank
	}
	t['\n'], t[';'], t['#'] = cLine, cSemi, cHash
	return t
}()

// blank returns the index of the first byte at or after b[i] that is not
// ASCII blank.
func blank(b []byte, i int) int {
	for i < len(b) && textClass[b[i]] == cBlank {
		i++
	}
	return i
}

// field reads the field that starts at b[lo] and returns its end and where
// scanning goes on. The field is empty when b[lo] ends the segment, or when
// it and all that follows it in the segment is space.
func field(b []byte, lo int) (hi, next int) {
	hi = lo
	for hi < len(b) && textClass[b[hi]] <= cHigh {
		hi++
	}
	if hi > lo && b[hi-1] >= utf8.RuneSelf {
		return trimField(b, lo, hi)
	}
	return hi, hi
}

// trimField is the segment's trailing trim reaching into its last field: when
// nothing but space follows b[lo:hi] in the segment, the field loses its
// trailing Unicode space and scanning goes on at the segment's end.
func trimField(b []byte, lo, hi int) (int, int) {
	end := hi
	for end < len(b) {
		c := textClass[b[end]]
		if c == cBlank {
			end++
			continue
		}
		if c == cField {
			return hi, hi
		}
		if c != cHigh {
			break // the segment ends
		}
		r, n := utf8.DecodeRune(b[end:])
		if !unicode.IsSpace(r) {
			return hi, hi
		}
		end += n
	}
	return lo + len(bytes.TrimRightFunc(b[lo:hi], unicode.IsSpace)), end
}

// number reads the decimal field that starts at b[lo] in place — an optional
// sign and up to 18 digits, which cannot overflow — and returns it with the
// field's end. ok is false for any other field; numberField reads those.
func number(b []byte, lo int) (v int64, hi int, ok bool) {
	i := lo
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		i++
	}
	digits := i
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + int64(c)
	}
	if n := i - digits; n == 0 || n > 18 || i < len(b) && textClass[b[i]] < cBlank {
		return 0, i, false
	}
	if b[lo] == '-' {
		v = -v
	}
	return v, i, true
}

// numberField reads the field that starts at b[lo] as a number the way
// strconv does, which decides it and words the error, and returns it with
// its end and where scanning goes on. A missing field (hi == lo) is an error
// too.
func numberField(b []byte, lo int) (v int64, hi, next int, err error) {
	hi, next = field(b, lo)
	v, err = strconv.ParseInt(string(b[lo:hi]), 10, 64)
	return v, hi, next, err
}

var numberNames = [3]string{"value", "start", "finish"}

// segment parses the operation whose first field starts at b[lo] into op and
// returns its key, a view into b, with the index of the byte that ends its
// segment ('\n', ';', '#' or len(b)). Too few fields is the error before any
// bad one; among bad fields the first in order is reported.
func (d *TextDecoder) segment(b []byte, lo int, op *Operation) (key []byte, end int, err error) {
	*op = Operation{}
	var bad error // the first bad field, reported once the fields are counted
	i := lo + 1
	switch c := b[lo]; {
	case c|0x20 == 'w' && (i == len(b) || textClass[b[i]] >= cBlank):
		op.Kind = KindWrite
	case c|0x20 == 'r' && (i == len(b) || textClass[b[i]] >= cBlank):
		op.Kind = KindRead
	default:
		// A kind that trims to w or r ends its segment, so the field count
		// decides the error.
		var hi int
		hi, i = field(b, lo)
		bad = fmt.Errorf("unknown kind %q", b[lo:hi])
	}
	fields := 1
	if d.Keyed {
		lo = blank(b, i)
		var hi int
		if hi, i = field(b, lo); hi == lo {
			return nil, 0, errors.New("want kind key value start finish")
		}
		key = b[lo:hi]
		fields++
	}
	var nums [3]int64
	for f := range nums {
		lo = blank(b, i)
		v, hi, ok := number(b, lo)
		if i = hi; !ok {
			var err error
			if v, hi, i, err = numberField(b, lo); hi == lo {
				if d.Keyed {
					return nil, 0, errors.New("want kind key value start finish")
				}
				return nil, 0, fmt.Errorf("want at least 4 fields (kind value start finish), got %d", fields)
			}
			if err != nil && bad == nil {
				bad = fmt.Errorf("%s: %w", numberNames[f], err)
			}
		}
		nums[f] = v
		fields++
	}
	if bad != nil {
		return nil, 0, bad
	}
	op.Value, op.Start, op.Finish = nums[0], nums[1], nums[2]
	for {
		if lo = blank(b, i); lo == len(b) || textClass[b[lo]] > cBlank {
			return key, lo, nil
		}
		rest := b[lo:]
		client := len(rest) >= 7 && string(rest[:7]) == "client="
		if !client && !(len(rest) >= 7 && string(rest[:7]) == "weight=") {
			end, err := otherAttribute(b, lo)
			if err != nil {
				return nil, 0, err
			}
			return key, end, nil
		}
		n, hi, ok := number(b, lo+7)
		if i = hi; !ok {
			var err error
			if n, _, i, err = numberField(b, lo+7); err != nil {
				return nil, 0, fmt.Errorf("attribute %q: %w", rest[:6], err)
			}
		}
		switch {
		case client:
			op.Client = int(n)
		case n <= 0:
			return nil, 0, fmt.Errorf("weight must be positive, got %d", n)
		default:
			op.Weight = n
		}
	}
}

// otherAttribute reads the field at b[lo], which is neither client= nor
// weight=. That is an error, worded here, unless the field is the Unicode
// space that ends its segment: then end is the segment's end.
func otherAttribute(b []byte, lo int) (end int, err error) {
	hi, end := field(b, lo)
	if hi == lo {
		return end, nil
	}
	attr := b[lo:hi]
	name, val, ok := bytes.Cut(attr, []byte("="))
	if !ok {
		return 0, fmt.Errorf("malformed attribute %q", attr)
	}
	if _, err := strconv.ParseInt(string(val), 10, 64); err != nil {
		return 0, fmt.Errorf("attribute %q: %w", name, err)
	}
	return 0, fmt.Errorf("unknown attribute %q", name)
}

// textChunk is ScanText's read size. maxTextLine caps the buffer a
// newline-free input can grow: a whole history may legally sit on one
// ';'-separated line, so it is a backstop against a corrupt or malicious
// producer, not a format limit.
const (
	textChunk   = 64 << 10
	maxTextLine = 1 << 30
)

// TextDecoder turns text into operations: Next cuts what a reader yields into
// blocks of whole lines, Scan parses a block. One value serves one stream at
// a time and is reusable across streams (Reset), keeping its buffer; a caller
// that already holds the text (a spill blob, a checkpoint body) uses Scan
// alone.
type TextDecoder struct {
	// Keyed selects the keyed form, whose errors read "trace: ...".
	Keyed bool

	seg    int // segments seen, the position a parse error names
	r      io.Reader
	buf    []byte
	lo, hi int   // buf[lo:hi] is read and not yet handed out: an unterminated line
	end    error // what Next answers once everything buffered is handed out
}

// Reset points the decoder at a new stream read in chunks of about chunk
// bytes, and restarts the segment count.
func (d *TextDecoder) Reset(r io.Reader, chunk int) {
	d.r, d.seg, d.lo, d.hi, d.end = r, 0, 0, 0, nil
	if cap(d.buf) < chunk {
		d.buf = make([]byte, chunk)
	}
}

// Next returns the next block of whole lines, a view valid until the next
// call, and io.EOF after the last. A line longer than the buffer grows it, up
// to maxTextLine. A reader error is reported only after everything read before
// it has been handed out, a final unterminated line included — the error of a
// body that dies mid-request must not hide the operations that arrived.
func (d *TextDecoder) Next() ([]byte, error) {
	if d.end != nil {
		return nil, d.end
	}
	buf := d.buf[:cap(d.buf)]
	d.hi = copy(buf, buf[d.lo:d.hi])
	d.lo = 0
	for idle := 0; ; {
		if d.hi == len(buf) {
			if len(buf) >= maxTextLine {
				d.end = d.readErr(bufio.ErrTooLong)
				return nil, d.end
			}
			d.buf = make([]byte, 2*len(buf))
			copy(d.buf, buf)
			buf = d.buf
		}
		m, err := d.r.Read(buf[d.hi:])
		fresh := buf[d.hi : d.hi+m]
		d.hi += m
		if err != nil {
			if d.end = err; err != io.EOF {
				d.end = d.readErr(err)
			}
			if d.hi == 0 {
				return nil, d.end
			}
			return buf[:d.hi], nil
		}
		// What was carried over holds no newline, so only the fresh bytes can.
		if nl := bytes.LastIndexByte(fresh, '\n'); nl >= 0 {
			d.lo = d.hi - m + nl + 1
			return buf[:d.lo], nil
		}
		if m > 0 {
			idle = 0
		} else if idle++; idle == 100 {
			d.end = d.readErr(io.ErrNoProgress)
			return nil, d.end
		}
	}
}

func (d *TextDecoder) readErr(err error) error {
	if d.Keyed {
		return fmt.Errorf("trace: %w", err)
	}
	return fmt.Errorf("history: %w", err)
}

// Scan parses a run of text — lines, comments, segments — and hands every
// operation to emit in input order; the key (nil in the single-register form)
// is a view into block. It reads block once, front to back: the byte that
// ends a segment is found by the same walk that reads the segment's fields,
// and only an error goes back to cut the segment out for its message. A
// segment that does not parse ends the scan with an error naming its position
// in the stream, counted across calls; an error from emit ends it with that
// error.
func (d *TextDecoder) Scan(block []byte, emit func(key []byte, op Operation) error) error {
	var op Operation
	for i := 0; i < len(block); {
		switch textClass[block[i]] {
		case cBlank, cLine, cSemi:
			i++
			continue
		case cHash:
			if n := bytes.IndexByte(block[i:], '\n'); n >= 0 {
				i += n + 1
			} else {
				i = len(block)
			}
			continue
		case cHigh:
			if r, n := utf8.DecodeRune(block[i:]); unicode.IsSpace(r) {
				i += n
				continue
			}
		}
		d.seg++
		key, end, err := d.segment(block, i, &op)
		if err != nil {
			return d.segmentError(block, i, err)
		}
		if err := emit(key, op); err != nil {
			return err
		}
		i = end
	}
	return nil
}

// segmentError names the segment that starts at block[lo] in err: its
// position and its text, the space at its ends trimmed.
func (d *TextDecoder) segmentError(block []byte, lo int, err error) error {
	end := lo
	for end < len(block) && textClass[block[end]] < cLine {
		end++
	}
	part := bytes.TrimSpace(block[lo:end])
	if d.Keyed {
		return fmt.Errorf("trace: segment %d (%q): %w", d.seg, part, err)
	}
	return fmt.Errorf("segment %d (%q): %w", d.seg, part, err)
}

// ScanText reads the text format from r to its end and hands every operation
// to emit: Next and Scan in a loop, for callers with no buffer to reuse.
func ScanText(r io.Reader, keyed bool, emit func(key []byte, op Operation) error) error {
	d := TextDecoder{Keyed: keyed}
	d.Reset(r, textChunk)
	for {
		block, err := d.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := d.Scan(block, emit); err != nil {
			return err
		}
	}
}

// Parse reads a history in the single-register text format. Operation IDs
// are assigned in input order.
func Parse(text string) (*History, error) {
	return ParseReader(strings.NewReader(text))
}

// ParseReader is Parse over an io.Reader: memory is proportional to the
// parsed operations, not to the raw text plus the operations. Use it for file
// and stdin inputs. The scan packs each operation as a record (record.go),
// about nine bytes, into one buffer that doubles as it fills; the end of
// input decodes them into a history sized to fit.
func ParseReader(r io.Reader) (*History, error) {
	var recs []byte
	var prev int64
	n := 0
	err := ScanText(r, false, func(_ []byte, op Operation) error {
		if cap(recs)-len(recs) < MaxRecord {
			recs = slices.Grow(recs, max(len(recs), 64*MaxRecord))
		}
		recs = recs[:PutRecord(recs[:cap(recs)], len(recs), &op, prev)]
		prev, n = op.Start, n+1
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return &History{}, nil
	}
	ops := make([]Operation, n)
	prev = 0
	for i, j := 0, 0; i < n; i++ {
		j = ReadRecord(recs, j, &ops[i], prev)
		ops[i].ID, prev = i, ops[i].Start
	}
	return &History{Ops: ops}, nil
}

// MustParse is Parse for tests and examples; it panics on malformed input.
func MustParse(text string) *History {
	h, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return h
}

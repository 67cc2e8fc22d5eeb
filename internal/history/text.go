package history

// The text format (the package comment states the grammar), each layer written
// once with the key column a parameter: printer, operation parser, block
// scanner, reader.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
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

// ParseOp parses one segment, the space at its ends already trimmed, in the
// keyed or the single-register form. The key is a view into part. Well-formed
// input allocates nothing.
func ParseOp(part []byte, keyed bool) (key []byte, op Operation, err error) {
	kind, i := nextField(part, 0)
	if keyed {
		key, i = nextField(part, i)
	}
	value, i := nextField(part, i)
	start, i := nextField(part, i)
	finish, i := nextField(part, i)
	if len(finish) == 0 {
		if keyed {
			return nil, Operation{}, errors.New("want kind key value start finish")
		}
		n := 0
		for f, j := nextField(part, 0); len(f) > 0; f, j = nextField(part, j) {
			n++
		}
		return nil, Operation{}, fmt.Errorf("want at least 4 fields (kind value start finish), got %d", n)
	}
	switch string(kind) {
	case "w", "W":
		op.Kind = KindWrite
	case "r", "R":
		op.Kind = KindRead
	default:
		return nil, Operation{}, fmt.Errorf("unknown kind %q", kind)
	}
	if op.Value, err = parseInt(value); err != nil {
		return nil, Operation{}, fmt.Errorf("value: %w", err)
	}
	if op.Start, err = parseInt(start); err != nil {
		return nil, Operation{}, fmt.Errorf("start: %w", err)
	}
	if op.Finish, err = parseInt(finish); err != nil {
		return nil, Operation{}, fmt.Errorf("finish: %w", err)
	}
	for attr, i := nextField(part, i); len(attr) > 0; attr, i = nextField(part, i) {
		name, val, ok := bytes.Cut(attr, []byte("="))
		if !ok {
			return nil, Operation{}, fmt.Errorf("malformed attribute %q", attr)
		}
		n, err := parseInt(val)
		if err != nil {
			return nil, Operation{}, fmt.Errorf("attribute %q: %w", name, err)
		}
		switch string(name) {
		case "weight":
			if n <= 0 {
				return nil, Operation{}, fmt.Errorf("weight must be positive, got %d", n)
			}
			op.Weight = n
		case "client":
			op.Client = int(n)
		default:
			return nil, Operation{}, fmt.Errorf("unknown attribute %q", name)
		}
	}
	return key, op, nil
}

// nextField returns the field of s that starts at or after i, and where to
// look for the one after it; the field is empty when s has no more.
func nextField(s []byte, i int) ([]byte, int) {
	for i < len(s) && asciiSpace(s[i]) {
		i++
	}
	st := i
	for i < len(s) && !asciiSpace(s[i]) {
		i++
	}
	return s[st:i], i
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// parseInt reads a decimal field in place: an optional sign and up to 18
// digits, which cannot overflow. Anything else goes to strconv, which decides
// it and words the error.
func parseInt(b []byte) (int64, error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) || len(b)-i > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c)
	}
	if neg {
		v = -v
	}
	return v, nil
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
// is a view into block. A segment that does not parse ends the scan with an
// error naming its position in the stream, counted across calls; an error
// from emit ends it with that error.
func (d *TextDecoder) Scan(block []byte, emit func(key []byte, op Operation) error) error {
	for len(block) > 0 {
		line := block
		if i := bytes.IndexByte(block, '\n'); i >= 0 {
			line, block = block[:i], block[i+1:]
		} else {
			block = nil
		}
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for len(line) > 0 {
			part := line
			if i := bytes.IndexByte(line, ';'); i >= 0 {
				part, line = line[:i], line[i+1:]
			} else {
				line = nil
			}
			if part = bytes.TrimSpace(part); len(part) == 0 {
				continue
			}
			d.seg++
			key, op, err := ParseOp(part, d.Keyed)
			if err != nil {
				if d.Keyed {
					return fmt.Errorf("trace: segment %d (%q): %w", d.seg, part, err)
				}
				return fmt.Errorf("segment %d (%q): %w", d.seg, part, err)
			}
			if err := emit(key, op); err != nil {
				return err
			}
		}
	}
	return nil
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
// and stdin inputs.
func ParseReader(r io.Reader) (*History, error) {
	var ops []Operation
	err := ScanText(r, false, func(_ []byte, op Operation) error {
		op.ID = len(ops)
		ops = append(ops, op)
		return nil
	})
	if err != nil {
		return nil, err
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

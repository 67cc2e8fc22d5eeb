package wire

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"kat/internal/history"
)

// Decoder reads frames from a stream and yields their operations. One
// decoder is one stream: the key dictionary accumulates across frames
// (unless a frame resets it). A dictionary key's bytes are copied once, when
// its entry arrives, into an arena the decoder owns, so they outlive the
// payload buffer every frame reuses; an operation names its key by its
// dictionary id. NextFrame hands a frame out in that form — operations and
// ids, keys as views into the arena — and decoding a batch allocates nothing
// per operation or per key. Next is the same decode with each key as a
// string, interned once per dictionary entry.
type Decoder struct {
	br  *bufio.Reader
	off int64 // bytes consumed from the stream

	keys    []byte // arena: the dictionary's key bytes, in id order
	ends    []int  // ends[id] is where key id ends in keys
	frame   Frame
	names   []string // Next's key strings, by dictionary id ("" until needed)
	ops     []Op     // Next's result
	stored  []byte   // frame payload as stored
	raw     []byte   // decompressed payload accumulator
	block   []byte   // fixed inflate read chunk
	scratch [4]byte
	fr      io.ReadCloser // flate reader, reused via flate.Resetter
}

// Frame is one decoded frame, viewed in place: operation i is Ops[i] on the
// key whose dictionary id is IDs[i], and Key returns that key's bytes. Every
// part of it is the decoder's and is good until the next NextFrame, Next or
// Reset call.
type Frame struct {
	Ops  []history.Operation
	IDs  []uint32
	keys []byte
	ends []int
}

// Key returns the bytes of the key with dictionary id id (an id from IDs).
func (f *Frame) Key(id uint32) []byte {
	start := 0
	if id > 0 {
		start = f.ends[id-1]
	}
	return f.keys[start:f.ends[id]:f.ends[id]]
}

// NewDecoder returns a decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{}
	d.Reset(r)
	return d
}

// Reset repoints the decoder at a new stream, retaining its buffers —
// the pooling hook for per-request reuse.
func (d *Decoder) Reset(r io.Reader) {
	if d.br == nil {
		d.br = bufio.NewReaderSize(r, 1<<16)
	} else {
		d.br.Reset(r)
	}
	d.off = 0
	d.resetDict()
}

// resetDict empties the key dictionary.
func (d *Decoder) resetDict() {
	d.keys, d.ends, d.names = d.keys[:0], d.ends[:0], d.names[:0]
}

// Offset returns the number of stream bytes consumed so far.
func (d *Decoder) Offset() int64 { return d.off }

// errAt builds a DecodeError at an explicit offset.
func errAt(off int64, msg string, cause error) error {
	return &DecodeError{Offset: off, Msg: msg, Err: cause}
}

// readFull fills buf from the stream, mapping a short read to a torn-frame
// DecodeError at the current offset.
func (d *Decoder) readFull(buf []byte, what string) error {
	n, err := io.ReadFull(d.br, buf)
	d.off += int64(n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return errAt(d.off, "torn frame: truncated "+what, err)
	}
	return nil
}

// ReadByte lets binary.ReadUvarint pull header varints while the offset
// stays accurate.
func (d *Decoder) ReadByte() (byte, error) {
	b, err := d.br.ReadByte()
	if err == nil {
		d.off++
	}
	return b, err
}

// Next decodes one frame and returns its operations with their keys as
// strings, or io.EOF at a clean end of stream: NextFrame, with each
// dictionary entry's string made the first time an operation names it. The
// slice (and its Op values) is reused by the following Next, NextFrame or
// Reset call.
func (d *Decoder) Next() ([]Op, error) {
	f, err := d.NextFrame()
	if err != nil {
		return nil, err
	}
	if n := len(d.ends); len(d.names) < n {
		d.names = append(d.names, make([]string, n-len(d.names))...)
	}
	d.ops = slices.Grow(d.ops[:0], len(f.Ops))[:len(f.Ops)]
	for i, id := range f.IDs {
		name := d.names[id]
		if name == "" { // keys are never empty
			name = string(f.Key(id))
			d.names[id] = name
		}
		d.ops[i] = Op{Key: name, Op: f.Ops[i]}
	}
	return d.ops, nil
}

// NextFrame decodes one frame, or returns io.EOF at a clean end of stream.
// Any malformed input yields a *DecodeError carrying the stream byte offset
// of the defect.
func (d *Decoder) NextFrame() (*Frame, error) {
	frameOff := d.off
	// Magic: a clean EOF before any frame byte ends the stream; anything
	// partial is a torn frame.
	n, err := io.ReadFull(d.br, d.scratch[:4])
	d.off += int64(n)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, errAt(d.off, "torn frame: truncated magic", io.ErrUnexpectedEOF)
	}
	if !IsMagic(d.scratch[:4]) {
		return nil, errAt(frameOff, fmt.Sprintf("bad magic %q (not a wire frame)", d.scratch[:4]), nil)
	}
	ver, err := d.ReadByte()
	if err != nil {
		return nil, errAt(d.off, "torn frame: truncated version", io.ErrUnexpectedEOF)
	}
	if ver != Version {
		return nil, errAt(d.off-1, fmt.Sprintf("unsupported frame version %d (decoder speaks %d)", ver, Version), nil)
	}
	flags, err := d.ReadByte()
	if err != nil {
		return nil, errAt(d.off, "torn frame: truncated flags", io.ErrUnexpectedEOF)
	}
	if flags&^byte(flagKnown) != 0 {
		return nil, errAt(d.off-1, fmt.Sprintf("unknown frame flags %#x", flags&^byte(flagKnown)), nil)
	}
	lenOff := d.off
	plen, err := binary.ReadUvarint(d)
	if err != nil {
		return nil, errAt(d.off, "torn frame: truncated payload length", io.ErrUnexpectedEOF)
	}
	if plen > maxPayloadBytes {
		return nil, errAt(lenOff, fmt.Sprintf("payload length %d exceeds the %d-byte limit", plen, int64(maxPayloadBytes)), nil)
	}
	payloadOff := d.off
	if cap(d.stored) < int(plen) {
		d.stored = make([]byte, plen)
	}
	d.stored = d.stored[:plen]
	if err := d.readFull(d.stored, "payload"); err != nil {
		return nil, err
	}
	if err := d.readFull(d.scratch[:4], "checksum"); err != nil {
		return nil, err
	}
	want := binary.LittleEndian.Uint32(d.scratch[:4])
	if got := crc32.Checksum(d.stored, castagnoli); got != want {
		return nil, errAt(frameOff, fmt.Sprintf("payload checksum mismatch (stored %#08x, computed %#08x)", want, got), nil)
	}
	payload := d.stored
	if flags&flagCompressed != 0 {
		payload, err = d.inflate(d.stored)
		if err != nil {
			return nil, errAt(payloadOff, "corrupt compressed payload", err)
		}
	}
	if err := d.decodePayload(payload, flags, payloadOff); err != nil {
		return nil, err
	}
	return &d.frame, nil
}

// inflate decompresses a frame payload into the decoder's scratch buffer.
func (d *Decoder) inflate(stored []byte) ([]byte, error) {
	src := bytes.NewReader(stored)
	if d.fr == nil {
		d.fr = flate.NewReader(src)
	} else if err := d.fr.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, err
	}
	d.raw = d.raw[:0]
	buf := d.scratchBlock()
	for {
		n, err := d.fr.Read(buf)
		d.raw = append(d.raw, buf[:n]...)
		if len(d.raw) > maxPayloadBytes {
			return nil, fmt.Errorf("decompressed payload exceeds the %d-byte limit", int64(maxPayloadBytes))
		}
		if err == io.EOF {
			return d.raw, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// scratchBlock returns the fixed read chunk inflate copies through.
func (d *Decoder) scratchBlock() []byte {
	if d.block == nil {
		d.block = make([]byte, 32<<10)
	}
	return d.block
}

// decodePayload parses a decompressed payload into the reusable frame.
func (d *Decoder) decodePayload(p []byte, flags byte, payloadOff int64) error {
	bad := func(format string, args ...any) error {
		return errAt(payloadOff, "malformed payload: "+fmt.Sprintf(format, args...), nil)
	}
	if flags&flagDictReset != 0 {
		d.resetDict()
	}
	i := 0
	uvar := func() (uint64, bool) {
		if i < len(p) && p[i] < 0x80 { // most of a frame's varints are one byte
			i++
			return uint64(p[i-1]), true
		}
		v, n := binary.Uvarint(p[i:])
		if n <= 0 {
			return 0, false
		}
		i += n
		return v, true
	}
	newKeys, ok := uvar()
	if !ok {
		return bad("truncated dictionary count")
	}
	if newKeys > uint64(len(p)) {
		return bad("dictionary count %d exceeds payload size", newKeys)
	}
	for j := uint64(0); j < newKeys; j++ {
		klen, ok := uvar()
		if !ok {
			return bad("truncated key length")
		}
		if klen > maxKeyBytes {
			return bad("key length %d exceeds the %d-byte limit", klen, int64(maxKeyBytes))
		}
		if uint64(len(p)-i) < klen {
			return bad("key bytes overrun payload")
		}
		key := p[i : i+int(klen)]
		i += int(klen)
		if !ValidKey(key) {
			return bad("key %q is not expressible in the trace grammar", key)
		}
		d.keys = append(d.keys, key...)
		d.ends = append(d.ends, len(d.keys))
	}
	nops, ok := uvar()
	if !ok {
		return bad("truncated operation count")
	}
	// Every operation takes at least 4 payload bytes (head, value, start
	// delta, duration), so the remaining bytes bound the count.
	if nops > uint64(len(p)-i)/4+1 {
		return bad("operation count %d exceeds payload size", nops)
	}
	f := &d.frame
	f.Ops = slices.Grow(f.Ops[:0], int(nops))[:nops]
	f.IDs = slices.Grow(f.IDs[:0], int(nops))[:nops]
	f.keys, f.ends = d.keys, d.ends
	last := int64(0)
	for j := range f.Ops {
		head, ok := uvar()
		if !ok {
			return bad("truncated operation %d head", j)
		}
		keyID := head >> 3
		if keyID >= uint64(len(d.ends)) {
			return bad("operation %d references key id %d outside the %d-entry dictionary", j, keyID, len(d.ends))
		}
		kind := history.KindWrite
		if head&(1<<2) != 0 {
			kind = history.KindRead
		}
		value, ok := uvar()
		if !ok {
			return bad("truncated operation %d value", j)
		}
		sdelta, ok := uvar()
		if !ok {
			return bad("truncated operation %d start delta", j)
		}
		dur, ok := uvar()
		if !ok {
			return bad("truncated operation %d duration", j)
		}
		start := last + unzigzag(sdelta)
		last = start
		op := history.Operation{
			Kind:   kind,
			Value:  unzigzag(value),
			Start:  start,
			Finish: start + unzigzag(dur),
		}
		if head&(1<<1) != 0 {
			w, ok := uvar()
			if !ok {
				return bad("truncated operation %d weight", j)
			}
			if w > math.MaxInt64 {
				return bad("operation %d weight %d overflows int64", j, w)
			}
			op.Weight = int64(w)
		}
		if head&1 != 0 {
			c, ok := uvar()
			if !ok {
				return bad("truncated operation %d client", j)
			}
			cv := unzigzag(c)
			if cv > math.MaxInt || cv < math.MinInt {
				return bad("operation %d client %d overflows int", j, cv)
			}
			op.Client = int(cv)
		}
		f.Ops[j], f.IDs[j] = op, uint32(keyID)
	}
	if i != len(p) {
		return bad("%d trailing bytes after the last operation", len(p)-i)
	}
	return nil
}

package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"kat/internal/history"
)

// Encoder accumulates operations and emits them as frames. One encoder is
// one stream: its key dictionary persists across AppendFrame calls (each
// frame lists only the keys the decoder has not seen yet), so the caller
// chooses frame boundaries freely — per batch, per flush interval — without
// re-paying key bytes. The zero value is not ready; use NewEncoder.
//
// Operation IDs are not encoded: batch ingest renumbers them on arrival, so
// they are identity-neutral (the same contract the durable text paths have).
// The weight and client fields ride along only when they carry information
// (weight > 1, client != 0), mirroring the text grammar's canonical form.
type Encoder struct {
	dict    map[string]uint32
	size    uint32 // dictionary entries so far: the next key's id
	dictBuf []byte // pending additions: uvarint len + key bytes each
	newKeys int
	opsBuf  []byte
	nops    int
	last    int64 // previous op's start (delta base), reset per frame

	selfContained bool
	compress      bool
	fw            *flate.Writer
	cbuf          bytes.Buffer
}

// NewEncoder returns an empty encoder for one stream.
func NewEncoder() *Encoder {
	return &Encoder{dict: make(map[string]uint32)}
}

// SetCompress enables DEFLATE block compression: each frame's payload is
// compressed at BestSpeed and kept only if it actually shrank (the frame's
// compressed flag records which happened, so mixed streams decode fine).
func (e *Encoder) SetCompress(on bool) { e.compress = on }

// SetSelfContained makes every frame carry the dict-reset flag and re-list
// the keys it references, so each frame decodes alone — the mode WAL
// records use, since recovery replays them individually.
func (e *Encoder) SetSelfContained(on bool) { e.selfContained = on }

// Pending returns the number of operations buffered for the next frame.
func (e *Encoder) Pending() int { return e.nops }

// Add buffers one operation for the next frame.
func (e *Encoder) Add(key string, op history.Operation) error {
	id, ok := e.dict[key]
	if !ok {
		var err error
		if id, err = e.ListKey(key); err != nil {
			return err
		}
		e.dict[key] = id
	}
	return e.AddID(id, op)
}

// ListKey lists key as the next dictionary entry and returns its id, for
// AddID. It is the by-id door for callers that hold their own key-to-id map
// for one frame — a durable session caches each key's id on the key's own
// state while it encodes a shard group — so no key is hashed per operation.
// The encoder's map does not learn the key: Add would list it again.
func (e *Encoder) ListKey(key string) (uint32, error) {
	if !ValidKey(key) {
		return 0, fmt.Errorf("wire: key %q is not expressible in the trace grammar", key)
	}
	e.dictBuf = binary.AppendUvarint(e.dictBuf, uint64(len(key)))
	e.dictBuf = append(e.dictBuf, key...)
	e.newKeys++
	e.size++
	return e.size - 1, nil
}

// AddID buffers one operation for the next frame, naming its key by a
// dictionary id that Add or ListKey gave it.
func (e *Encoder) AddID(id uint32, op history.Operation) error {
	var kindBit uint64
	switch op.Kind {
	case history.KindWrite:
		kindBit = 0
	case history.KindRead:
		kindBit = 1
	default:
		return fmt.Errorf("wire: operation kind %v is not encodable", op.Kind)
	}
	hasW := op.Weight > 1
	hasC := op.Client != 0
	head := uint64(id)<<3 | kindBit<<2
	if hasW {
		head |= 1 << 1
	}
	if hasC {
		head |= 1
	}
	b := e.opsBuf
	b = binary.AppendUvarint(b, head)
	b = binary.AppendUvarint(b, zigzag(op.Value))
	b = binary.AppendUvarint(b, zigzag(op.Start-e.last))
	e.last = op.Start
	b = binary.AppendUvarint(b, zigzag(op.Finish-op.Start))
	if hasW {
		b = binary.AppendUvarint(b, uint64(op.Weight))
	}
	if hasC {
		b = binary.AppendUvarint(b, zigzag(int64(op.Client)))
	}
	e.opsBuf = b
	e.nops++
	return nil
}

// AppendFrame finalizes the buffered operations as one frame appended to
// dst and clears the per-frame state. With nothing buffered it appends
// nothing (empty frames are never emitted).
func (e *Encoder) AppendFrame(dst []byte) []byte {
	if e.nops == 0 {
		return dst
	}
	// Assemble the payload in the ops buffer's tail so one buffer serves
	// both roles: [opsBuf | header + dictBuf + header + opsBuf-copy].
	pstart := len(e.opsBuf)
	p := binary.AppendUvarint(e.opsBuf, uint64(e.newKeys))
	p = append(p, e.dictBuf...)
	p = binary.AppendUvarint(p, uint64(e.nops))
	p = append(p, e.opsBuf[:pstart]...)
	e.opsBuf = p[:pstart] // keep the grown capacity for the next frame
	payload := p[pstart:]

	flags := byte(0)
	if e.selfContained {
		flags |= flagDictReset
	}
	stored := payload
	if e.compress {
		if c := e.deflate(payload); len(c) < len(payload) {
			stored = c
			flags |= flagCompressed
		}
	}
	dst = append(dst, magic[:]...)
	dst = append(dst, Version, flags)
	dst = binary.AppendUvarint(dst, uint64(len(stored)))
	dst = append(dst, stored...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(stored, castagnoli))

	e.dictBuf = e.dictBuf[:0]
	e.newKeys = 0
	e.opsBuf = e.opsBuf[:0]
	e.nops = 0
	e.last = 0
	if e.selfContained {
		clear(e.dict)
		e.size = 0
	}
	return dst
}

// deflate compresses p at BestSpeed into the encoder's scratch buffer.
func (e *Encoder) deflate(p []byte) []byte {
	e.cbuf.Reset()
	if e.fw == nil {
		e.fw, _ = flate.NewWriter(&e.cbuf, flate.BestSpeed)
	} else {
		e.fw.Reset(&e.cbuf)
	}
	e.fw.Write(p)
	e.fw.Close()
	return e.cbuf.Bytes()
}

// Reset returns the encoder to its initial state (dictionary cleared,
// buffers retained) for reuse on a new stream.
func (e *Encoder) Reset() {
	clear(e.dict)
	e.size = 0
	e.dictBuf = e.dictBuf[:0]
	e.newKeys = 0
	e.opsBuf = e.opsBuf[:0]
	e.nops = 0
	e.last = 0
}

// EncodeSelfContained appends ops to dst as one self-contained frame — the
// one-shot form used for WAL records and tests.
func EncodeSelfContained(dst []byte, ops []Op, compress bool) ([]byte, error) {
	e := NewEncoder()
	e.SetSelfContained(true)
	e.SetCompress(compress)
	for _, kop := range ops {
		if err := e.Add(kop.Key, kop.Op); err != nil {
			return dst, err
		}
	}
	return e.AppendFrame(dst), nil
}

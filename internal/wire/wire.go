// Package wire is the binary batch codec of the ingest path: a versioned,
// length-prefixed frame carrying a batch of keyed operations in a form that
// decodes straight into the session's batch entry points without
// materializing any per-operation text or strings.
//
// # Frame layout
//
//	offset  size      field
//	0       4         magic "KAVW"
//	4       1         version (currently 1)
//	5       1         flags (bit 0: payload is DEFLATE-compressed;
//	                         bit 1: reset the key dictionary before this
//	                         frame; other bits must be zero)
//	6       uvarint   payload length in bytes, as stored (post-compression)
//	...     n         payload
//	...     4         CRC32C (Castagnoli) of the stored payload bytes,
//	                  little-endian
//
// # Payload layout (after decompression)
//
//	uvarint           number of dictionary additions
//	per addition:     uvarint key length, then the key bytes; the new key's
//	                  id is the dictionary size before the addition
//	uvarint           number of operations
//	per operation:
//	  uvarint head    keyID<<3 | kind<<2 | hasWeight<<1 | hasClient
//	                  (kind: 0 = write, 1 = read)
//	  varint          value (zigzag)
//	  varint          start, as a delta from the previous operation's start
//	                  in this frame (zigzag; the frame's first operation is
//	                  a delta from zero, so frames stand alone in time)
//	  varint          finish - start (zigzag)
//	  [uvarint]       weight, if hasWeight
//	  [varint]        client (zigzag), if hasClient
//
// # Dictionary semantics
//
// The key dictionary persists across the frames of one stream (one encoder
// feeding one decoder, e.g. a single /ingest request body): a key costs its
// bytes once, then a varint id per operation. A frame carrying the
// dict-reset flag clears the dictionary before applying its own additions —
// self-contained frames (used for WAL records, which are replayed
// individually) set the flag and re-list every key they reference.
//
// The decoder copies a key's bytes once per stream, when its entry arrives,
// into an arena of its own, and hands each frame out as operations plus
// dictionary ids (Decoder.NextFrame): the session probes its key map with the
// arena's bytes, so no string is made per key or per request.
//
// The encoder names keys two ways: Add looks each key up in its own map, and
// ListKey/AddID leave the key-to-id map to the caller. A durable session
// writes each shard group ahead through the latter as it admits the group,
// caching a key's id on the key's own state, so through every ingest door a
// key costs one listing per record and no hash per operation.
//
// Keys use the same alphabet as the keyed text grammar — non-empty, no
// whitespace, ';', or '#' — so every durable path that holds text (spill
// blobs, checkpoint segment bodies) can round-trip operations that arrived
// in binary. The decoder rejects keys outside the alphabet.
//
// # Versioning rules
//
// The version byte names the payload layout. Decoders reject versions they
// do not know and flag bits they do not know (a frame is never "partially"
// understood); new optional behavior must come with a new flag bit, new
// layout with a new version. CRC covers the stored payload only — header
// corruption is caught by the magic/version/flag checks and, transitively,
// by the CRC reading the wrong region.
package wire

import (
	"fmt"
	"hash/crc32"

	"kat/internal/history"
)

// ContentType is the MIME type negotiating binary ingest on POST /ingest.
const ContentType = "application/x-kav-wire"

// Version is the frame layout version this package encodes and decodes.
const Version = 1

// Frame flag bits.
const (
	flagCompressed = 1 << 0 // payload is DEFLATE-compressed
	flagDictReset  = 1 << 1 // clear the key dictionary before this frame
	flagKnown      = flagCompressed | flagDictReset
)

// magic identifies a frame (and, by sniffing, a binary stream).
var magic = [4]byte{'K', 'A', 'V', 'W'}

// Op pairs a register key with one operation — the element the codec
// encodes and decodes. trace.KeyedOp aliases it, so decoded batches feed
// Session.AppendBatch with no conversion.
type Op struct {
	Key string
	Op  history.Operation
}

// IsMagic reports whether b begins with a wire frame: the magic-byte sniff
// distinguishing binary inputs from the keyed text grammar (no valid text
// trace starts with these bytes — 'K' is not an operation kind).
func IsMagic(b []byte) bool {
	return len(b) >= len(magic) && b[0] == magic[0] && b[1] == magic[1] &&
		b[2] == magic[2] && b[3] == magic[3]
}

// Decode limits: backstops against corrupt or hostile length fields, sized
// to never reject legitimate frames (the encoder splits batches well below
// these).
const (
	// maxPayloadBytes caps one frame's stored and decompressed payload —
	// the same 1 GiB backstop the text scanner path enforces per line.
	maxPayloadBytes = 1 << 30
	// maxKeyBytes caps one dictionary key.
	maxKeyBytes = 1 << 20
)

// castagnoli is the CRC32C table (the polynomial with hardware support on
// amd64/arm64, the same checksum the WAL framing uses).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DecodeError reports a malformed frame, with the byte offset into the
// stream (counted from the first byte the decoder read) where the defect
// was detected — serving layers surface it in typed 400 responses.
type DecodeError struct {
	// Offset is the absolute stream offset of the failure.
	Offset int64
	// Msg describes the defect.
	Msg string
	// Err is the underlying cause, if any (e.g. io.ErrUnexpectedEOF for a
	// torn frame).
	Err error
}

func (e *DecodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("wire: %s at byte offset %d: %v", e.Msg, e.Offset, e.Err)
	}
	return fmt.Sprintf("wire: %s at byte offset %d", e.Msg, e.Offset)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// zigzag maps signed to unsigned so small magnitudes of either sign encode
// in few varint bytes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// validKeyByte reports whether c may appear in a key: the keyed text
// grammar's alphabet (anything but whitespace, ';', and '#'), which keeps
// binary-ingested keys round-trippable through every text-encoded durable
// path.
func validKeyByte(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '\v', '\f', ';', '#':
		return false
	}
	return true
}

// ValidKey reports whether key is expressible in the trace grammar (and so
// accepted by the decoder).
func ValidKey[K string | []byte](key K) bool {
	if len(key) == 0 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if !validKeyByte(key[i]) {
			return false
		}
	}
	return true
}

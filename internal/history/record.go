package history

// The packed operation record, the one binary form of an operation that
// packages keep in memory: the streaming engine's buffered operations
// (package opbuf) and the blocks of a keyed parse (ParseKeyed) both hold their
// operations as these records. A record is a varint sequence shaped like the
// wire codec's,
//
//	head · zigzag value · start − previous start · finish − start · [weight] · [client]
//
// about nine bytes on a plain trace, lossless for every field but ID (every
// holder numbers operations by position). The head byte is 0x80 | read<<0 |
// weight≠0<<1 | client≠0<<2 | other<<3, with the raw Kind byte following when
// the kind is neither read nor write; it is never zero, so a holder may end a
// run of records with a zero byte. The start is a delta from a base the holder
// chooses (the previous record's start, or zero to begin a run that decodes on
// its own). The deltas wrap, so any int64 timestamps round-trip.

// MaxRecord bounds one record: head, kind, and five ten-byte varints.
const MaxRecord = 52

const (
	recordMark   = 0x80
	recordRead   = 1 << 0
	recordWeight = 1 << 1
	recordClient = 1 << 2
	recordKind   = 1 << 3
)

// RecordLen is the encoded size of op's record after a start of prev.
func RecordLen(op *Operation, prev int64) int {
	n := 1 + uvarintLen(zigzag(op.Value)) + uvarintLen(zigzag(op.Start-prev)) + uvarintLen(zigzag(op.Finish-op.Start))
	if op.Kind != KindWrite && op.Kind != KindRead {
		n++
	}
	if op.Weight != 0 {
		n += uvarintLen(zigzag(op.Weight))
	}
	if op.Client != 0 {
		n += uvarintLen(zigzag(int64(op.Client)))
	}
	return n
}

// PutRecord writes op's record, its start a delta from prev, at b[i:] and
// returns the index after it. b must have room for RecordLen bytes. The
// operation is only read; it comes by pointer to spare the hot path a copy.
func PutRecord(b []byte, i int, op *Operation, prev int64) int {
	var head byte
	if k := op.Kind - KindWrite; k < 2 {
		head = recordMark | byte(k)
	} else {
		head = recordMark | recordKind
	}
	if op.Weight != 0 {
		head |= recordWeight
	}
	if op.Client != 0 {
		head |= recordClient
	}
	b[i] = head
	i++
	if head&recordKind != 0 {
		b[i] = byte(op.Kind)
		i++
	}
	i = putUvarint(b, i, zigzag(op.Value))
	i = putUvarint(b, i, zigzag(op.Start-prev))
	i = putUvarint(b, i, zigzag(op.Finish-op.Start))
	if head&(recordWeight|recordClient) != 0 {
		if head&recordWeight != 0 {
			i = putUvarint(b, i, zigzag(op.Weight))
		}
		if head&recordClient != 0 {
			i = putUvarint(b, i, zigzag(int64(op.Client)))
		}
	}
	return i
}

// ReadRecord reads the record at b[i:], written by PutRecord after a start of
// prev, into every field of *op but ID, and returns the index after it. It
// only ever reads what PutRecord wrote, so it checks nothing. The fields are
// written one by one, in place: op is often a reused buffer's element, so the
// absent ones are cleared too.
func ReadRecord(b []byte, i int, op *Operation, prev int64) int {
	head := b[i]
	i++
	op.Kind = KindWrite + Kind(head&recordRead)
	if head&recordKind != 0 {
		op.Kind = Kind(b[i])
		i++
	}
	var u uint64
	u, i = uvarint(b, i)
	op.Value = unzigzag(u)
	u, i = uvarint(b, i)
	op.Start = prev + unzigzag(u)
	u, i = uvarint(b, i)
	op.Finish = op.Start + unzigzag(u)
	op.Weight, op.Client = 0, 0
	if head&recordWeight != 0 {
		u, i = uvarint(b, i)
		op.Weight = unzigzag(u)
	}
	if head&recordClient != 0 {
		u, i = uvarint(b, i)
		op.Client = int(unzigzag(u))
	}
	return i
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// putUvarint writes v at b[i:] and returns the index after it. Both varint
// loops are small enough to inline into PutRecord and ReadRecord, where nearly
// every field of a real trace is one or two well-predicted turns.
func putUvarint(b []byte, i int, v uint64) int {
	for ; v >= 0x80; v >>= 7 {
		b[i] = byte(v) | 0x80
		i++
	}
	b[i] = byte(v)
	return i + 1
}

// uvarint reads the varint at b[i:] and returns it with the index after it.
// It only ever reads what putUvarint wrote, so it checks nothing.
func uvarint(b []byte, i int) (uint64, int) {
	v := uint64(b[i])
	if v < 0x80 {
		return v, i + 1
	}
	v &= 0x7f
	for s := uint(7); ; s += 7 {
		i++
		c := uint64(b[i])
		v |= (c & 0x7f) << (s & 63)
		if c < 0x80 {
			return v, i + 1
		}
	}
}

// Package opbuf is the streaming engine's one container for buffered
// operations: open windows, held segments and dispatched jobs all hold a List,
// and every List of one engine draws its chunks from one Store.
//
// An operation waits in the engine for as long as a later read may still
// reach it — on a trace whose keys interleave, that is most of the input at
// once, touched once when it arrives and once when its segment is verified.
// A 56-byte history.Operation in an append-grown slice costs that cold store
// one or two cache lines per operation and a copy per doubling; here an
// operation is history's packed record (history.PutRecord: a head byte and
// zigzag varints, about nine bytes on a plain trace), the same codec the
// offline keyed parse holds its blocks in. The framing is opbuf's: a zero
// byte where a head would stand ends a chunk that is not full, and the first
// record of a chunk takes its start as a delta from zero, so every chunk
// decodes on its own and lists splice at chunk boundaries without touching a
// record.
//
// Records sit in fixed-size chunks that hold no pointers — the collector
// never scans them and allocating one writes no type header — carved from
// slabs and named by index; a chunk's link to the next one is an index too.
// A List is a 40-byte value (first and last chunk, the last one's fill, the
// delta base, the counts) that lives inline in its owner, so a window, a segment or
// a merge allocates nothing: Push encodes into the tail chunk, Splice links
// two chains, Decode expands a chain into a caller's buffer, Free hands the
// whole chain back in one step. Freed chunks go to a lock-free stack (a tagged
// head word; pushing a chain is one compare-and-swap), so verification
// workers return them to the ingest side without taking a lock. The Store
// keeps its high-water mark of chunks until it is collected with its engine.
//
// A List is not safe for concurrent use (its owner's lock guards it); a Store
// is.
package opbuf

import (
	"slices"
	"sync"
	"sync/atomic"

	"kat/internal/history"
)

const (
	// ChunkBytes is the size of one chunk, link included: what a list costs
	// per chunk it holds. Small enough that the half-empty tail every window
	// and held segment carries is about a dozen operations' worth, large
	// enough that the link and the absolute first start are a few percent.
	ChunkBytes = 256
	dataBytes  = ChunkBytes - 4

	// A chunk index is slab<<slabBits | offset. Slabs double from firstSlab
	// chunks to 1<<slabBits, so a small session costs a few KB and a large one
	// grows a MB at a time.
	slabBits  = 11
	firstSlab = 16
)

// chunk is one fixed-size run of records. next is atomic because a popper of
// the free stack reads it while a racing popper may already own the chunk
// (the tag then fails the first one's swap); everything else about a chunk
// belongs to the list that holds it.
type chunk struct {
	next atomic.Uint32
	data [dataBytes]byte
}

// List is a sequence of packed operations; the zero value is empty. Copying
// the value moves the list: use one copy.
type List struct {
	head   uint32 // index of the first chunk, 0 when empty
	fill   uint32 // bytes of the last chunk in use
	chunks uint32
	n      int
	last   int64  // start of the last chunk's last record: the next delta's base
	tail   *chunk // the last chunk itself, so a push looks nothing up
}

// Len returns the number of operations in the list.
func (l *List) Len() int { return l.n }

// Bytes returns the chunk bytes the list holds.
func (l *List) Bytes() int64 { return int64(l.chunks) * ChunkBytes }

// Store owns the chunks of every List filled through it. The zero value is
// ready to use.
type Store struct {
	// slabs is the index → chunk table, republished whole when it grows so
	// lookups take no lock.
	slabs atomic.Pointer[[][]chunk]
	// free is the stack of free chunks: tag<<32 | head index. The tag counts
	// every swap, so a popper that read a stale link cannot succeed.
	free atomic.Uint64

	growMu sync.Mutex
	total  int // chunks carved so far, guarded by growMu
}

func (s *Store) chunk(i uint32) *chunk {
	return &(*s.slabs.Load())[i>>slabBits][i&(1<<slabBits-1)]
}

// alloc pops a free chunk, carving a new slab when there is none.
func (s *Store) alloc() (uint32, *chunk) {
	for {
		old := s.free.Load()
		i := uint32(old)
		if i == 0 {
			s.grow()
			continue
		}
		c := s.chunk(i)
		if s.free.CompareAndSwap(old, (old>>32+1)<<32|uint64(c.next.Load())) {
			c.next.Store(0)
			return i, c
		}
	}
}

// release pushes the chain head..tail, already linked, onto the free stack.
func (s *Store) release(head uint32, tail *chunk) {
	for {
		old := s.free.Load()
		tail.next.Store(uint32(old))
		if s.free.CompareAndSwap(old, (old>>32+1)<<32|uint64(head)) {
			return
		}
	}
}

// grow carves one more slab, as large as everything carved before it, and
// frees its chunks.
func (s *Store) grow() {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	if uint32(s.free.Load()) != 0 {
		return // another goroutine grew, or chunks came back, while we waited
	}
	var table [][]chunk
	if p := s.slabs.Load(); p != nil {
		table = *p
	}
	n := min(max(firstSlab, s.total), 1<<slabBits)
	slab := make([]chunk, n)
	base := uint32(len(table)) << slabBits
	first := base
	if first == 0 {
		first = 1 // index 0 is the nil link
	}
	for i := first; i < base+uint32(n)-1; i++ {
		slab[i-base].next.Store(i + 1)
	}
	table = append(table[:len(table):len(table)], slab)
	s.slabs.Store(&table)
	s.total += n
	s.release(first, &slab[n-1])
}

// Push appends *op to l and reports whether the list took a new chunk. The
// operation is only read; it comes by pointer to spare the hot path a copy.
func (s *Store) Push(l *List, op *history.Operation) bool {
	grew := l.tail == nil || l.fill > dataBytes-history.MaxRecord && int(l.fill)+history.RecordLen(op, l.last) > dataBytes
	if grew {
		i, c := s.alloc()
		if l.tail == nil {
			l.head = i
		} else {
			l.tail.next.Store(i)
		}
		l.tail, l.fill, l.last = c, 0, 0
		l.chunks++
	}
	b := l.tail.data[:]
	i := history.PutRecord(b, int(l.fill), op, l.last)
	if i < len(b) {
		b[i] = 0 // ends the chunk until the next record overwrites it
	}
	l.fill = uint32(i)
	l.last = op.Start
	l.n++
	return grew
}

// Decode appends l's operations to dst, IDs numbered by position in dst, and
// returns the extended slice. l is unchanged.
func (s *Store) Decode(l *List, dst []history.Operation) []history.Operation {
	j := len(dst)
	dst = slices.Grow(dst, l.n)[:j+l.n]
	for ci := l.head; ci != 0; {
		c := s.chunk(ci)
		b := c.data[:]
		var last int64
		for i := 0; i < len(b) && b[i] != 0; j++ {
			op := &dst[j]
			i = history.ReadRecord(b, i, op, last)
			op.ID = j
			last = op.Start
		}
		ci = c.next.Load()
	}
	return dst
}

// Splice moves src's operations to the end of dst, leaving src empty. No
// record is read or moved: the chains are linked.
func (s *Store) Splice(dst, src *List) {
	switch {
	case src.head == 0:
	case dst.head == 0:
		*dst = *src
	default:
		dst.tail.next.Store(src.head)
		dst.tail, dst.fill, dst.last = src.tail, src.fill, src.last
		dst.chunks += src.chunks
		dst.n += src.n
	}
	*src = List{}
}

// Free returns l's chunks to the store, leaving l empty.
func (s *Store) Free(l *List) {
	if l.head != 0 {
		s.release(l.head, l.tail)
	}
	*l = List{}
}

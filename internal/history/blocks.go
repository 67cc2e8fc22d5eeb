package history

// The ordered block pipeline behind ParseKeyed: the caller reads blocks of
// whole lines and scans them with the workers, each block's operations packed
// as records (record.go) in input order, each tagged with its key's run; the
// caller places the runs per key in input order, and at the end of input
// sizes every key's one history and decodes the blocks into place, each block
// on whichever of the caller and the workers claims it. An operation is held
// once packed, about nine bytes, and once in its history.

import (
	"bytes"
	"hash/maphash"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// keyRun is one key's operations within a block: n of them, to be decoded
// into ops[off:off+n] of history dst.
type keyRun struct {
	key         []byte // a view into the block's text, until the block is stitched
	hash        uint64
	n, dst, off int
}

// scanned is a block's operations in input order, each one the varint index
// of its key's run followed by its record, whose start is a delta from the
// previous operation's; kept until the end of input.
type scanned struct {
	recs []byte
	runs []keyRun
}

// decode writes each operation into its key's history, numbered by its
// position there. Blocks write disjoint ranges, so they decode concurrently.
func (b *scanned) decode(hs []History) {
	var last int64
	for i := 0; i < len(b.recs); {
		var run uint64
		run, i = uvarint(b.recs, i)
		r := &b.runs[run]
		op := &hs[r.dst].Ops[r.off]
		i = ReadRecord(b.recs, i, op, last)
		op.ID = r.off
		last = op.Start
		r.off++
	}
}

// scanner is a block in flight: its text, reused buffers, and what scanning
// it made.
type scanner struct {
	text  []byte
	segs  int   // segments scanned, the bad one included
	err   error // the first bad segment, numbered from the block's start
	out   *scanned
	recs  []byte // the block's records, as scanned.recs
	prev  int64  // the start of the block's previous operation
	runs  []keyRun
	last  int     // the run the previous operation joined
	table []int32 // open addressing over runs: index+1, 0 empty
	seed  maphash.Seed
	done  chan struct{}
}

func newScanner() *scanner {
	return &scanner{seed: maphash.MakeSeed(), table: make([]int32, 64), done: make(chan struct{}, 1)}
}

// scan parses the block and files each operation under its key's run, the
// runs in order of their keys' first appearance.
func (s *scanner) scan() {
	s.recs, s.prev = s.recs[:0], 0
	s.runs, s.last = s.runs[:0], 0
	clear(s.table)
	d := TextDecoder{Keyed: true}
	s.err = d.Scan(s.text, s.add)
	s.segs = d.seg
	if s.err == nil {
		s.out = &scanned{recs: bytes.Clone(s.recs), runs: slices.Clone(s.runs)}
	}
}

// maxRunIndex bounds the varint of a run's index.
const maxRunIndex = 10

// add is scan's emit.
func (s *scanner) add(key []byte, op Operation) error {
	i := s.last
	if len(s.runs) == 0 || !bytes.Equal(s.runs[i].key, key) {
		i = s.find(key)
		s.last = i
	}
	s.runs[i].n++
	b := slices.Grow(s.recs, maxRunIndex+MaxRecord)
	j := len(b)
	b = b[:cap(b)]
	j = putUvarint(b, j, uint64(i))
	j = PutRecord(b, j, &op, s.prev)
	s.recs = b[:j]
	s.prev = op.Start
	return nil
}

// find returns the index of key's run, opening one the first time.
func (s *scanner) find(key []byte) int {
	h := maphash.Bytes(s.seed, key)
	mask := uint64(len(s.table) - 1)
	for slot := h & mask; ; slot = (slot + 1) & mask {
		i := int(s.table[slot]) - 1
		if i < 0 {
			s.runs = append(s.runs, keyRun{key: key, hash: h})
			s.table[slot] = int32(len(s.runs))
			if 2*len(s.runs) > len(s.table) {
				s.rehash()
			}
			return len(s.runs) - 1
		}
		if r := &s.runs[i]; r.hash == h && bytes.Equal(r.key, key) {
			return i
		}
	}
}

// rehash doubles the table.
func (s *scanner) rehash() {
	s.table = make([]int32, 2*len(s.table))
	mask := uint64(len(s.table) - 1)
	for i, r := range s.runs {
		slot := r.hash & mask
		for s.table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.table[slot] = int32(i + 1)
	}
}

// read copies the decoder's next block into s's own buffer and reports
// whether there was one; at the end it returns nil for io.EOF and the
// reader's error otherwise.
func (s *scanner) read(d *TextDecoder) (bool, error) {
	text, err := d.Next()
	if err != nil {
		if err == io.EOF {
			err = nil
		}
		return false, err
	}
	s.text = append(s.text[:0], text...)
	return true, nil
}

// stitcher numbers the scanned blocks' runs per key in input order.
type stitcher struct {
	index  map[string]int // key → its index in keys and counts
	keys   []string
	counts []int
	kept   []*scanned
	segs   int // segments in the blocks stitched so far
}

// stitch takes the next block in input order, or returns its parse error.
func (st *stitcher) stitch(s *scanner) error {
	if s.err != nil {
		// Scan again from the right count: the error names its segment by
		// its position in the whole input.
		d := TextDecoder{Keyed: true, seg: st.segs}
		return d.Scan(s.text, func([]byte, Operation) error { return nil })
	}
	for i := range s.out.runs {
		r := &s.out.runs[i]
		k, ok := st.index[string(r.key)]
		if !ok {
			k = len(st.keys)
			st.keys = append(st.keys, string(r.key))
			st.counts = append(st.counts, 0)
			st.index[st.keys[k]] = k
		}
		r.key, r.dst, r.off = nil, k, st.counts[k]
		st.counts[k] += r.n
	}
	st.kept = append(st.kept, s.out)
	st.segs += s.segs
	return nil
}

// histories sizes each key's history and decodes the kept blocks into it:
// the caller and up to helpers more goroutines, reached through jobs, each
// claiming the next block until none is left.
func (st *stitcher) histories(jobs chan<- func(), helpers int) map[string]*History {
	hs := make([]History, len(st.keys))
	out := make(map[string]*History, len(st.keys))
	for k, key := range st.keys {
		hs[k].Ops = make([]Operation, st.counts[k])
		out[key] = &hs[k]
	}
	var next atomic.Int64
	decode := func() {
		for i := next.Add(1) - 1; i < int64(len(st.kept)); i = next.Add(1) - 1 {
			st.kept[i].decode(hs)
		}
	}
	var wg sync.WaitGroup
	for h := 1; h <= helpers && h < len(st.kept); h++ {
		wg.Add(1)
		jobs <- func() {
			defer wg.Done()
			decode()
		}
	}
	decode()
	wg.Wait()
	return out
}

// ParseKeyed reads the keyed text format from r to its end and returns each
// key's history, its operations in input order with IDs their positions. The
// caller's goroutine reads blocks of whole lines and scans them alongside
// GOMAXPROCS-1 more goroutines, at most GOMAXPROCS+1 blocks in flight, and
// the same goroutines decode the packed blocks into place at the end. A
// one-block input, or GOMAXPROCS=1, is parsed on the caller's goroutine
// alone. Errors are what ScanText would return: the first bad segment in
// input order, numbered across blocks, beats any later read error. Every
// goroutine started has exited or is exiting when ParseKeyed returns.
func ParseKeyed(r io.Reader) (map[string]*History, error) {
	return parseKeyed(r, parseBlock, runtime.GOMAXPROCS(0)-1)
}

// parseBlock is ParseKeyed's block size: large enough that scanning a block
// outweighs handing it to another goroutine and back, which costs a thread
// wake-up when the caller is locked to its thread.
const parseBlock = 256 << 10

// parseKeyed is ParseKeyed over blocks of about block bytes, the caller
// helped by workers goroutines.
func parseKeyed(r io.Reader, block, workers int) (map[string]*History, error) {
	d := TextDecoder{Keyed: true}
	d.Reset(r, block)
	st := stitcher{index: make(map[string]int)}
	// Sends never block: no more jobs are queued than blocks in flight, and
	// the end's decode jobs, one a worker, find the queue empty.
	jobs := make(chan func(), workers+2)
	var wg sync.WaitGroup
	defer func() {
		close(jobs)
		wg.Wait()
	}()
	// The workers start with the second block, so one block starts none.
	started := 0
	var queue []*scanner // the blocks in flight, oldest first
	var spare *scanner
	more, rerr := true, error(nil)
	for {
		for more && len(queue) < workers+2 {
			s := spare
			if s == nil {
				s = newScanner()
			}
			if more, rerr = s.read(&d); !more {
				break
			}
			spare = nil
			queue = append(queue, s)
			if len(queue) == 2 && started == 0 {
				for started < workers {
					started++
					wg.Add(1)
					go func() {
						defer wg.Done()
						for job := range jobs {
							job()
						}
					}()
				}
			}
			jobs <- func() {
				s.scan()
				s.done <- struct{}{}
			}
		}
		if len(queue) == 0 {
			break
		}
		s := queue[0]
		queue = append(queue[:0], queue[1:]...)
		// Until the oldest block is scanned, scan a queued one here.
	wait:
		for {
			select {
			case job := <-jobs:
				job()
			case <-s.done:
				break wait
			}
		}
		if err := st.stitch(s); err != nil {
			return nil, err
		}
		spare = s
	}
	if rerr != nil {
		return nil, rerr
	}
	return st.histories(jobs, started), nil
}

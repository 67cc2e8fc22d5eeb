// Package trace handles multi-register workloads. k-atomicity is a local
// property (Section II-B of the paper): a multi-key trace satisfies a
// consistency bound iff every per-key subhistory does, so verification
// splits the trace by key and runs the single-register algorithms on each.
//
// Traces are read and written in the keyed form of the text format — the
// single-register one with a key column after the kind — which package
// history states and implements (history/text.go); the functions here only
// say what becomes of the operations. Values must be unique per key (they
// identify writes within a register), not globally.
package trace

import (
	"bufio"
	"io"
	"sort"
	"strings"

	"kat/internal/core"
	"kat/internal/history"
	"kat/internal/wire"
)

// Trace is a multi-register history: operations tagged with register keys.
type Trace struct {
	Keys map[string]*history.History
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{Keys: make(map[string]*history.History)}
}

// Add appends an operation to the given key's register.
func (t *Trace) Add(key string, op history.Operation) {
	h, ok := t.Keys[key]
	if !ok {
		h = &history.History{}
		t.Keys[key] = h
	}
	op.ID = h.Len()
	h.Ops = append(h.Ops, op)
}

// Len returns the total number of operations across all keys.
func (t *Trace) Len() int {
	n := 0
	for _, h := range t.Keys {
		n += h.Len()
	}
	return n
}

// SortedKeys returns the register keys in lexicographic order.
func (t *Trace) SortedKeys() []string {
	out := make([]string, 0, len(t.Keys))
	for k := range t.Keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Parse reads a multi-register trace from the keyed text format.
func Parse(text string) (*Trace, error) {
	return ParseReader(strings.NewReader(text))
}

// ParseStreamBytes reads the keyed text format from r and invokes emit for
// every operation in input order, without materializing the input or the
// trace: memory is one read chunk plus whatever emit retains. The key reaches
// emit as a view into the read buffer, valid only during the call, so callers
// that intern or hash keys themselves pay no per-operation string. Returning
// an error from emit aborts the parse with that error.
func ParseStreamBytes(r io.Reader, emit func(key []byte, op history.Operation) error) error {
	return history.ScanText(r, true, emit)
}

// ParseReader reads a whole multi-register trace from r, so memory is
// proportional to the operations, not the raw text plus the operations. Blocks
// of the text are scanned in parallel and stitched per key in input order
// (history.ParseKeyed), so the trace and any error are what a serial read
// gives. Use it for file and stdin inputs.
func ParseReader(r io.Reader) (*Trace, error) {
	keys, err := history.ParseKeyed(r)
	if err != nil {
		return nil, err
	}
	return &Trace{Keys: keys}, nil
}

// AppendKeyedOpText is history.AppendOpText under the name the serving layers
// and the benchmark know it by.
func AppendKeyedOpText[K string | []byte](buf []byte, key K, op history.Operation) []byte {
	return history.AppendOpText(buf, key, op)
}

// String renders the trace in the keyed text format, keys in sorted order.
func (t *Trace) String() string {
	var buf []byte
	for _, key := range t.SortedKeys() {
		for _, op := range t.Keys[key].Ops {
			buf = history.AppendOpText(buf, key, op)
		}
	}
	return string(buf)
}

// arrivalOrder lists the trace's operations by start time — the arrival
// order of an operation log, which is exactly what the streaming engine
// requires of its input (nondecreasing starts per key); ties break by key,
// then by ID.
func arrivalOrder(t *Trace) []KeyedOp {
	ops := make([]KeyedOp, 0, t.Len())
	for key, h := range t.Keys {
		for _, op := range h.Ops {
			ops = append(ops, KeyedOp{Key: key, Op: op})
		}
	}
	sort.Slice(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		if a.Op.Start != b.Op.Start {
			return a.Op.Start < b.Op.Start
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Op.ID < b.Op.ID
	})
	return ops
}

// WriteArrivalOrder renders the trace in the keyed text format in arrival
// order (see arrivalOrder).
func WriteArrivalOrder(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, r := range arrivalOrder(t) {
		line = history.AppendOpText(line[:0], r.Key, r.Op)
		bw.Write(line) // a failed write is sticky: Flush reports it
	}
	return bw.Flush()
}

// WriteWireArrivalOrder renders the trace as a binary wire stream in the
// same arrival order WriteArrivalOrder uses: frames of frameOps operations
// (a sensible default when <= 0) sharing one key dictionary, optionally
// compressed. The output feeds Session.AppendWire, kavcheck -stream, and
// binary /ingest bodies.
func WriteWireArrivalOrder(w io.Writer, t *Trace, frameOps int, compress bool) error {
	if frameOps <= 0 {
		frameOps = 512
	}
	enc := wire.NewEncoder()
	enc.SetCompress(compress)
	var buf []byte
	ops := arrivalOrder(t)
	for i, r := range ops {
		if err := enc.Add(r.Key, r.Op); err != nil {
			return err
		}
		if enc.Pending() >= frameOps || i == len(ops)-1 {
			buf = enc.AppendFrame(buf[:0])
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// KeyReport is the verification outcome for one register.
type KeyReport struct {
	Key    string
	Ops    int
	Atomic bool
	// Err records a per-key anomaly or verification failure; the key is
	// counted as not atomic when set.
	Err error
}

// Report aggregates per-key results for a bound k.
type Report struct {
	K    int
	Keys []KeyReport
}

// Atomic reports whether every register verified.
func (r Report) Atomic() bool {
	for _, kr := range r.Keys {
		if !kr.Atomic {
			return false
		}
	}
	return true
}

// FailingKeys lists keys that did not verify.
func (r Report) FailingKeys() []string {
	var out []string
	for _, kr := range r.Keys {
		if !kr.Atomic {
			out = append(out, kr.Key)
		}
	}
	return out
}

// Check verifies every register at bound k (locality: the trace is k-atomic
// iff every register is). Keys are verified sequentially with one reused
// Verifier; use CheckParallel to saturate multiple cores.
func Check(t *Trace, k int, opts core.Options) Report {
	return CheckParallel(t, k, opts, 1)
}

// CheckParallel is Check with verification fanned out over one pool of
// (key, chunk) units. workers <= 0 uses GOMAXPROCS. Each key forks as a unit
// that prepares the register and then forks its chunk (k=2) or safe-cut
// segment (k >= 3) sub-units back onto the same pool, so a skewed trace with
// one hot key still saturates every worker — free workers claim chunks
// instead of waiting at key boundaries. Every outcome is written into
// its key-sorted slot and all cross-unit combining is commutative, so the
// Report is identical to the sequential one regardless of worker count.
func CheckParallel(t *Trace, k int, opts core.Options, workers int) Report {
	keys := t.SortedKeys()
	rep := Report{K: k, Keys: make([]KeyReport, len(keys))}
	forEachKey(keys, workers, func(v *core.Verifier, i int) {
		key := keys[i]
		h := t.Keys[key]
		kr := KeyReport{Key: key, Ops: h.Len()}
		r, err := v.Check(h, k, opts)
		if err != nil {
			kr.Err = err
		} else {
			kr.Atomic = r.Atomic
		}
		rep.Keys[i] = kr
	})
	return rep
}

// SmallestKByKey computes the smallest k per register; errors are reported
// per key (k=0 for failed keys).
func SmallestKByKey(t *Trace, opts core.Options) map[string]int {
	return SmallestKByKeyParallel(t, opts, 1)
}

// SmallestKByKeyParallel is SmallestKByKey over the shared (key, chunk)
// pool (workers <= 0 uses GOMAXPROCS): each key's search forks
// per-segment smallest-k probes back onto the pool, so a single deep key no
// longer serializes the sweep. The result is identical to the sequential
// form for any worker count.
func SmallestKByKeyParallel(t *Trace, opts core.Options, workers int) map[string]int {
	keys := t.SortedKeys()
	results := make([]int, len(keys))
	forEachKey(keys, workers, func(v *core.Verifier, i int) {
		k, err := v.SmallestK(t.Keys[keys[i]], opts)
		if err != nil {
			k = 0
		}
		results[i] = k
	})
	out := make(map[string]int, len(keys))
	for i, key := range keys {
		out[key] = results[i]
	}
	return out
}

// forEachKey forks fn over the keys as units of one pool:
// each unit runs on its worker's Verifier and may fork chunk sub-units;
// results land in disjoint slots, so output is deterministic. workers <= 0
// uses GOMAXPROCS.
func forEachKey(keys []string, workers int, fn func(v *core.Verifier, i int)) {
	core.Run(workers, func(v *core.Verifier) { v.Fork(len(keys), fn) })
}

// WorstK returns the maximum smallest-k across registers (the trace-level
// staleness bound) and the key exhibiting it. Keys that fail verification
// are skipped; ok is false if no key verified.
func WorstK(t *Trace, opts core.Options) (k int, key string, ok bool) {
	for cand, ck := range SmallestKByKey(t, opts) {
		if ck == 0 {
			continue
		}
		if !ok || ck > k || (ck == k && cand < key) {
			k, key, ok = ck, cand, true
		}
	}
	return k, key, ok
}

// Package trace handles multi-register workloads. k-atomicity is a local
// property (Section II-B of the paper): a multi-key trace satisfies a
// consistency bound iff every per-key subhistory does, so verification
// splits the trace by key and runs the single-register algorithms on each —
// offline on each run of a key's safe-cut segments (forEachUnit), online on
// each segment the streaming engine closes.
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
	"sync"

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
// proportional to the operations, not the raw text plus the operations: blocks
// are scanned in parallel into packed records of about nine bytes, stitched per
// key in input order, and decoded in parallel into place (history.ParseKeyed).
// The trace and any error are a serial read's. Use it for file and stdin.
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
// iff every register is). Registers are verified one unit after another with
// one reused Verifier; use CheckParallel to saturate multiple cores.
func Check(t *Trace, k int, opts core.Options) Report {
	return CheckParallel(t, k, opts, 1)
}

// CheckParallel is Check with verification fanned out over one pool of units
// (workers <= 0 uses GOMAXPROCS): one per run of a register's safe-cut
// segments (forEachUnit), each of which may fork its chunk (k=2) or segment
// (k >= 3) sub-units back onto the same pool. A register is cut whatever
// order it lists its operations in; one with an anomaly is checked whole, and
// a run's error is its register's, so every error reads word for word as the
// whole-register check gives it. Every outcome is folded commutatively into
// its key-sorted slot, so the Report is identical to the sequential one
// regardless of worker count.
func CheckParallel(t *Trace, k int, opts core.Options, workers int) Report {
	keys := t.SortedKeys()
	worst, errs := forEachUnit(t, keys, workers, func(v *core.Verifier, p *history.Prepared) (int, error) {
		r, err := v.CheckPrepared(p, k, opts)
		if r.Atomic {
			return 0, err
		}
		return 1, err
	})
	rep := Report{K: k, Keys: make([]KeyReport, len(keys))}
	for i, key := range keys {
		rep.Keys[i] = KeyReport{Key: key, Ops: t.Keys[key].Len(), Atomic: worst[i] == 0 && errs[i] == nil, Err: errs[i]}
	}
	return rep
}

// SmallestKByKey computes the smallest k per register; errors are reported
// per key (k=0 for failed keys).
func SmallestKByKey(t *Trace, opts core.Options) map[string]int {
	return SmallestKByKeyParallel(t, opts, 1)
}

// SmallestKByKeyParallel is SmallestKByKey over the same units as
// CheckParallel (workers <= 0 uses GOMAXPROCS): each run climbs the smallest-k
// ladder on its own, and a register's answer is the maximum over its runs.
// The result is identical to the sequential form for any worker count.
func SmallestKByKeyParallel(t *Trace, opts core.Options, workers int) map[string]int {
	keys := t.SortedKeys()
	ks, errs := forEachUnit(t, keys, workers, func(v *core.Verifier, p *history.Prepared) (int, error) {
		return v.SmallestKPrepared(p, opts)
	})
	out := make(map[string]int, len(keys))
	for i, key := range keys {
		if errs[i] != nil {
			ks[i] = 0
		}
		out[key] = ks[i]
	}
	return out
}

// cutScratch holds the cut pass's value tables between keys and calls.
var cutScratch = sync.Pool{New: func() any { return new(history.PrepareScratch) }}

// forEachUnit is the one fork of the offline checks. It cuts every key at its
// safe cuts into runs of at least DefaultMinSegmentOps operations, a linear
// pass over the raw operations in any order before anything is prepared
// (history.PrepareScratch.SafeUnits), and forks the runs of every key over one
// pool: each is copied into its worker's own buffer, prepared there and handed
// to check. A key's first run keeps its IDs, positions already when the trace
// came from Add or a parse; a later run's are renumbered from 0, so the
// builder takes its packed form either way. The results are folded per key by maximum, which the segment-equivalence lemma
// makes exact. A key with an anomaly is one run of all its operations as given
// — Verifier.Check's and SmallestK's path — so its error is the whole key's.
// Otherwise the key's error is its first erring run's: the cut pass has
// declined every anomaly, so a run can only fail in the oracle's state budget,
// whose error names no operation, on one of the key's own segments. Results
// land in disjoint slots, so output is deterministic.
func forEachUnit(t *Trace, keys []string, workers int, check func(v *core.Verifier, p *history.Prepared) (int, error)) ([]int, []error) {
	type job struct{ key, lo, hi int }
	// A key's runs start in its slot of one, so a key of one run allocates
	// no list of its own.
	cuts, one := make([][][2]int, len(keys)), make([][2]int, len(keys))
	out, errs := make([]int, len(keys)), make([]error, len(keys))
	core.Run(workers, func(v *core.Verifier) {
		v.Fork(len(keys), func(_ *core.Verifier, i int) {
			s := cutScratch.Get().(*history.PrepareScratch)
			cuts[i], _ = s.SafeUnits(t.Keys[keys[i]].Ops, DefaultMinSegmentOps, one[i:i:i+1])
			cutScratch.Put(s)
		})
		var jobs []job
		for i, us := range cuts {
			for _, u := range us {
				jobs = append(jobs, job{i, u[0], u[1]})
			}
		}
		res, jerrs := make([]int, len(jobs)), make([]error, len(jobs))
		v.Fork(len(jobs), func(w *core.Verifier, j int) {
			jb, own := jobs[j], w.Owned()
			own.Ops = append(own.Ops, t.Keys[keys[jb.key]].Ops[jb.lo:jb.hi]...)
			if jb.lo > 0 {
				for x := range own.Ops {
					own.Ops[x].ID = x
				}
			}
			p, err := w.PrepareOwned(own, false)
			if err == nil {
				res[j], err = check(w, p)
			}
			jerrs[j] = err
		})
		for j, jb := range jobs {
			if jerrs[j] == nil {
				out[jb.key] = max(out[jb.key], res[j])
			} else if errs[jb.key] == nil {
				errs[jb.key] = jerrs[j]
			}
		}
	})
	return out, errs
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

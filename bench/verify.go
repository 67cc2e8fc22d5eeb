//go:build linux

package main

import (
	"fmt"
	"sort"
	"sync"

	"kat"
	"kat/internal/online"
)

// verify compares what the program under test reported on the warm-up
// repetition with the offline checker on the same generated trace, and
// returns the number of operations that failed (a key whose verdict differs
// fails every one of its operations) with a description of each mismatch.
// It runs outside the timed window and outside setup_s.
//
// The offline checker certifies each reported value instead of searching for
// it: smallest k is s iff the key is s-atomic and not (s-1)-atomic, smallest
// Δ is d iff it is d-atomic in time and not (d-1)-atomic, both properties
// being monotone. That is the same equality as with kat.SmallestKByKey and
// kat.SmallestDelta (the tests compare the two forms), at the cost of two
// fixed-bound checks instead of a search whose k >= 3 probes run the
// exponential oracle on a hot key's whole history.
func verify(w workload, in *inputs, r *rep) (failed int, mismatches []string) {
	if w.offline {
		// Generated with staleness depth 1: every key is 2-atomic, and the
		// checker must have counted every generated operation.
		if r.badKeys != 0 {
			mismatches = append(mismatches, fmt.Sprintf("%d keys reported not 2-atomic", r.badKeys))
		}
		if r.ops != in.ops {
			mismatches = append(mismatches, fmt.Sprintf("checker counted %d ops, %d generated", r.ops, in.ops))
		}
		if len(mismatches) > 0 {
			failed = in.ops
		}
		return failed, mismatches
	}
	tr := &kat.Trace{Keys: in.byKey(-1)}
	if !r.doc.Drained {
		mismatches = append(mismatches, "verdict document is not drained")
	}
	got := map[string]online.KeyStatus{}
	for _, ks := range r.doc.Keys {
		got[ks.Key] = ks
	}
	why := map[string]string{} // key -> first mismatch
	byK := map[int]*kat.Trace{}
	for key, h := range tr.Keys {
		ks, ok := got[key]
		switch {
		case !ok:
			why[key] = "missing from /verdict"
		case ks.Ops != h.Len():
			why[key] = fmt.Sprintf("ops %d, generated %d", ks.Ops, h.Len())
		case ks.Saturated || ks.Err != "" || ks.SmallestK < 1:
			why[key] = fmt.Sprintf("smallestK %d (saturated %v, error %q)", ks.SmallestK, ks.Saturated, ks.Err)
		default:
			if byK[ks.SmallestK] == nil {
				byK[ks.SmallestK] = kat.NewTrace()
			}
			byK[ks.SmallestK].Keys[key] = h
		}
	}
	for s, sub := range byK {
		for _, kr := range kat.CheckTraceParallel(sub, s, kat.Options{}, 0).Keys {
			if !kr.Atomic {
				why[kr.Key] = fmt.Sprintf("smallestK %d, but offline the key is not %d-atomic (%v)", s, s, kr.Err)
			}
		}
		if s == 1 {
			continue
		}
		for _, kr := range kat.CheckTraceParallel(sub, s-1, kat.Options{}, 0).Keys {
			if kr.Atomic {
				why[kr.Key] = fmt.Sprintf("smallestK %d, but offline the key is already %d-atomic", s, s-1)
			}
		}
	}
	if props, _ := kat.ParseProperties(w.props); props.Has(kat.PropertyDelta) {
		for key, diff := range offlineProps(tr, got) {
			if _, bad := why[key]; !bad {
				why[key] = diff
			}
		}
	}
	keys := make([]string, 0, len(why))
	for key := range why {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		failed += tr.Keys[key].Len()
		mismatches = append(mismatches, key+": "+why[key])
	}
	if extra := len(got) - len(tr.Keys); extra > 0 {
		mismatches = append(mismatches, fmt.Sprintf("%d keys in /verdict that were never sent", extra))
	}
	return failed, mismatches
}

// offlineProps certifies each key's reported smallest Δ with kat.CheckDelta
// and compares its irregular/unsafe read counts with kat.CheckProperties,
// two keys at a time (the box has two cores). It returns a description per
// differing key.
func offlineProps(tr *kat.Trace, got map[string]online.KeyStatus) map[string]string {
	keys := tr.SortedKeys()
	diffs := make([]string, len(keys))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ks, ok := got[keys[i]]; ok {
					diffs[i] = propsDiff(tr.Keys[keys[i]], ks)
				}
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	out := map[string]string{}
	for i, d := range diffs {
		if d != "" {
			out[keys[i]] = d
		}
	}
	return out
}

func propsDiff(h *kat.History, ks online.KeyStatus) string {
	if ks.Delta == nil || ks.Regularity == nil {
		return "delta/regularity missing from /verdict"
	}
	d := ks.Delta.SmallestDelta
	if ks.Delta.Saturated || d < 0 {
		return fmt.Sprintf("smallestDelta %d (saturated %v)", d, ks.Delta.Saturated)
	}
	if ok, err := kat.CheckDelta(h, d); err != nil || !ok {
		return fmt.Sprintf("smallestDelta %d, but offline the key is not Δ-atomic at %d (%v)", d, d, err)
	}
	if d > 0 {
		if ok, err := kat.CheckDelta(h, d-1); err != nil || ok {
			return fmt.Sprintf("smallestDelta %d, but offline the key is already Δ-atomic at %d (%v)", d, d-1, err)
		}
	}
	p, err := kat.Prepare(h)
	if err != nil {
		return "offline prepare: " + err.Error()
	}
	v := kat.CheckProperties(p)
	if ks.Regularity.IrregularReads != len(v.IrregularReads) || ks.Regularity.UnsafeReads != len(v.UnsafeReads) {
		return fmt.Sprintf("irregular/unsafe reads %d/%d, offline %d/%d",
			ks.Regularity.IrregularReads, ks.Regularity.UnsafeReads, len(v.IrregularReads), len(v.UnsafeReads))
	}
	return ""
}

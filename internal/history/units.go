package history

// SafeUnits is the offline check's cut pass: it splits one register's raw
// operations, before any prepare, into runs that can be verified one by one.
// The operations may be listed in any order. A position i is cut when
//
//	(a) every operation before i finishes strictly before every operation at
//	    or after i starts (a real-time cut of the operation set, raw strict
//	    quiescence when ops is in start order), and
//	(b) no read at or after i returns a value written before i.
//
// Such a cut is a safe cut of the prepared history too: the builder sorts by
// start, which puts the operations before i first, ranking keeps strict order,
// and shortening a write only moves its finish down to just before one of its
// own reads, so (a) survives the builder, and (b) is about values alone. A run
// normalized on its own is the same history, up to renaming the timestamps, as
// the whole register's normalization restricted to it, so by the
// segment-equivalence lemma (zone/cut.go) the register is k-atomic iff every
// run is, for every k, and its smallest k is the maximum over the runs. (The
// builder can find more cuts than these — a shortened write can open a gap the
// raw timestamps close — so a run may still hold several safe-cut segments;
// the checkers find those themselves.)
//
// Adjacent segments are grouped into runs of at least floor operations (the
// last run may take a short tail), appended to units as [lo, hi) ranges that
// cover ops. ok is false, and units gains the one run [0, len(ops)), when ops
// holds one of the four anomalies the builder does not repair: a finish
// before its start, a second write of a value, a read no write dictates, a
// read that finishes before its write starts — index's rules, so a register is
// declined exactly when Build would report an anomaly. The pass reads ops only
// and keeps its value table and candidate cuts in s.
func (s *PrepareScratch) SafeUnits(ops []Operation, floor int, units [][2]int) (_ [][2]int, ok bool) {
	if !s.safeCuts(ops) {
		return append(units, [2]int{0, len(ops)}), false
	}
	lo, first := 0, len(units)
	for _, c := range s.cuts {
		if c.at-lo >= floor {
			units = append(units, [2]int{lo, c.at})
			lo = c.at
		}
	}
	if len(ops)-lo < floor && len(units) > first {
		lo = units[len(units)-1][0] // a short tail joins the run before it
		units = units[:len(units)-1]
	}
	return append(units, [2]int{lo, len(ops)}), true
}

// safeCuts leaves in s.cuts every position SafeUnits may cut ops at, in
// increasing order, and reports whether ops is free of the four anomalies.
//
// It is one pass: a read whose write came earlier is resolved as it goes; one
// whose write comes later, or that names no write, waits in later. cuts holds
// the candidate positions that still stand, each with the max finish before
// it, both increasing up the stack, so every retraction pops from the top: an
// operation that starts at or before a cut's max finish retracts it (a), and a
// read at j dictated by the write at w < j retracts every cut in (w, j] (b). A
// read at j whose write w comes after it retracts nothing: a cut in (j, w]
// that survives (a) has the write start after the read finishes, an anomaly.
func (s *PrepareScratch) safeCuts(ops []Operation) (clean bool) {
	writes := 0
	for i := range ops {
		if ops[i].Kind == KindWrite {
			writes++
		}
	}
	s.values.Reset(writes)
	cuts, later, maxFinish := s.cuts[:0], s.later[:0], int64(0)
	defer func() { s.cuts, s.later = cuts, later }()
	for i := range ops {
		op := &ops[i]
		if op.Finish < op.Start {
			return false
		}
		for len(cuts) > 0 && cuts[len(cuts)-1].maxFinish >= op.Start {
			cuts = cuts[:len(cuts)-1]
		}
		if i > 0 && maxFinish < op.Start {
			cuts = append(cuts, candidateCut{i, maxFinish})
		}
		if i == 0 || op.Finish > maxFinish {
			maxFinish = op.Finish
		}
		switch op.Kind {
		case KindWrite:
			if !s.values.Put(op.Value, int32(i)) {
				return false // a second write of the value
			}
		case KindRead:
			w, ok := s.values.Get(op.Value)
			if !ok {
				later = append(later, i)
				continue
			}
			if op.Finish < ops[w].Start {
				return false
			}
			for len(cuts) > 0 && cuts[len(cuts)-1].at > int(w) {
				cuts = cuts[:len(cuts)-1]
			}
		}
	}
	for _, i := range later {
		// Every write is in the table now; one found here comes after the read.
		if w, ok := s.values.Get(ops[i].Value); !ok || ops[i].Finish < ops[w].Start {
			return false
		}
	}
	return true
}

// candidateCut is a position SafeUnits may cut at and the max finish of the
// operations before it, which every later operation must start after.
type candidateCut struct {
	at        int
	maxFinish int64
}

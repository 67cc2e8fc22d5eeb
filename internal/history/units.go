package history

// SafeUnits is the offline check's cut pass: it splits one register's raw
// operations, before any prepare, into runs that can be verified one by one.
// A position i is cut when
//
//	(a) every operation before i finishes strictly before ops[i] starts
//	    (raw real-time quiescence, zone.Quiescent), and
//	(b) no read at or after i returns a value written before i.
//
// Such a cut is a safe cut of the prepared history too: ranking keeps strict
// order and shortening a write only moves its finish down to just before one
// of its own reads, so (a) survives the builder, and (b) is about values
// alone. A run normalized on its own is the same history, up to renaming the
// timestamps, as the whole register's normalization restricted to it, so by
// the segment-equivalence lemma (zone/cut.go) the register is k-atomic iff
// every run is, for every k, and its smallest k is the maximum over the runs.
// (The builder can find more cuts than these — a shortened write can open a
// gap the raw timestamps close — so a run may still hold several safe-cut
// segments; the checkers find those themselves.)
//
// Adjacent segments are grouped into runs of at least floor operations (the
// last run may take a short tail), appended to units as [lo, hi) ranges that
// cover ops. ok is false, and units is returned as it came, when ops is not
// in nondecreasing start order or holds one of the four anomalies the builder
// does not repair: a finish before its start, a second write of a value, a
// read no write dictates, a read that finishes before its write starts —
// index's rules, so a register in start order is declined exactly when Build
// would report an anomaly. The pass reads ops only and keeps its value table
// and candidate cuts in s.
func (s *PrepareScratch) SafeUnits(ops []Operation, floor int, units [][2]int) (_ [][2]int, ok bool) {
	writes := 0 // a key out of order is declined in this cheap first pass
	for i := range ops {
		if i > 0 && ops[i].Start < ops[i-1].Start {
			return units, false
		}
		if ops[i].Kind == KindWrite {
			writes++
		}
	}
	// Then one pass: a read whose write came earlier is resolved as it goes;
	// one that starts before its write, or names no write, waits in later.
	// cuts holds the quiescent positions no read resolved so far reaches
	// back across: a read at j dictated by the write at w < j retracts every
	// cut in (w, j]. A read at j whose write w comes after it retracts
	// nothing: it ends no earlier than w starts, so no position in (j, w] is
	// quiescent.
	s.values.Reset(writes)
	cuts, later, maxFinish := s.cuts[:0], s.later[:0], int64(0)
	defer func() { s.cuts, s.later = cuts, later }()
	for i := range ops {
		op := &ops[i]
		if op.Finish < op.Start {
			return units, false
		}
		if i > 0 && maxFinish < op.Start {
			cuts = append(cuts, i)
		}
		if i == 0 || op.Finish > maxFinish {
			maxFinish = op.Finish
		}
		switch op.Kind {
		case KindWrite:
			if !s.values.Put(op.Value, int32(i)) {
				return units, false // a second write of the value
			}
		case KindRead:
			w, ok := s.values.Get(op.Value)
			if !ok {
				later = append(later, i)
				continue
			}
			for len(cuts) > 0 && cuts[len(cuts)-1] > int(w) {
				cuts = cuts[:len(cuts)-1]
			}
		}
	}
	for _, i := range later {
		// Every write is in the table now. One found here comes after the
		// read (an earlier one would have resolved it above), so this is the
		// only place a read can finish before its write starts.
		if w, ok := s.values.Get(ops[i].Value); !ok || ops[i].Finish < ops[w].Start {
			return units, false
		}
	}
	lo, first := 0, len(units)
	for _, c := range cuts {
		if c-lo >= floor {
			units = append(units, [2]int{lo, c})
			lo = c
		}
	}
	if len(ops)-lo < floor && len(units) > first {
		lo = units[len(units)-1][0] // a short tail joins the run before it
		units = units[:len(units)-1]
	}
	return append(units, [2]int{lo, len(ops)}), true
}

// Package metrics computes staleness statistics over histories: smallest-k
// distributions across a corpus (the measurement the paper's Section VII
// proposes running against real storage systems) and per-read staleness
// under a given witness order.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"kat/internal/core"
	"kat/internal/history"
)

// KDistribution is a histogram of smallest-k values over a corpus.
type KDistribution struct {
	// Counts maps k to the number of histories whose smallest k it is.
	Counts map[int]int
	// Errors counts histories that failed verification (anomalies or
	// search-budget exhaustion).
	Errors int
	// Total is the corpus size.
	Total int
}

// Fraction returns the fraction of (successfully analyzed) histories with
// smallest k <= bound.
func (d KDistribution) Fraction(bound int) float64 {
	ok := d.Total - d.Errors
	if ok <= 0 {
		return 0
	}
	n := 0
	for k, c := range d.Counts {
		if k <= bound {
			n += c
		}
	}
	return float64(n) / float64(ok)
}

// String renders the distribution compactly, e.g. "k=1:37 k=2:12 (2 errors)".
func (d KDistribution) String() string {
	ks := make([]int, 0, len(d.Counts))
	for k := range d.Counts {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	var b strings.Builder
	for i, k := range ks {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "k=%d:%d", k, d.Counts[k])
	}
	if d.Errors > 0 {
		fmt.Fprintf(&b, " (%d errors)", d.Errors)
	}
	return b.String()
}

// SmallestKDistribution computes the smallest k of every history in the
// corpus.
func SmallestKDistribution(corpus []*history.History, opts core.Options) KDistribution {
	v := core.NewVerifier()
	d := KDistribution{Counts: make(map[int]int), Total: len(corpus)}
	for _, h := range corpus {
		k, err := v.SmallestK(h, opts)
		if err != nil {
			d.Errors++
			continue
		}
		d.Counts[k]++
	}
	return d
}

// ReadStaleness reports, for each read in the prepared history, the number
// of writes separating it from its dictating write (the dictating write
// excluded) under the given total order. The returned slice is indexed by
// position among reads in operation-index order.
func ReadStaleness(p *history.Prepared, order []int) ([]int, error) {
	n := p.Len()
	if len(order) != n {
		return nil, fmt.Errorf("metrics: order has %d ops, history has %d", len(order), n)
	}
	pos := make([]int, n)
	for i, op := range order {
		if op < 0 || op >= n {
			return nil, fmt.Errorf("metrics: op index %d out of range", op)
		}
		pos[op] = i
	}
	// writesBefore[i] = number of writes at positions < i.
	writesBefore := make([]int, n+1)
	for i, op := range order {
		writesBefore[i+1] = writesBefore[i]
		if p.Op(op).IsWrite() {
			writesBefore[i+1]++
		}
	}
	var out []int
	for i := 0; i < n; i++ {
		if !p.Op(i).IsRead() {
			continue
		}
		w := p.DictatingWrite[i]
		if pos[w] > pos[i] {
			return nil, fmt.Errorf("metrics: read %d before its write in the order", i)
		}
		sep := writesBefore[pos[i]] - writesBefore[pos[w]+1]
		out = append(out, sep)
	}
	return out, nil
}

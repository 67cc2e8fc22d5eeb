package metrics

import (
	"kat/internal/core"
	"kat/internal/history"
)

// SmallestKDistributionParallel is SmallestKDistribution with a worker pool:
// each history's smallest-k search is independent, so a corpus verifies
// embarrassingly parallel. The histories fork as units of one core.Run pool
// — one reusable Verifier per worker, results in disjoint slots — so the
// result is identical to the sequential version regardless of worker count.
// workers <= 0 uses GOMAXPROCS.
func SmallestKDistributionParallel(corpus []*history.History, opts core.Options, workers int) KDistribution {
	// results[i] holds history i's smallest k, or 0 on error.
	results := make([]int, len(corpus))
	core.Run(workers, func(v *core.Verifier) {
		v.Fork(len(corpus), func(v *core.Verifier, i int) {
			k, err := v.SmallestK(corpus[i], opts)
			if err != nil {
				k = 0
			}
			results[i] = k
		})
	})

	d := KDistribution{Counts: make(map[int]int), Total: len(corpus)}
	for _, k := range results {
		if k == 0 {
			d.Errors++
			continue
		}
		d.Counts[k]++
	}
	return d
}

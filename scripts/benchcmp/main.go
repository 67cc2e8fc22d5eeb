// Command benchcmp gates performance regressions: it compares a fresh
// `go test -bench` text output against the committed BENCH_baseline.json
// and fails (exit 1) when a pinned hot-path benchmark regressed beyond the
// threshold.
//
// Usage:
//
//	go test -run '^$' -bench 'FZF|Trace' -benchmem . | tee bench.txt
//	go run ./scripts/benchcmp -baseline BENCH_baseline.json bench.txt
//
// Cross-machine comparability: raw ns/op differs between the machine that
// recorded the baseline and the one running the gate, so by default each
// benchmark's time ratio is normalized by the median ratio across all
// compared benchmarks — a uniformly slower machine cancels out and only a
// *relative* regression of specific benchmarks trips the gate.
// Allocations are machine-independent and compared directly.
//
// Noise tolerance: scheduler jitter makes some benchmarks bimodal (the
// BenchmarkFZF/c=256/n=64000 family has shown 13ms→35ms outliers on shared
// runners). Medians over repeated samples (-count in the Makefile) absorb
// isolated outliers, and each benchmark's threshold is additionally widened
// by an IQR-based noise floor: a benchmark whose own samples spread wide
// (large interquartile range relative to its median, in either run) gets a
// proportionally wider gate, while tight benchmarks keep the strict one.
// -iqr-mult scales the widening (0 disables it).
//
// Same-run pairs: -pair NUM,DEN,MAX (repeatable) additionally fails when the
// median ns/op of benchmark NUM exceeds MAX times that of DEN, both taken
// from the current run. No baseline and no machine-speed factor is involved,
// so a ratio target ("props=all costs at most 2x props=k") is gated where it
// is machine-independent, and cannot slide back while still beating an old
// recorded row.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	ns     []float64
	allocs []float64
}

type baselineDoc struct {
	Benchmarks []struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

// pairGate is one -pair: median(num) <= max * median(den) in the current run.
type pairGate struct {
	num, den string
	max      float64
}

func main() {
	var pairs []pairGate
	flag.Func("pair", "same-run gate `NUM,DEN,MAX`: fail when NUM's median ns/op exceeds MAX x DEN's in the current run (repeatable)", func(v string) error {
		f := strings.Split(v, ",")
		if len(f) != 3 {
			return fmt.Errorf("want NUM,DEN,MAX")
		}
		m, err := strconv.ParseFloat(f[2], 64)
		if err != nil || m <= 0 {
			return fmt.Errorf("bad MAX %q", f[2])
		}
		pairs = append(pairs, pairGate{num: f[0], den: f[1], max: m})
		return nil
	})
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline JSON (from scripts/benchjson)")
		benchRe      = flag.String("bench", "", "regexp of benchmark names to gate (default: all in both runs)")
		nsRatio      = flag.Float64("max-ns-ratio", 1.30, "fail when normalized time ratio exceeds this (0 disables)")
		allocRatio   = flag.Float64("max-alloc-ratio", 1.30, "fail when allocs/op ratio exceeds this (0 disables)")
		normalize    = flag.Bool("normalize", true, "divide time ratios by their median (cross-machine comparison)")
		iqrMult      = flag.Float64("iqr-mult", 2.0, "widen each benchmark's time gate by this multiple of its relative IQR (noise floor; 0 disables)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [flags] <bench-output.txt>")
		os.Exit(2)
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadBenchText(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	var filter *regexp.Regexp
	if *benchRe != "" {
		if filter, err = regexp.Compile(*benchRe); err != nil {
			fatal(err)
		}
	}

	type row struct {
		name             string
		ratio, allocFrom float64
		allocTo          float64
		noise            float64 // relative IQR of the baseline samples only
	}
	var rows []row
	for name, c := range cur {
		b, ok := base[name]
		if !ok || (filter != nil && !filter.MatchString(name)) {
			continue
		}
		rows = append(rows, row{
			name:      name,
			ratio:     median(c.ns) / median(b.ns),
			allocFrom: median(b.allocs),
			allocTo:   median(c.allocs),
			// Baseline spread only: widening by the *current* run's IQR
			// would let a change that made a benchmark bimodal (a common
			// regression signature) raise its own gate and pass.
			noise: relIQR(b.ns),
		})
	}
	if len(rows) == 0 {
		// An empty intersection means the gate compared nothing — a
		// renamed benchmark, a bad -bench regex, or a bench run that died
		// before emitting results. Never report that as success.
		fmt.Fprintln(os.Stderr, "benchcmp: no overlapping benchmarks to compare (renamed benchmark, bad -bench regex, or empty input?)")
		os.Exit(1)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })

	norm := 1.0
	if *normalize {
		ratios := make([]float64, len(rows))
		for i, r := range rows {
			ratios[i] = r.ratio
		}
		norm = median(ratios)
		fmt.Printf("benchcmp: machine-speed normalization factor %.3f\n", norm)
	}

	failed := false
	for _, r := range rows {
		rel := r.ratio / norm
		// The per-benchmark gate: the global threshold widened by the
		// benchmark's own observed noise, so medians of jittery
		// benchmarks don't fail on scheduler variance while tight ones
		// keep the strict gate.
		gate := *nsRatio
		if gate > 0 && *iqrMult > 0 {
			// Cap the widening: a wildly noisy baseline should demand a
			// re-record, not disable the gate.
			gate += min(*iqrMult*r.noise, 0.70)
		}
		status := "ok"
		if *nsRatio > 0 && rel > gate {
			status = fmt.Sprintf("TIME REGRESSION (>%.0f%%, noise floor %.0f%%)", (*nsRatio-1)*100, r.noise*100)
			failed = true
		}
		// Small absolute slack keeps counting noise on tiny benchmarks
		// from tripping the allocation gate.
		if *allocRatio > 0 && r.allocTo > r.allocFrom**allocRatio+8 {
			status = fmt.Sprintf("ALLOC REGRESSION (%.0f -> %.0f)", r.allocFrom, r.allocTo)
			failed = true
		}
		fmt.Printf("  %-60s time x%.2f (gate x%.2f)  allocs %.0f->%.0f  %s\n",
			r.name, rel, gate, r.allocFrom, r.allocTo, status)
	}
	for _, pg := range pairs {
		num, den := cur[pg.num], cur[pg.den]
		if num == nil || den == nil || len(num.ns) == 0 || len(den.ns) == 0 {
			// A renamed benchmark must not turn the pair gate off.
			fmt.Printf("  pair %s / %s: missing from the current run  FAIL\n", pg.num, pg.den)
			failed = true
			continue
		}
		ratio := median(num.ns) / median(den.ns)
		status := "ok"
		if ratio > pg.max {
			status = "PAIR REGRESSION"
			failed = true
		}
		fmt.Printf("  pair %s / %s: x%.2f (gate x%.2f, same run)  %s\n", pg.num, pg.den, ratio, pg.max, status)
	}
	if failed {
		fmt.Println("benchcmp: FAIL")
		os.Exit(1)
	}
	fmt.Printf("benchcmp: ok (%d benchmarks within threshold, %d same-run pairs)\n", len(rows), len(pairs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(1)
}

// canonName strips the trailing GOMAXPROCS suffix ("-8") so runs from
// machines with different core counts compare.
func canonName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func loadBaseline(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc baselineDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*result)
	for _, b := range doc.Benchmarks {
		r := out[canonName(b.Name)]
		if r == nil {
			r = &result{}
			out[canonName(b.Name)] = r
		}
		r.ns = append(r.ns, b.NsPerOp)
		r.allocs = append(r.allocs, float64(b.AllocsPerOp))
	}
	return out, nil
}

func loadBenchText(path string) (map[string]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*result)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := canonName(fields[0])
		r := out[name]
		if r == nil {
			r = &result{}
			out[name] = r
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.ns = append(r.ns, val)
			case "allocs/op":
				r.allocs = append(r.allocs, val)
			}
		}
	}
	return out, sc.Err()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation over
// the sorted samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// relIQR returns the interquartile range of xs divided by its median — the
// scale-free noise measure behind the per-benchmark gate widening. Fewer
// than 4 samples cannot estimate spread; they get floor 0 (strict gate).
func relIQR(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := median(s)
	if med <= 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / med
}

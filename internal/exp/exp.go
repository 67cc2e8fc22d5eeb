// Package exp implements the reproduction experiments listed by Order
// (kavbench -list prints them): correctness agreement matrices, the runtime
// scaling claims of Theorems 3.2 and 4.6, the Figure 3 chunk decomposition,
// the Theorem 5.1 reduction, the quorum-store staleness study the paper's
// Section VII calls for, smallest-k distributions, the iterative-deepening
// ablation, and the safety/regularity and time-staleness (Δ) studies. The
// cmd/kavbench binary renders each experiment as a table; bench_test.go at
// the repository root exposes the same workloads as testing.B benchmarks.
package exp

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Render writes the table as GitHub-flavored markdown.
func (t Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Header, " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n%s\n", t.Notes)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// timeIt runs fn once and returns the wall-clock duration.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// ms renders a duration in milliseconds with 3 decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// ratio renders b/a with 2 decimals ("-" when a is zero).
func ratio(a, b time.Duration) string {
	if a <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(b)/float64(a))
}

// Registry returns every experiment keyed by lowercase ID.
func Registry() map[string]func() Table {
	return map[string]func() Table{
		"e1":  E1Agreement,
		"e2":  E2LBTPractical,
		"e3":  E3LBTConcurrency,
		"e4":  E4Crossover,
		"e5":  E5Figure3,
		"e6":  E6Reduction,
		"e7":  E7Quorum,
		"e8":  E8SmallestK,
		"e9":  E9WitnessProfile,
		"e10": E10Ablation,
		"e11": E11Properties,
		"e12": E12Delta,
	}
}

// Order lists experiment IDs in presentation order.
func Order() []string {
	return []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12"}
}

// Describe returns a one-line description without running the experiment.
func Describe(id string) string {
	desc := map[string]string{
		"e1":  "Correctness agreement: LBT vs FZF vs exact oracle (k=2)",
		"e2":  "LBT scaling with n at fixed small c (Theorem 3.2, practical regime)",
		"e3":  "LBT scaling with write concurrency c (Theorem 3.2, worst-case driver)",
		"e4":  "LBT vs FZF crossover (Theorem 4.6)",
		"e5":  "Figure 3 chunk decomposition (FZF Stage 1)",
		"e6":  "k-WAV NP-completeness reduction from bin packing (Theorem 5.1, Figure 5)",
		"e7":  "k-atomicity of a sloppy-quorum store vs configuration (Section VII study)",
		"e8":  "Smallest k under staleness injection (Section II-B search)",
		"e9":  "LBT witness structure (Figures 1 and 2)",
		"e10": "Ablation: LBT iterative deepening on vs off",
		"e11": "Safety/regularity vs k-atomicity on quorum histories (Section I)",
		"e12": "Time staleness Δ of a sloppy-quorum store (ref. [10])",
	}
	return desc[id]
}

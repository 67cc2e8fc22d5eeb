//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

const trajectoryPath = "bench/trajectory.json"

// record is one entry of bench/trajectory.json: what one commit measured.
// The file is append-only; later PRs add their own record and edit none.
type record struct {
	Commit    string                        `json:"commit"`
	Date      string                        `json:"date"`
	Seed      int64                         `json:"seed"`
	Seconds   float64                       `json:"seconds"` // the -seconds the run was given
	Reps      int                           `json:"reps"`    // measured repetitions behind each end-to-end median
	Env       map[string]string             `json:"env"`
	EndToEnd  map[string]map[string]float64 `json:"end_to_end"` // workload -> metric -> median
	PerLayer  map[string]map[string]float64 `json:"per_layer"`  // workload -> metric -> value
	Attempted map[string]int                `json:"attempted"`
	Failed    map[string]int                `json:"failed"`
	Units     map[string]string             `json:"units"`
}

// environment describes the machine the numbers were taken on.
func environment() map[string]string {
	env := map[string]string{
		"nproc":            fmt.Sprint(runtime.NumCPU()),
		"child_gomaxprocs": "2",
		"go":               runtime.Version(),
		"os_arch":          runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(data))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// runAll runs every workload untraced and traced, prints both, and with rec
// appends the numbers to the trajectory.
func runAll(o options, rec bool) error {
	r := record{
		Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339), Seed: o.seed, Seconds: o.seconds, Reps: measuredReps(o.seconds), Env: environment(),
		EndToEnd: map[string]map[string]float64{}, PerLayer: map[string]map[string]float64{},
		Attempted: map[string]int{}, Failed: map[string]int{}, Units: map[string]string{},
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		r.Commit = strings.TrimSpace(string(out))
	}
	var failed []string
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o.trace = traced
			res, err := runWorkload(w, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(res)
			into := r.EndToEnd
			if traced {
				into = r.PerLayer
			}
			into[w.name] = map[string]float64{}
			for _, m := range res.metrics {
				into[w.name][m.name] = m.value
				r.Units[m.name] = m.unit
			}
			r.Attempted[w.name] += res.attempted
			r.Failed[w.name] += res.failed
			if !res.correct() {
				failed = append(failed, w.name)
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("operations failed on %v", failed)
	}
	if !rec {
		return nil
	}
	var all []record
	if data, err := os.ReadFile(trajectoryPath); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", trajectoryPath, err)
		}
	}
	data, err := json.MarshalIndent(append(all, r), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(trajectoryPath, append(data, '\n'), 0o644)
}

// runAgree runs two full untraced sets of the same tree on the same inputs
// and fails if any workload x end-to-end metric differs between them by more
// than its bound — the check that the bounds in BENCHMARK.json are ones this
// measurement can keep.
func runAgree(o options) error {
	o.trace = false
	var sets [2][]*result
	for s := range sets {
		for _, w := range workloads {
			res, err := runWorkload(w, o)
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", s+1, w.name, err)
			}
			if !res.correct() {
				return fmt.Errorf("set %d, %s: %d of %d operations failed", s+1, w.name, res.failed, res.attempted)
			}
			sets[s] = append(sets[s], res)
		}
	}
	fmt.Printf("%-24s %-14s %14s %14s %8s %7s\n", "workload", "metric", "set 1", "set 2", "diff %", "bound %")
	var over []string
	for i, w := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0][i].value(m.name), sets[1][i].value(m.name)
			diff := math.Abs(a-b) / math.Min(a, b)
			mark := ""
			if diff > m.bound {
				mark = "  OVER"
				over = append(over, w.name+"/"+m.name)
			}
			fmt.Printf("%-24s %-14s %14.4f %14.4f %8.2f %7.0f%s\n", w.name, m.name, a, b, 100*diff, 100*m.bound, mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("two runs of the same code disagree beyond the bound on %v", over)
	}
	return nil
}

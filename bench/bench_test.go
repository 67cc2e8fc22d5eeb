//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"kat"
	"kat/internal/trace"
)

// TestMain lets the test binary stand in for the bench binary when a test
// spawns a child of itself.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

const testDiv = 100 // 1/100 of the benchmark's sizes

func testOptions(t *testing.T) options {
	return options{seed: 7, div: testDiv, out: t.TempDir()}
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range workloads {
		a, err := w.setup(3, testDiv, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.setup(3, testDiv, t.TempDir())
		c, _ := w.setup(4, testDiv, t.TempDir())
		if !bytes.Equal(inputBytes(t, a), inputBytes(t, b)) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if bytes.Equal(inputBytes(t, a), inputBytes(t, c)) {
			t.Errorf("%s: different seeds gave the same inputs", w.name)
		}
	}
}

// inputBytes is everything the program under test would receive, in order.
func inputBytes(t *testing.T, in *inputs) []byte {
	var all []byte
	for _, conn := range in.bodies {
		for _, b := range conn {
			all = append(all, b.data...)
		}
	}
	for _, name := range in.files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	return all
}

func TestArrivalOrder(t *testing.T) {
	for _, w := range workloads {
		in, err := w.setup(5, testDiv, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for si, stream := range in.streams {
			last := map[string]int64{}
			var lastAny int64
			for i, o := range stream {
				if prev, ok := last[o.Key]; ok && o.Op.Start < prev {
					t.Fatalf("%s: stream %d op %d: key %s starts at %d after %d", w.name, si, i, o.Key, o.Op.Start, prev)
				}
				last[o.Key] = o.Op.Start
				// Retirement judges idleness against the global watermark,
				// so the churn stream must be ordered across keys too.
				if w.retireTTL > 0 && o.Op.Start < lastAny {
					t.Fatalf("%s: op %d starts at %d after %d: not in global arrival order", w.name, i, o.Op.Start, lastAny)
				}
				lastAny = o.Op.Start
			}
		}
		if w.retireTTL > 0 && len(in.bodies) != 1 {
			t.Errorf("%s: %d connections; retirement needs one", w.name, len(in.bodies))
		}
		// The bodies carry exactly the streams, in order.
		for c, conn := range in.bodies {
			var ops []trace.KeyedOp
			for _, b := range conn {
				ops = append(ops, b.ops...)
			}
			if !reflect.DeepEqual(ops, in.streams[c]) {
				t.Errorf("%s: connection %d's bodies do not add up to its stream", w.name, c)
			}
		}
	}
}

// TestSmoke runs every workload at 1/100 scale, untraced and traced: the
// verdict comparison passes, no operation fails, and the metrics printed are
// exactly the ones BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	bm := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := testOptions(t)
			o.trace = traced
			res, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d ops failed: %v", w.name, traced, res.failed, res.attempted, res.mismatches)
			}
			type nameUnit struct{ Name, Unit string }
			var want []nameUnit
			for _, m := range bm.EndToEnd {
				want = append(want, nameUnit{m.Name, m.Unit})
			}
			if traced {
				want = want[:0]
				for _, m := range bm.PerLayer {
					want = append(want, nameUnit{m.Name, m.Unit})
				}
				if _, err := os.Stat(spansPath(o.out, w.name)); err != nil {
					t.Errorf("%s: no spans file: %v", w.name, err)
				}
			}
			if len(res.metrics) != len(want) {
				t.Fatalf("%s (trace %v): %d metrics, BENCHMARK.json has %d", w.name, traced, len(res.metrics), len(want))
			}
			for i, m := range res.metrics {
				if m.name != want[i].Name || m.unit != want[i].Unit {
					t.Errorf("%s: metric %d is %s [%s], BENCHMARK.json says %s [%s]", w.name, i, m.name, m.unit, want[i].Name, want[i].Unit)
				}
				if !traced && m.value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, m.name, m.value)
				}
			}
		}
	}
}

// TestCertifiedEqualsSearched pins the oracle's short cut: certifying the
// server's values with fixed-bound checks accepts exactly the values the
// offline searches return.
func TestCertifiedEqualsSearched(t *testing.T) {
	w, _ := findWorkload("serve-wire-props-zipf")
	in, err := w.setup(11, testDiv, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := runRep(w, in, t.TempDir(), repOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if failed, mismatches := verify(w, in, r); failed != 0 {
		t.Fatalf("verify: %v", mismatches)
	}
	tr := &kat.Trace{Keys: in.byKey(-1)}
	wantK := kat.SmallestKByKey(tr, kat.Options{})
	deepest := 0
	for _, ks := range r.doc.Keys {
		wantD, err := kat.SmallestDelta(tr.Keys[ks.Key])
		if err != nil {
			t.Fatal(err)
		}
		if ks.SmallestK != wantK[ks.Key] || ks.Delta.SmallestDelta != wantD {
			t.Errorf("%s: server k=%d Δ=%d, offline search k=%d Δ=%d", ks.Key, ks.SmallestK, ks.Delta.SmallestDelta, wantK[ks.Key], wantD)
		}
		deepest = max(deepest, ks.SmallestK)
	}
	if deepest != 3 {
		t.Errorf("deepest key is %d-atomic; the workload is built to reach 3", deepest)
	}
	// A wrong claim must not pass.
	r.doc.Keys[0].SmallestK++
	r.doc.Keys[1].Delta.SmallestDelta++
	if _, mismatches := verify(w, in, r); len(mismatches) != 2 {
		t.Errorf("two forged verdicts, mismatches: %v", mismatches)
	}
}

func TestCorruptInputFails(t *testing.T) {
	for _, w := range workloads {
		o := testOptions(t)
		o.corrupt = true
		res, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.correct() || res.failed == 0 {
			t.Errorf("%s: a corrupted input was reported correct", w.name)
		}
	}
}

// TestChildPeakRSS: the child's memory comes from its own VmHWM, so a small
// child of a large parent reads small (wait4's ru_maxrss would start at the
// parent's size).
func TestChildPeakRSS(t *testing.T) {
	ballast := make([]byte, 500<<20)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	c, err := startChild("-check")
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	if _, err := c.expect("sealed", nil); err != nil {
		t.Fatal(err)
	}
	mb, err := c.peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if mb <= 0 || mb >= 100 {
		t.Errorf("child of a %d MB parent reports %.1f MB", len(ballast)>>20, mb)
	}
	if _, _, err := c.finish(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(ballast)
}

func TestStopKillsChild(t *testing.T) {
	c, err := startChild("-serve")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.expect("addr", nil); err != nil {
		t.Fatal(err)
	}
	pid := c.cmd.Process.Pid
	c.stop()
	if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
		t.Errorf("after stop, signalling pid %d: %v; want no such process", pid, err)
	}
	c.stop() // idempotent
}

// TestStalledChildIsKilled: a child that never answers does not hang the
// parent; the watchdog kills it and the error says so.
func TestStalledChildIsKilled(t *testing.T) {
	defer func(d time.Duration) { childDeadline = d }(childDeadline)
	childDeadline = 200 * time.Millisecond
	c, err := startChild("-serve")
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	// "sealed" never comes: nobody sent "seal".
	_, err = c.expect("sealed", nil)
	if err = c.explain(err); err == nil || !strings.Contains(err.Error(), "was killed") {
		t.Errorf("waiting on a stalled child: %v", err)
	}
}

// TestMeasuredReps: the repetition count is a function of -seconds alone.
func TestMeasuredReps(t *testing.T) {
	for seconds, want := range map[float64]int{0: 3, 10: 3, 12: 4, 15: 5, 60: 5} {
		if got := measuredReps(seconds); got != want {
			t.Errorf("measuredReps(%v) = %d, want %d", seconds, got, want)
		}
	}
}

func TestNormalizeTraceFlag(t *testing.T) {
	for _, tc := range []struct{ in, want []string }{
		{[]string{"--workload", "x", "--trace", "0"}, []string{"--workload", "x", "--trace=0"}},
		{[]string{"-trace", "1", "-seed", "2"}, []string{"-trace=1", "-seed", "2"}},
		{[]string{"-trace", "-seed", "2"}, []string{"-trace", "-seed", "2"}},
		{[]string{"-seed", "2", "-trace"}, []string{"-seed", "2", "-trace"}},
	} {
		if got := normalizeTraceFlag(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("normalizeTraceFlag(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// benchmarkJSON is the shape of /BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// saying the same thing.
func TestBenchmarkJSON(t *testing.T) {
	bm := readBenchmarkJSON(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(bm.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		better := "lower"
		if m.higher {
			better = "higher"
		}
		got := bm.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(bm.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bm.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || (got.Better != "lower" && got.Better != "higher") {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bm.Paths)
	}
}

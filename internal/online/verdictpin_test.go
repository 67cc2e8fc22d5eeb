package online

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kat/internal/core"
	"kat/internal/trace"
)

// pinnedRounds writes rounds [from, to) of the pinned trace; one round is
// 100 time units. Key a is a write/read staircase whose reads sometimes
// reach two writes back (a deque merge) and sometimes four (past the horizon
// of 2: a cross-boundary stale read); b needs k=2 every round and has an
// unsafe read in each; c writes a value twice in round 3, an anomaly the
// ingest path sees, so every later c segment is scan-only whatever the
// workers' timing; d lives in rounds 1-4, 8 and 13 with one stale read, so
// it retires twice and is re-admitted twice; e lives in rounds 5-8 with one
// stale read and stays retired; f is round 2 only and carries a dangling
// read, an anomaly only a worker finds, and retires with it.
func pinnedRounds(from, to int) string {
	var b strings.Builder
	for i := from; i < to; i++ {
		base := 100 * i
		va := i
		switch {
		case i > 4 && i%4 == 0:
			va = i - 4
		case i%3 == 0:
			va = i - 2
		}
		fmt.Fprintf(&b, "w a %d %d %d\n", i, base, base+5)
		fmt.Fprintf(&b, "w b %d %d %d\n", 2*i-1, base, base+10)
		vc := i
		if i == 3 {
			vc = 1
		}
		fmt.Fprintf(&b, "w c %d %d %d\n", vc, base, base+5)
		fmt.Fprintf(&b, "r a %d %d %d\n", va, base+10, base+15)
		if i <= 4 || i == 8 || i == 13 {
			fmt.Fprintf(&b, "w d %d %d %d; r d %d %d %d\n", i, base+12, base+14, i, base+16, base+18)
		}
		if i == 4 {
			fmt.Fprintf(&b, "r d 1 %d %d\n", base+19, base+20)
		}
		if i >= 5 && i <= 8 {
			fmt.Fprintf(&b, "w e %d %d %d; r e %d %d %d\n", i, base+12, base+14, i, base+16, base+18)
		}
		if i == 8 {
			fmt.Fprintf(&b, "r e 5 %d %d\n", base+19, base+20)
		}
		if i == 2 {
			fmt.Fprintf(&b, "w f 1 %d %d; r f 999 %d %d\n", base+12, base+14, base+16, base+18)
		}
		fmt.Fprintf(&b, "w b %d %d %d\n", 2*i, base+20, base+30)
		fmt.Fprintf(&b, "r b %d %d %d\n", 2*i-1, base+40, base+50)
	}
	return b.String()
}

// drivePinned feeds the pinned trace in three requests with a retirement
// pass after the first two. Every step waits out verification first
// (Checkpoint freezes the session and joins the workers), so which keys are
// retired, re-admitted or scan-only never depends on scheduling.
func drivePinned(t *testing.T, s *trace.Session, feed func(text string)) {
	t.Helper()
	barrier := func() {
		if _, err := s.Checkpoint(nil); err != nil {
			t.Fatal(err)
		}
	}
	retire := func() {
		// Two-phase: the first sweep commits the cut and dispatches, the
		// second folds the verdict once nothing is in flight.
		for i := 0; i < 2; i++ {
			barrier()
			if err := s.RetireIdle(200); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(pinnedRounds(1, 8))
	retire()
	feed(pinnedRounds(8, 12))
	retire()
	feed(pinnedRounds(12, 15))
	barrier()
}

// pinnedCheckpoint freezes the session and returns its checkpoint as a JSON
// value with everything a map iteration orders put in a fixed order and the
// two scheduling-dependent counters cleared.
func pinnedCheckpoint(t *testing.T, s *trace.Session) any {
	t.Helper()
	cp, err := s.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(cp.Keys, func(i, j int) bool { return cp.Keys[i].Key < cp.Keys[j].Key })
	for _, ks := range cp.Keys {
		sort.Slice(ks.Values, func(i, j int) bool { return ks.Values[i][0] < ks.Values[j][0] })
	}
	sort.Slice(cp.Retired, func(i, j int) bool { return cp.Retired[i].Key < cp.Retired[j].Key })
	sort.Slice(cp.Epochs, func(i, j int) bool { return cp.Epochs[i].Epoch < cp.Epochs[j].Epoch })
	cp.Stats.PeakBufferedOps, cp.Stats.FirstVerdictOps = 0, 0
	return jsonValue(t, cp)
}

func jsonValue(t *testing.T, v any) any {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return parseJSON(t, string(b))
}

func parseJSON(t *testing.T, text string) any {
	t.Helper()
	var out any
	if err := json.Unmarshal([]byte(text), &out); err != nil {
		t.Fatalf("%v in %s", err, text)
	}
	return out
}

// snapshotLines renders a drained session's per-key verdicts.
func snapshotLines(s *trace.Session) string {
	var b strings.Builder
	for _, kv := range s.Snapshot() {
		fmt.Fprintf(&b, "%s ops=%d atomic=%v k=%d sat=%v delta=%d dsat=%v unsafe=%d irregular=%d retired=%v err=%v\n",
			kv.Key, kv.Ops, kv.Atomic, kv.SmallestK, kv.Saturated, kv.SmallestDelta, kv.DeltaSaturated,
			kv.UnsafeReads, kv.IrregularReads, kv.Retired, kv.Err != nil)
	}
	return b.String()
}

// pinnedShapesFile holds TestVerdictShapesPinned's expectations, one JSON
// value per shape; -update-pins rewrites it from the running tree.
const pinnedShapesFile = "testdata/verdict_shapes.json"

var updatePins = flag.Bool("update-pins", false, "rewrite "+pinnedShapesFile)

// TestVerdictShapesPinned pins every shape a key's verdict is stored or
// served in — the session checkpoint, the epoch windows, the retired
// summary, the per-key snapshot, and through the server the /verdict
// document live and drained, /verdict?epoch=N and the per-property /metrics
// samples — for one trace with all properties on, in a smallest-k session
// (behind a Server) and a fixed k=2 one. The expectations were recorded when
// a key's verdict was a slice of per-property records; they are compared as
// JSON values, so neither object key order nor layout is part of the pin.
func TestVerdictShapesPinned(t *testing.T) {
	sopts := trace.StreamOptions{Workers: 2, MinSegmentOps: 1, Horizon: 2, IngestShards: 4,
		Properties: trace.PropertySetAll, RetireTTL: 200, EpochLength: 500}
	golden := map[string]any{}
	if !*updatePins {
		text, err := os.ReadFile(pinnedShapesFile)
		if err != nil {
			t.Fatal(err)
		}
		golden = parseJSON(t, string(text)).(map[string]any)
	}
	check := func(name string, got any) {
		t.Helper()
		if *updatePins {
			golden[name] = got
		} else if want := golden[name]; !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Errorf("%s: got\n%s\nwant\n%s", name, g, w)
		}
	}
	defer func() {
		if *updatePins {
			names := make([]string, 0, len(golden))
			for name := range golden {
				names = append(names, name)
			}
			sort.Strings(names)
			// One shape a line, so a diff of the file names what moved.
			var out strings.Builder
			sep := "{"
			for _, name := range names {
				value, err := json.Marshal(golden[name])
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%s\n%q: %s", sep, name, value)
				sep = ","
			}
			out.WriteString("\n}\n")
			if err := os.WriteFile(pinnedShapesFile, []byte(out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}()

	t.Run("smallestk", func(t *testing.T) {
		srv := New(Config{K: 2, Stream: sopts})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		// doc is a served document as a JSON value, minus the two
		// scheduling-dependent statistics.
		doc := func(code int, body string) any {
			t.Helper()
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
			value := parseJSON(t, body)
			if stats, ok := value.(map[string]any)["stats"].(map[string]any); ok {
				delete(stats, "PeakBufferedOps")
				delete(stats, "FirstVerdictOps")
			}
			return value
		}
		drivePinned(t, srv.sess, func(text string) {
			if code, body := postText(t, ts.URL+"/ingest", text); code != http.StatusOK {
				t.Fatalf("ingest: %d %s", code, body)
			}
		})
		check("smallestk/checkpoint", pinnedCheckpoint(t, srv.sess))
		check("smallestk/verdict-live", doc(getBody(t, ts.URL+"/verdict")))
		check("smallestk/epoch-current-live", doc(getBody(t, ts.URL+"/verdict?epoch=current")))
		check("smallestk/verdict-drained", doc(postText(t, ts.URL+"/drain", "")))
		check("smallestk/key-a", doc(getBody(t, ts.URL+"/verdict/a")))
		check("smallestk/key-e", doc(getBody(t, ts.URL+"/verdict/e")))
		for ep := 0; ep <= 2; ep++ {
			check(fmt.Sprintf("smallestk/epoch-%d", ep), doc(getBody(t, fmt.Sprintf("%s/verdict?epoch=%d", ts.URL, ep))))
		}
		check("smallestk/epochs", jsonValue(t, srv.sess.Epochs()))
		check("smallestk/retired", jsonValue(t, srv.sess.RetiredSummary()))
		check("smallestk/snapshot", snapshotLines(srv.sess))
		_, exposition := getBody(t, ts.URL+"/metrics")
		var samples []string
		for _, line := range strings.Split(exposition, "\n") {
			for _, family := range []string{"kavserve_property_segments_total", "kavserve_segment_smallest_k_max",
				"kavserve_segment_smallest_delta_max", "kavserve_irregular_reads_total", "kavserve_unsafe_reads_total",
				"kavserve_segments_closed_total", "kavserve_violations_total"} {
				if strings.HasPrefix(line, family) {
					samples = append(samples, line)
				}
			}
		}
		check("smallestk/metrics", strings.Join(samples, "\n"))
	})

	// The recorded checkpoint is a file an older build wrote: restored and
	// drained, it must come to the recorded final state.
	t.Run("restore", func(t *testing.T) {
		if *updatePins {
			t.Skip("recording")
		}
		var cp trace.SessionCheckpoint
		text, _ := json.Marshal(golden["smallestk/checkpoint"])
		if err := json.Unmarshal(text, &cp); err != nil {
			t.Fatal(err)
		}
		s := trace.NewSmallestKSession(core.Options{}, sopts)
		if err := s.RestoreCheckpoint(&cp); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]any{"epochs": jsonValue(t, s.Epochs()),
			"retired": jsonValue(t, s.RetiredSummary()), "snapshot": snapshotLines(s)} {
			check("smallestk/"+name, got)
		}
	})

	t.Run("check", func(t *testing.T) {
		s, err := trace.NewCheckSession(2, core.Options{}, sopts)
		if err != nil {
			t.Fatal(err)
		}
		drivePinned(t, s, func(text string) {
			if _, err := s.AppendTraceBatch(strings.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
		check("check/checkpoint", pinnedCheckpoint(t, s))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		check("check/epochs", jsonValue(t, s.Epochs()))
		check("check/retired", jsonValue(t, s.RetiredSummary()))
		check("check/snapshot", snapshotLines(s))
	})
}

// TestLegacyCheckpointLoads: a checkpoint written before properties, epochs
// and retirement existed — the k floor in its own kFloor field, no
// properties, the since-removed "stopped" flag — still restores, with the
// floor folded into the key's smallest k.
func TestLegacyCheckpointLoads(t *testing.T) {
	const legacy = `{"mode":"smallestk","threshold":2,"stopped":true,"stats":{"segments":3,"staleReads":1},
		"keys":[{"key":"a","seq":4,"ops":7,"maxClosedFinish":315,"closedAny":true,"dispatched":3,
			"values":[[1,0],[2,1],[3,2],[4,3]],"cumWrites":[1,2,3,4],"cumMaxFinish":[15,115,215,315],"totalClosed":4,
			"atomic":true,"maxK":2,"kFloor":4,"saturated":true},
		{"key":"b","seq":1,"ops":2,"maxClosedFinish":30,"closedAny":true,"dispatched":0,
			"values":[[1,0]],"cumWrites":[1],"cumMaxFinish":[30],"totalClosed":1,"atomic":true,"maxK":1}]}`
	var cp trace.SessionCheckpoint
	if err := json.Unmarshal([]byte(legacy), &cp); err != nil {
		t.Fatal(err)
	}
	s := trace.NewSmallestKSession(core.Options{}, trace.StreamOptions{Workers: 1, MinSegmentOps: 1, Horizon: 2})
	if err := s.RestoreCheckpoint(&cp); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendTraceBatch(strings.NewReader("w a 5 400 405\nr a 5 410 415\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	const want = "a ops=9 atomic=true k=4 sat=true delta=0 dsat=false unsafe=0 irregular=0 retired=false err=false\n" +
		"b ops=2 atomic=true k=1 sat=false delta=0 dsat=false unsafe=0 irregular=0 retired=false err=false\n"
	if got := snapshotLines(s); got != want {
		t.Errorf("restored legacy checkpoint: got\n%swant\n%s", got, want)
	}
	if st := s.Stats(); st.SaturatedKeys != 1 || st.StaleReads != 1 || st.Segments != 4 {
		t.Errorf("restored legacy checkpoint: stats %+v", st)
	}
}

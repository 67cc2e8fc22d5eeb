package trace

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kat/internal/core"
	"kat/internal/generator"
	"kat/internal/history"
)

// streamText serializes a trace in global start order — the natural order
// of an operation log, which satisfies the streaming arrival requirement
// (per-key nondecreasing starts).
func streamText(tr *Trace) string {
	var b strings.Builder
	if err := WriteArrivalOrder(&b, tr); err != nil {
		panic(err)
	}
	return b.String()
}

// buildStreamTrace mixes well-formed keys of varying concurrency and
// staleness with keys carrying true anomalies, so every error path crosses
// the segmenter too.
func buildStreamTrace(keys int, seedBase int64) *Trace {
	tr := New()
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%03d", i)
		switch {
		case i%11 == 5:
			// Dangling read in its own segment.
			tr.Add(key, history.Operation{Kind: history.KindWrite, Value: 1, Start: 0, Finish: 10})
			tr.Add(key, history.Operation{Kind: history.KindRead, Value: 99, Start: 20, Finish: 30})
		case i%13 == 7:
			// Read precedes its dictating write across a quiescent cut.
			tr.Add(key, history.Operation{Kind: history.KindRead, Value: 5, Start: 0, Finish: 10})
			tr.Add(key, history.Operation{Kind: history.KindWrite, Value: 5, Start: 20, Finish: 30})
		case i%17 == 9:
			// Duplicate written value in different segments.
			tr.Add(key, history.Operation{Kind: history.KindWrite, Value: 1, Start: 0, Finish: 10})
			tr.Add(key, history.Operation{Kind: history.KindWrite, Value: 2, Start: 20, Finish: 30})
			tr.Add(key, history.Operation{Kind: history.KindWrite, Value: 1, Start: 40, Finish: 50})
		default:
			h := generator.KAtomic(generator.Config{
				Seed: seedBase + int64(i), Ops: 40, Concurrency: 1 + i%4,
				StalenessDepth: i % 3, ForceDepth: i%2 == 0, ReadFraction: 0.5,
			})
			if i%5 == 4 {
				h = generator.InjectStaleness(h, seedBase+int64(i), 0.25, 1+i%2)
			}
			for _, op := range h.Ops {
				tr.Add(key, op)
			}
		}
	}
	return tr
}

// assertStreamMatches compares a streamed report with the monolithic one:
// same keys, op counts, and verdicts, and the same error *presence* (the
// segmenter may classify a multi-anomaly key under a different kind).
func assertStreamMatches(t *testing.T, mono, stream Report) {
	t.Helper()
	if len(mono.Keys) != len(stream.Keys) {
		t.Fatalf("key counts differ: %d vs %d", len(mono.Keys), len(stream.Keys))
	}
	for i := range mono.Keys {
		m, s := mono.Keys[i], stream.Keys[i]
		if m.Key != s.Key || m.Ops != s.Ops || m.Atomic != s.Atomic {
			t.Errorf("key slot %d differs: %+v vs %+v", i, m, s)
		}
		if (m.Err == nil) != (s.Err == nil) {
			t.Errorf("key %s: error presence differs: %v vs %v", m.Key, m.Err, s.Err)
		}
	}
}

func TestStreamCheckMatchesMonolithic(t *testing.T) {
	for _, keys := range []int{1, 7, 60} {
		text := streamText(buildStreamTrace(keys, int64(keys)))
		tr, err := ParseReader(strings.NewReader(text))
		if err != nil {
			t.Fatalf("ParseReader: %v", err)
		}
		// Verdicts must be identical for any segment-boundary placement
		// (MinSegmentOps 1 cuts at every quiescent instant; 1<<20 never
		// cuts before EOF) and any worker count.
		for _, k := range []int{1, 2, 3} {
			mono := CheckParallel(tr, k, core.Options{}, 0)
			for _, cfg := range []struct{ workers, minSeg int }{
				{1, 1}, {4, 7}, {0, 0}, {2, 1 << 20},
			} {
				rep, stats, err := StreamCheck(strings.NewReader(text), k, core.Options{},
					StreamOptions{Workers: cfg.workers, MinSegmentOps: cfg.minSeg})
				if err != nil {
					t.Fatalf("keys=%d k=%d cfg=%+v: StreamCheck: %v", keys, k, cfg, err)
				}
				assertStreamMatches(t, mono, rep)
				if stats.Ops != int64(tr.Len()) || stats.Keys != len(tr.Keys) {
					t.Errorf("stats mismatch: %+v", stats)
				}
			}
		}
	}
}

func TestStreamSmallestKMatchesMonolithic(t *testing.T) {
	text := streamText(buildStreamTrace(40, 99))
	tr, err := ParseReader(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseReader: %v", err)
	}
	mono := SmallestKByKeyParallel(tr, core.Options{}, 0)
	for _, cfg := range []struct{ workers, minSeg int }{{1, 1}, {0, 0}, {2, 1 << 20}} {
		got, stats, err := StreamSmallestKByKey(strings.NewReader(text), core.Options{},
			StreamOptions{Workers: cfg.workers, MinSegmentOps: cfg.minSeg})
		if err != nil {
			t.Fatalf("StreamSmallestKByKey: %v", err)
		}
		if stats.SaturatedKeys != 0 {
			t.Fatalf("unexpected saturation: %+v", stats)
		}
		if len(got) != len(mono) {
			t.Fatalf("map sizes differ: %d vs %d", len(got), len(mono))
		}
		for key, k := range mono {
			if got[key] != k {
				t.Errorf("cfg=%+v key %s: k=%d, want %d", cfg, key, got[key], k)
			}
		}
	}
}

// A read reaching back into a still-held segment must merge, not misreport:
// with k=5 nothing dispatches early, so the backward read is resolved
// jointly and the verdicts match the monolithic ones exactly.
func TestStreamMergesBackwardReads(t *testing.T) {
	const text = `w k 1 0 10
w k 2 20 30
w k 3 40 50
w k 4 60 70
r k 1 80 90
`
	tr, _ := ParseReader(strings.NewReader(text))
	for _, k := range []int{4, 5} {
		mono := CheckParallel(tr, k, core.Options{}, 1)
		rep, stats, err := StreamCheck(strings.NewReader(text), k, core.Options{}, StreamOptions{Workers: 1, MinSegmentOps: 1})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		assertStreamMatches(t, mono, rep)
		if stats.Merges == 0 {
			t.Errorf("k=%d: expected a deque merge, stats %+v", k, stats)
		}
		if stats.StaleReads != 0 {
			t.Errorf("k=%d: backward read misclassified as stale: %+v", k, stats)
		}
	}
}

// A read reaching past k dispatched writes is a definitive violation — the
// segments are long gone, yet the verdict still matches the monolithic
// checker.
func TestStreamCrossBoundaryStaleRead(t *testing.T) {
	var b strings.Builder
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&b, "w k %d %d %d\n", i, 20*i, 20*i+10)
	}
	fmt.Fprintf(&b, "r k 1 %d %d\n", 20*41, 20*41+10)
	text := b.String()
	tr, _ := ParseReader(strings.NewReader(text))
	for _, k := range []int{1, 2, 3} {
		mono := CheckParallel(tr, k, core.Options{}, 1)
		if mono.Atomic() {
			t.Fatalf("k=%d: monolithic unexpectedly atomic", k)
		}
		rep, stats, err := StreamCheck(strings.NewReader(text), k, core.Options{}, StreamOptions{Workers: 2, MinSegmentOps: 1})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		assertStreamMatches(t, mono, rep)
		if stats.StaleReads == 0 {
			t.Errorf("k=%d: stale read not counted: %+v", k, stats)
		}
	}
	// smallest-k with a horizon the read out-reaches: floor, flagged.
	ks, stats, err := StreamSmallestKByKey(strings.NewReader(text), core.Options{},
		StreamOptions{Workers: 1, Horizon: 5, MinSegmentOps: 1})
	if err != nil {
		t.Fatalf("StreamSmallestKByKey: %v", err)
	}
	if stats.SaturatedKeys != 1 {
		t.Fatalf("want 1 saturated key, got %+v", stats)
	}
	if ks["k"] < 6 {
		t.Errorf("saturated floor too low: %d", ks["k"])
	}
	// With a generous horizon the answer is exact.
	ks, stats, err = StreamSmallestKByKey(strings.NewReader(text), core.Options{}, StreamOptions{MinSegmentOps: 1})
	if err != nil || stats.SaturatedKeys != 0 {
		t.Fatalf("exact run: %v %+v", err, stats)
	}
	if want := SmallestKByKey(tr, core.Options{})["k"]; ks["k"] != want {
		t.Errorf("exact k=%d, want %d", ks["k"], want)
	}
}

func TestStreamOutOfOrderDetected(t *testing.T) {
	const text = "w k 1 0 10\nw k 2 20 30\nw k 3 5 15\n"
	_, _, err := StreamCheck(strings.NewReader(text), 2, core.Options{}, StreamOptions{MinSegmentOps: 1})
	if err == nil || !strings.Contains(err.Error(), "committed cut") {
		t.Fatalf("out-of-order input not rejected: %v", err)
	}
}

// gateReader serves the input up to a gate position, then blocks until
// released (or a timeout it records). It proves verdicts land before the
// input is fully consumed: if the engine were not pipelined, nothing would
// ever release the gate.
type gateReader struct {
	rest     io.Reader
	pre      io.Reader
	release  chan struct{}
	timedOut bool
	opened   bool
}

func (g *gateReader) Read(p []byte) (int, error) {
	n, err := g.pre.Read(p)
	if n > 0 || err != io.EOF {
		return n, err
	}
	if !g.opened {
		select {
		case <-g.release:
		case <-time.After(30 * time.Second):
			g.timedOut = true
		}
		g.opened = true
	}
	return g.rest.Read(p)
}

func TestStreamVerdictBeforeEOF(t *testing.T) {
	tr := New()
	for i := 0; i < 4; i++ {
		h := generator.KAtomic(generator.Config{
			Seed: int64(i), Ops: 3000, Concurrency: 1, StalenessDepth: 1, ReadFraction: 0.5,
		})
		for _, op := range h.Ops {
			tr.Add(fmt.Sprintf("key-%d", i), op)
		}
	}
	text := streamText(tr)
	cut := len(text) * 3 / 4
	release := make(chan struct{})
	var once atomic.Bool
	g := &gateReader{
		pre:     strings.NewReader(text[:cut]),
		rest:    strings.NewReader(text[cut:]),
		release: release,
	}
	rep, stats, err := StreamCheck(g, 2, core.Options{}, StreamOptions{
		OnSegment: func(SegmentVerdict) {
			if once.CompareAndSwap(false, true) {
				close(release)
			}
		},
	})
	if err != nil {
		t.Fatalf("StreamCheck: %v", err)
	}
	if g.timedOut {
		t.Fatal("no segment verdict arrived while input was still pending")
	}
	if !rep.Atomic() {
		t.Fatalf("trace rejected: %+v", rep.FailingKeys())
	}
	if stats.FirstVerdictOps == 0 || stats.FirstVerdictOps >= stats.Ops {
		t.Errorf("first verdict at %d of %d ops — not pipelined", stats.FirstVerdictOps, stats.Ops)
	}
	if stats.PeakBufferedOps >= stats.Ops {
		t.Errorf("peak buffer %d not below trace size %d", stats.PeakBufferedOps, stats.Ops)
	}
}

func TestStreamDuplicateValueAcrossSegments(t *testing.T) {
	const text = "w k 1 0 10\nw k 2 20 30\nw k 1 40 50\n"
	tr, _ := ParseReader(strings.NewReader(text))
	mono := CheckParallel(tr, 2, core.Options{}, 1)
	rep, _, err := StreamCheck(strings.NewReader(text), 2, core.Options{}, StreamOptions{MinSegmentOps: 1})
	if err != nil {
		t.Fatalf("StreamCheck: %v", err)
	}
	assertStreamMatches(t, mono, rep)
	if rep.Keys[0].Err == nil {
		t.Fatal("cross-segment duplicate value not reported")
	}
}

func TestStreamEmptyAndTiny(t *testing.T) {
	rep, stats, err := StreamCheck(strings.NewReader(""), 2, core.Options{}, StreamOptions{})
	if err != nil || len(rep.Keys) != 0 || !rep.Atomic() || stats.Ops != 0 {
		t.Fatalf("empty stream: %+v %+v %v", rep, stats, err)
	}
	rep, _, err = StreamCheck(strings.NewReader("w k 1 0 10\n"), 1, core.Options{}, StreamOptions{})
	if err != nil || !rep.Atomic() || rep.Keys[0].Ops != 1 {
		t.Fatalf("single op: %+v %v", rep, err)
	}
	if _, _, err = StreamCheck(strings.NewReader("w k 1 0\n"), 1, core.Options{}, StreamOptions{}); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, _, err = StreamCheck(strings.NewReader("ok"), 0, core.Options{}, StreamOptions{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// A key whose operations span several 256 KiB read blocks must come out as
// Trace.Add would have built it — every operation, in arrival order, ID =
// arrival index — next to a key that ends part-way through and a small one.
func TestParseReaderJoinsChunks(t *testing.T) {
	const lines = 40000
	want := New()
	var text strings.Builder
	for i := 0; i < lines; i++ {
		for _, key := range []string{"hot", "edge", "cold"} {
			if key == "edge" && i >= lines/2 || key == "cold" && i >= 5 {
				continue
			}
			op := history.Operation{Kind: history.KindWrite, Value: int64(i), Start: int64(2 * i), Finish: int64(2*i + 1)}
			want.Add(key, op)
			fmt.Fprintf(&text, "w %s %d %d %d\n", key, op.Value, op.Start, op.Finish)
		}
	}
	if text.Len() < 4*256<<10 {
		t.Fatalf("trace of %d bytes spans too few read blocks", text.Len())
	}
	got, err := ParseReader(strings.NewReader(text.String()))
	if err != nil {
		t.Fatalf("ParseReader: %v", err)
	}
	if len(got.Keys) != len(want.Keys) {
		t.Fatalf("keys = %d, want %d", len(got.Keys), len(want.Keys))
	}
	for key, wh := range want.Keys {
		if gh := got.Keys[key]; gh == nil || !slices.Equal(gh.Ops, wh.Ops) {
			t.Fatalf("key %s differs from Trace.Add's", key)
		}
	}
}

func TestParseReaderMatchesParse(t *testing.T) {
	text := streamText(buildStreamTrace(12, 7)) + "# comment\nw extra 1 0 10; r extra 1 20 30\n"
	want, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got, err := ParseReader(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseReader: %v", err)
	}
	if len(want.Keys) != len(got.Keys) {
		t.Fatalf("key counts differ: %d vs %d", len(want.Keys), len(got.Keys))
	}
	for key, wh := range want.Keys {
		gh := got.Keys[key]
		if gh == nil || gh.Len() != wh.Len() {
			t.Fatalf("key %s differs", key)
		}
		for i := range wh.Ops {
			if wh.Ops[i] != gh.Ops[i] {
				t.Fatalf("key %s op %d differs: %v vs %v", key, i, wh.Ops[i], gh.Ops[i])
			}
		}
	}
}

// FuzzParseKeyedOp holds the trace's text doors to the codec they stand on.
// The in-place parser it used to compare with the string parser is now the
// scanner under history.TextDecoder, and that comparison, with this corpus,
// is history.FuzzParseOp; what is left here is the trace's own: a segment
// reaches ParseStreamBytes's emit exactly as the scanner reads the trimmed
// segment handed to it whole, an error comes back under the segment's
// position, and what parses prints through AppendKeyedOpText and Trace.String
// to a line that parses back to itself.
func FuzzParseKeyedOp(f *testing.F) {
	for _, seed := range []string{
		"w k 1 0 10",
		"w k 1 0 10 weight=3 client=7",
		"r k 1 0 10 client=7 weight=3",
		"w k 1 0 10 client=1 client=2",
		"w k 1 0 10 weight=2 client=1 weight=5",
		"w k 1 0 10 weight=0",
		"w k 1 0 10 weight=-1",
		"r k 1 0 10 client=+7",
		"r k 1 0 10 client=-7",
		"w k 1 0 10 client=1234567890123456789",
		"w k 1234567890123456789 0 10 weight=1234567890123456789",
		"w k 1 0 10 color=3",
		"w k 1 0 10 a=b=c",
		"w k 1 0 10 client=1=2",
		"w k 1 0 10 client",
		"w k 1 0 10 client=",
		"w k 1 0 10 =5",
		"w k 1 0 10 weight=1 client=2 client=3",
		"w k 1 0 10 weight=1 client=2 client=3 weight=4",
		"w\tk\t1\t0\t10\tclient=4",
		"W k -1 -5 +10",
		"write k 1 0 10",
		"x k 1 0 10",
		"w k 1 0",
		"w k one 0 10",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, part string) {
		if strings.ContainsAny(part, ";#\n") {
			return // more than one segment
		}
		var got []KeyedOp
		err := ParseStreamBytes(strings.NewReader(part), func(key []byte, op history.Operation) error {
			got = append(got, KeyedOp{Key: string(key), Op: op})
			return nil
		})
		trimmed := bytes.TrimSpace([]byte(part))
		if len(trimmed) == 0 {
			if err != nil || len(got) != 0 {
				t.Fatalf("%q: blank input gave %v, %v", part, got, err)
			}
			return
		}
		var want []KeyedOp
		d := history.TextDecoder{Keyed: true}
		wantErr := d.Scan(trimmed, func(key []byte, op history.Operation) error {
			want = append(want, KeyedOp{Key: string(key), Op: op})
			return nil
		})
		if wantErr != nil {
			if !strings.HasPrefix(wantErr.Error(), fmt.Sprintf("trace: segment 1 (%q): ", trimmed)) {
				t.Fatalf("%q: the scanner words its error %v", part, wantErr)
			}
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%q: error %v, want %v", part, err, wantErr)
			}
			return
		}
		if err != nil || len(got) != 1 || len(want) != 1 || got[0] != want[0] {
			t.Fatalf("%q: streamed %+v (%v), the scanner says %+v", part, got, err, want)
		}
		line := AppendKeyedOpText(nil, want[0].Key, want[0].Op)
		tr, err := Parse(string(line))
		if err != nil || tr.String() != string(line) {
			t.Fatalf("%q: printed %q, which parses (%v) and prints back as %q", part, line, err, tr)
		}
	})
}

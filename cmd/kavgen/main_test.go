package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kat"
	"kat/internal/online"
	"kat/internal/trace"
)

func TestGenKAtomic(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kind", "katomic", "-ops", "50", "-depth", "1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	h, err := kat.Parse(out.String())
	if err != nil {
		t.Fatalf("output not parseable: %v", err)
	}
	rep, err := kat.Check(h, 2, kat.Options{})
	if err != nil || !rep.Atomic {
		t.Errorf("generated history not 2-atomic: %v %+v", err, rep)
	}
}

func TestGenRandom(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kind", "random", "-ops", "30", "-seed", "5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := kat.Parse(out.String()); err != nil {
		t.Fatalf("output not parseable: %v", err)
	}
}

func TestGenInject(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-kind", "katomic", "-ops", "60", "-inject", "1.0", "-inject-depth", "3"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	h, err := kat.Parse(out.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	k, err := kat.SmallestK(h, kat.Options{})
	if err != nil {
		t.Fatalf("SmallestK: %v", err)
	}
	if k < 2 {
		t.Errorf("full injection left k=%d", k)
	}
}

func TestGenJSON(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kind", "katomic", "-ops", "10", "-json"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var h kat.History
	if err := h.UnmarshalJSON([]byte(out.String())); err != nil {
		t.Fatalf("output not JSON: %v", err)
	}
	if h.Len() == 0 {
		t.Error("empty JSON history")
	}
}

func TestGenUnknownKind(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kind", "bogus"}, &out); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestGenTrap(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kind", "trap", "-chain", "8", "-goods", "3"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	h, err := kat.Parse(out.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rep, err := kat.Check(h, 2, kat.Options{})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.Atomic {
		t.Error("trap history should not be 2-atomic")
	}
}

func TestGenerateKeyedTrace(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-keys", "5", "-ops", "30", "-depth", "1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	tr, err := kat.ParseTrace(out.String())
	if err != nil {
		t.Fatalf("keyed output does not parse: %v", err)
	}
	if len(tr.Keys) != 5 {
		t.Fatalf("got %d keys, want 5", len(tr.Keys))
	}
	// Arrival order: the streaming verifier must accept the output.
	rep, _, err := kat.StreamCheckTrace(strings.NewReader(out.String()), 2,
		kat.Options{}, kat.StreamOptions{})
	if err != nil {
		t.Fatalf("StreamCheckTrace: %v", err)
	}
	if !rep.Atomic() {
		t.Fatalf("generated depth-1 trace not 2-atomic: %v", rep.FailingKeys())
	}
	if err := run([]string{"-keys", "2", "-json"}, &out); err == nil {
		t.Error("-keys -json accepted")
	}
}

func TestGenerateZipfTrace(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-keys", "8", "-ops", "50", "-depth", "1", "-zipf", "1.4"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	tr, err := kat.ParseTrace(out.String())
	if err != nil {
		t.Fatalf("zipf output does not parse: %v", err)
	}
	if tr.Len() != 8*50 {
		t.Fatalf("zipf trace has %d ops, want %d (skew must preserve the total)", tr.Len(), 8*50)
	}
	// The rank-0 key must be hotter than a uniform share — the whole point
	// of the skew — and the trace must still verify through the stream.
	hottest := 0
	for _, h := range tr.Keys {
		if h.Len() > hottest {
			hottest = h.Len()
		}
	}
	if hottest <= 50 {
		t.Fatalf("hottest key has %d ops; expected a hot key above the uniform 50", hottest)
	}
	rep, _, err := kat.StreamCheckTrace(strings.NewReader(out.String()), 2,
		kat.Options{}, kat.StreamOptions{})
	if err != nil {
		t.Fatalf("StreamCheckTrace: %v", err)
	}
	if !rep.Atomic() {
		t.Fatalf("generated zipf trace not 2-atomic: %v", rep.FailingKeys())
	}
}

func TestZipfFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-zipf", "1.2"}, &out); err == nil {
		t.Error("-zipf without -keys accepted")
	}
	if err := run([]string{"-keys", "4", "-zipf", "0.9"}, &out); err == nil {
		t.Error("-zipf <= 1 accepted")
	}
}

func TestReplayAgainstServer(t *testing.T) {
	srv := online.New(online.Config{K: 2, Stream: trace.StreamOptions{Workers: 2, MinSegmentOps: 4}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	genArgs := []string{"-keys", "6", "-ops", "40", "-depth", "1", "-inject", "0.5", "-inject-depth", "2", "-seed", "3"}
	var replayOut strings.Builder
	args := append(append([]string{}, genArgs...),
		"-replay", ts.URL, "-clients", "5", "-rate", "50000", "-drain")
	if err := run(args, &replayOut); err != nil {
		t.Fatalf("replay run: %v\n%s", err, replayOut.String())
	}
	if !strings.Contains(replayOut.String(), "final verdicts") {
		t.Fatalf("replay output missing drained verdicts:\n%s", replayOut.String())
	}

	// The drained server must agree with the offline checker on the very
	// same generated trace.
	var genOut strings.Builder
	if err := run(genArgs, &genOut); err != nil {
		t.Fatalf("gen run: %v", err)
	}
	tr, err := kat.ParseTrace(genOut.String())
	if err != nil {
		t.Fatal(err)
	}
	for key, wantK := range kat.SmallestKByKey(tr, kat.Options{}) {
		line := fmt.Sprintf("key %-12s %6d ops  smallest k: %d", key, tr.Keys[key].Len(), wantK)
		if !strings.Contains(replayOut.String(), line) {
			t.Fatalf("replay verdicts missing %q:\n%s", line, replayOut.String())
		}
	}
}

func TestReplayFromFile(t *testing.T) {
	srv := online.New(online.Config{Stream: trace.StreamOptions{Workers: 1}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	path := filepath.Join(dir, "trace.txt")
	var gen strings.Builder
	if err := run([]string{"-keys", "3", "-ops", "20"}, &gen); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(gen.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-replay", ts.URL, "-clients", "2", path}, &out); err != nil {
		t.Fatalf("replay from file: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "live verdicts") {
		t.Fatalf("undrained replay should print live verdicts:\n%s", out.String())
	}
}

func TestReplayFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-replay", "http://x", "-json"}, &out); err == nil {
		t.Error("-replay -json accepted")
	}
	if err := run([]string{"-replay", "http://x"}, &out); err == nil {
		t.Error("-replay without -keys or file accepted")
	}
}

// TestGenerateWireTrace proves -format wire emits a binary stream the
// format-sniffing streaming readers verify to the same verdicts as the text
// rendering of the same generated trace.
func TestGenerateWireTrace(t *testing.T) {
	genArgs := []string{"-keys", "4", "-ops", "30", "-depth", "1", "-inject", "0.4", "-seed", "7"}
	var text strings.Builder
	if err := run(genArgs, &text); err != nil {
		t.Fatal(err)
	}
	wantKs, _, err := kat.StreamSmallestKByKey(strings.NewReader(text.String()), kat.Options{}, kat.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-format", "wire"},
		{"-format", "wire", "-compress", "-frame-ops", "16"},
	} {
		var bin bytes.Buffer
		if err := run(append(append([]string{}, genArgs...), extra...), &bin); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if bytes.Equal(bin.Bytes(), []byte(text.String())) {
			t.Fatal("-format wire emitted the text rendering")
		}
		gotKs, _, err := kat.StreamSmallestKByKey(bytes.NewReader(bin.Bytes()), kat.Options{}, kat.StreamOptions{})
		if err != nil {
			t.Fatalf("%v: binary stream did not verify: %v", extra, err)
		}
		if fmt.Sprint(gotKs) != fmt.Sprint(wantKs) {
			t.Fatalf("%v: wire verdicts %v, want %v", extra, gotKs, wantKs)
		}
	}
}

// TestWireFlagValidation checks the codec flags' usage errors. -frame-ops and
// -compress shape -format wire output only, so text output and -replay, which
// posts each batch as one frame of its own, refuse them instead of ignoring
// them. Nothing is generated, printed or sent.
func TestWireFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-format", "yaml"}, "unknown format"},
		{[]string{"-format", "wire"}, "requires -keys"},
		{[]string{"-keys", "2", "-ops", "3", "-compress"}, "-compress applies only"},
		{[]string{"-keys", "2", "-ops", "3", "-frame-ops", "16"}, "-frame-ops applies only"},
		{[]string{"-keys", "2", "-ops", "3", "-format", "text", "-compress"}, "-compress applies only"},
		{[]string{"-keys", "2", "-replay", "http://127.0.0.1:1", "-format", "wire", "-compress"}, "-compress applies only"},
		{[]string{"-keys", "2", "-replay", "http://127.0.0.1:1", "-format", "wire", "-frame-ops", "16"}, "-frame-ops applies only"},
	} {
		var out strings.Builder
		if err := run(c.args, &out); err == nil || !strings.Contains(err.Error(), c.want) || out.Len() != 0 {
			t.Errorf("%v: err %v, output %q; want a usage error containing %q", c.args, err, out.String(), c.want)
		}
	}
}

// TestReplayWire replays a generated trace as binary wire frames and checks
// the drained server agrees with the offline checker — the -format wire twin of
// TestReplayAgainstServer.
func TestReplayWire(t *testing.T) {
	srv := online.New(online.Config{K: 2, Stream: trace.StreamOptions{Workers: 2, MinSegmentOps: 4}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	genArgs := []string{"-keys", "5", "-ops", "40", "-depth", "1", "-inject", "0.5", "-inject-depth", "2", "-seed", "11"}
	var replayOut strings.Builder
	args := append(append([]string{}, genArgs...),
		"-replay", ts.URL, "-clients", "3", "-batch-ops", "32", "-format", "wire", "-drain")
	if err := run(args, &replayOut); err != nil {
		t.Fatalf("wire replay run: %v\n%s", err, replayOut.String())
	}

	var genOut strings.Builder
	if err := run(genArgs, &genOut); err != nil {
		t.Fatal(err)
	}
	tr, err := kat.ParseTrace(genOut.String())
	if err != nil {
		t.Fatal(err)
	}
	for key, wantK := range kat.SmallestKByKey(tr, kat.Options{}) {
		line := fmt.Sprintf("key %-12s %6d ops  smallest k: %d", key, tr.Keys[key].Len(), wantK)
		if !strings.Contains(replayOut.String(), line) {
			t.Fatalf("wire replay verdicts missing %q:\n%s", line, replayOut.String())
		}
	}
}

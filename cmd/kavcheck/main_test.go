package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kat"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hist.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckAccepts(t *testing.T) {
	path := writeTemp(t, "w 1 0 10\nw 2 20 30\nr 1 40 50\n")
	var out strings.Builder
	if err := run([]string{"-k", "2", path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2-atomic: true") {
		t.Errorf("output = %q", out.String())
	}
}

// TestCheckSingleRegisterWorkers drives the chunk-parallel single-register
// path: -workers != 1 on a plain (non-keyed) history must agree with the
// sequential run for both the fixed-k check and -smallest.
func TestCheckSingleRegisterWorkers(t *testing.T) {
	path := writeTemp(t, "w 1 0 10\nw 2 20 30\nr 1 40 50\nw 3 100 110\nr 3 120 130\n")
	var par, seq strings.Builder
	if err := run([]string{"-k", "2", "-workers", "4", path}, &par); err != nil {
		t.Fatalf("parallel run: %v\n%s", err, par.String())
	}
	if err := run([]string{"-k", "2", path}, &seq); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	if !strings.Contains(par.String(), "2-atomic: true") {
		t.Errorf("parallel output = %q", par.String())
	}
	par.Reset()
	if err := run([]string{"-smallest", "-workers", "4", path}, &par); err != nil {
		t.Fatalf("parallel -smallest: %v\n%s", err, par.String())
	}
	if !strings.Contains(par.String(), "smallest k: 2") {
		t.Errorf("parallel -smallest output = %q", par.String())
	}
	// A rejecting history must still exit non-zero through the parallel path.
	bad := writeTemp(t, "w 1 0 10\nw 2 20 30\nw 3 40 50\nr 1 60 70\n")
	var out strings.Builder
	if err := run([]string{"-k", "2", "-workers", "2", bad}, &out); err == nil {
		t.Fatal("violating history accepted by parallel path")
	}
}

func TestCheckRejectsWithError(t *testing.T) {
	path := writeTemp(t, "w 1 0 10\nw 2 20 30\nw 3 40 50\nr 1 60 70\n")
	var out strings.Builder
	err := run([]string{"-k", "2", path}, &out)
	if err == nil {
		t.Fatal("violating history did not produce an error exit")
	}
	if !strings.Contains(out.String(), "2-atomic: false") {
		t.Errorf("output = %q", out.String())
	}
}

func TestCheckSmallest(t *testing.T) {
	path := writeTemp(t, "w 1 0 10\nw 2 20 30\nr 1 40 50\n")
	var out strings.Builder
	if err := run([]string{"-smallest", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "smallest k: 2") {
		t.Errorf("output = %q", out.String())
	}
}

func TestCheckWitness(t *testing.T) {
	path := writeTemp(t, "w 1 0 10\nr 1 20 30\n")
	var out strings.Builder
	if err := run([]string{"-k", "1", "-witness", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "witness order:") {
		t.Errorf("output = %q", out.String())
	}
}

func TestCheckWeighted(t *testing.T) {
	path := writeTemp(t, "w 1 0 10 weight=2\nw 2 20 30 weight=3\nr 1 40 50\n")
	var out strings.Builder
	if err := run([]string{"-weighted", "5", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "weighted 5-atomic: true") {
		t.Errorf("output = %q", out.String())
	}
}

func TestCheckShrink(t *testing.T) {
	path := writeTemp(t, `
w 1 0 10
w 2 20 30
w 3 40 50
r 1 60 70
w 9 100 110
r 9 120 130
`)
	var out strings.Builder
	err := run([]string{"-k", "2", "-shrink", path}, &out)
	if err == nil {
		t.Fatal("expected failure exit")
	}
	if !strings.Contains(out.String(), "minimal violating core (4 ops)") {
		t.Errorf("output = %q", out.String())
	}
}

func TestCheckAlgorithms(t *testing.T) {
	path := writeTemp(t, "w 1 0 10\nr 1 20 30\n")
	for _, algo := range []string{"auto", "lbt", "fzf", "oracle"} {
		k := "2"
		var out strings.Builder
		if err := run([]string{"-k", k, "-algo", algo, path}, &out); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
	var out strings.Builder
	if err := run([]string{"-algo", "bogus", path}, &out); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestCheckJSONInput(t *testing.T) {
	path := writeTemp(t, `{"ops":[{"kind":"w","value":1,"start":0,"finish":10},{"kind":"r","value":1,"start":20,"finish":30}]}`)
	var out strings.Builder
	if err := run([]string{"-k", "1", "-json", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "1-atomic: true") {
		t.Errorf("output = %q", out.String())
	}
}

func TestCheckMissingFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"/nonexistent/file.txt"}, &out); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCheckDeltaFlag(t *testing.T) {
	path := writeTemp(t, "w 1 0 10\nw 2 20 30\nr 1 40 50\n")
	var out strings.Builder
	if err := run([]string{"-k", "2", "-delta", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "smallest Δ") {
		t.Errorf("delta line missing:\n%s", out.String())
	}
}

func TestCheckTimelineFlag(t *testing.T) {
	path := writeTemp(t, "w 1 0 10\nr 1 20 30\n")
	var out strings.Builder
	if err := run([]string{"-k", "1", "-timeline", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "w(1)") {
		t.Errorf("timeline missing:\n%s", out.String())
	}
}

func TestCheckKeyedTrace(t *testing.T) {
	path := writeTemp(t, "w x 1 0 10\nr x 1 20 30\nw y 1 5 15\nw y 2 25 35\nr y 1 45 55\n")
	var out strings.Builder
	if err := run([]string{"-k", "2", "-keyed", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "all 2 keys are 2-atomic") {
		t.Errorf("keyed summary missing:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-k", "1", "-keyed", path}, &out); err == nil {
		t.Error("k=1 keyed check should fail (key y is stale)")
	}
	if !strings.Contains(out.String(), "key y") {
		t.Errorf("per-key rows missing:\n%s", out.String())
	}
}

func TestCheckKeyedWorkers(t *testing.T) {
	path := writeTemp(t, "w x 1 0 10\nr x 1 20 30\nw y 1 5 15\nw y 2 25 35\nr y 1 45 55\n")
	for _, workers := range []string{"0", "1", "4"} {
		var out strings.Builder
		if err := run([]string{"-k", "2", "-keyed", "-workers", workers, path}, &out); err != nil {
			t.Fatalf("workers=%s: %v\n%s", workers, err, out.String())
		}
		if !strings.Contains(out.String(), "all 2 keys are 2-atomic") {
			t.Errorf("workers=%s summary missing:\n%s", workers, out.String())
		}
	}
}

// TestCheckKeyedSmallest: -keyed -smallest answers each key's smallest k,
// the same lines -stream -smallest prints, not a fixed-k check at the
// default -k.
func TestCheckKeyedSmallest(t *testing.T) {
	path := writeTemp(t, "w a 1 0 10\nw a 2 20 30\nw a 3 40 50\nr a 1 60 70\nw b 1 0 10\nr b 1 20 30\n")
	var keyed, streamed strings.Builder
	if err := run([]string{"-keyed", "-smallest", path}, &keyed); err != nil {
		t.Fatalf("-keyed -smallest: %v\n%s", err, keyed.String())
	}
	if err := run([]string{"-stream", "-smallest", path}, &streamed); err != nil {
		t.Fatalf("-stream -smallest: %v\n%s", err, streamed.String())
	}
	want := "key a            smallest k: 3\nkey b            smallest k: 1\n"
	if keyed.String() != want {
		t.Errorf("-keyed -smallest output:\n%s\nwant:\n%s", keyed.String(), want)
	}
	if !strings.HasPrefix(streamed.String(), want) {
		t.Errorf("-stream -smallest output:\n%s\ndoes not open with:\n%s", streamed.String(), want)
	}
	// A key that fails verification is named in the error, as with -stream.
	bad := writeTemp(t, "w a 1 0 10\nr a 2 20 30\n")
	var out strings.Builder
	if err := run([]string{"-keyed", "-smallest", bad}, &out); err == nil || !strings.Contains(err.Error(), "[a]") {
		t.Errorf("dangling read: err = %v\n%s", err, out.String())
	}
}

// TestKeyedRejectsSingleRegisterFlags: flags that shape only a
// single-register check are a usage error with -keyed or -stream, not
// silently dropped.
func TestKeyedRejectsSingleRegisterFlags(t *testing.T) {
	path := writeTemp(t, "w x 1 0 10\nr x 1 20 30\n")
	for _, mode := range []string{"-keyed", "-stream"} {
		for _, flag := range [][]string{
			{"-algo", "lbt"}, {"-witness"}, {"-shrink"}, {"-weighted", "5"},
			{"-delta"}, {"-timeline"}, {"-json"},
		} {
			args := append(append([]string{mode}, flag...), path)
			var out strings.Builder
			err := run(args, &out)
			if err == nil || !strings.Contains(err.Error(), flag[0]+" cannot be used with -keyed or -stream") {
				t.Errorf("%s %s: err = %v\n%s", mode, flag[0], err, out.String())
			}
			if out.Len() > 0 {
				t.Errorf("%s %s printed %q before refusing", mode, flag[0], out.String())
			}
		}
	}
}

// TestStreamOnlyFlagsNeedStream: -horizon, and -properties in a keyed run,
// shape only the streaming pass, so without -stream they are a usage error,
// not silently dropped.
func TestStreamOnlyFlagsNeedStream(t *testing.T) {
	single := writeTemp(t, "w 1 0 10\nr 1 20 30\n")
	keyed := writeTemp(t, "w x 1 0 10\nr x 1 20 30\n")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-keyed", "-properties", keyed}, "-properties cannot be used without -stream"},
		{[]string{"-keyed", "-smallest", "-properties", keyed}, "-properties cannot be used without -stream"},
		{[]string{"-keyed", "-horizon", "8", keyed}, "-horizon cannot be used without -stream"},
		{[]string{"-keyed", "-properties", "-horizon", "8", keyed}, "-horizon, -properties cannot be used without -stream"},
		{[]string{"-horizon", "8", single}, "-horizon cannot be used without -stream"},
		{[]string{"-smallest", "-horizon", "8", single}, "-horizon cannot be used without -stream"},
	} {
		var out strings.Builder
		if err := run(tc.args, &out); err == nil || err.Error() != tc.want {
			t.Errorf("%v: err = %v, want %q\n%s", tc.args, err, tc.want, out.String())
		}
		if out.Len() > 0 {
			t.Errorf("%v printed %q before refusing", tc.args, out.String())
		}
	}
	// Where they shape the run, they are taken.
	for _, args := range [][]string{
		{"-properties", single},
		{"-stream", "-properties", "-horizon", "8", keyed},
		{"-stream", "-smallest", "-horizon", "8", keyed},
	} {
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Errorf("%v: %v\n%s", args, err, out.String())
		}
	}
}

func TestCheckStream(t *testing.T) {
	path := writeTemp(t, "w x 1 0 10\nw y 1 5 15\nr x 1 20 30\nw y 2 25 35\nr y 1 45 55\n")
	var out strings.Builder
	if err := run([]string{"-k", "2", "-stream", path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"all 2 keys are 2-atomic", "stream: 5 ops over 2 keys"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	out.Reset()
	if err := run([]string{"-k", "1", "-stream", path}, &out); err == nil {
		t.Error("k=1 stream check should fail (key y is stale)")
	}
}

func TestCheckStreamSmallest(t *testing.T) {
	path := writeTemp(t, "w x 1 0 10\nr x 1 20 30\nw y 1 5 15\nw y 2 25 35\nr y 1 45 55\n")
	var out strings.Builder
	if err := run([]string{"-stream", "-smallest", path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "key y            smallest k: 2") {
		t.Errorf("smallest-k rows missing:\n%s", got)
	}
}

// TestCheckStreamWireInput feeds -stream a binary wire file: the reader
// sniffs the magic and must print the very same output as the text form of
// the same trace, with no flag naming the codec.
func TestCheckStreamWireInput(t *testing.T) {
	text := "w x 1 0 10\nr x 1 20 30\nw y 1 5 15\nw y 2 25 35\nr y 1 45 55\n"
	tr, err := kat.ParseTrace(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		var bin bytes.Buffer
		if err := kat.WriteTraceWireArrivalOrder(&bin, tr, 2, compress); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "trace.wire")
		if err := os.WriteFile(path, bin.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var wireOut, textOut strings.Builder
		if err := run([]string{"-stream", "-smallest", path}, &wireOut); err != nil {
			t.Fatalf("compress=%v: %v\n%s", compress, err, wireOut.String())
		}
		if err := run([]string{"-stream", "-smallest", writeTemp(t, text)}, &textOut); err != nil {
			t.Fatal(err)
		}
		if wireOut.String() != textOut.String() {
			t.Fatalf("compress=%v: wire and text runs disagree:\n%s\nvs\n%s",
				compress, wireOut.String(), textOut.String())
		}
		// The fixed-k form sniffs too.
		var out strings.Builder
		if err := run([]string{"-k", "2", "-stream", path}, &out); err != nil {
			t.Fatalf("compress=%v fixed-k: %v\n%s", compress, err, out.String())
		}
		if !strings.Contains(out.String(), "all 2 keys are 2-atomic") {
			t.Errorf("compress=%v: fixed-k wire output:\n%s", compress, out.String())
		}
	}
}

func TestCheckStdinDash(t *testing.T) {
	// "-" routes to os.Stdin; redirect it to a file for the test.
	path := writeTemp(t, "w 1 0 10\nr 1 20 30\n")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = old }()
	var out strings.Builder
	if err := run([]string{"-k", "1", "-"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1-atomic: true") {
		t.Errorf("output = %q", out.String())
	}
}

func TestCheckPropertiesFlag(t *testing.T) {
	path := writeTemp(t, "w 1 0 10\nw 2 20 30\nr 1 40 50\n")
	var out strings.Builder
	if err := run([]string{"-k", "2", "-properties", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "regular=false") {
		t.Errorf("properties line missing or wrong:\n%s", out.String())
	}
}

func TestCheckStreamProperties(t *testing.T) {
	// key y's read is one write stale and overlaps nothing: k=2, Δ bridges
	// the gap back to the overwritten value, and the read is both
	// irregular and unsafe.
	path := writeTemp(t, "w x 1 0 10\nr x 1 20 30\nw y 1 5 15\nw y 2 25 35\nr y 1 45 55\n")
	var out strings.Builder
	if err := run([]string{"-stream", "-properties", path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"key x               2 ops  smallest k: 1  smallest Δ: 0  irregular: 0  unsafe: 0",
		"smallest k: 2",
		"irregular: 1  unsafe: 1",
		"stream: 5 ops over 2 keys",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

package serve

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"

	"kat/internal/faultfs"
)

func TestParseByteSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true}, {"1024", 1024, true}, {" 64M ", 64 << 20, true}, {"64 MiB", 64 << 20, true},
		{"64M", 64 << 20, true}, {"2G", 2 << 30, true}, {"1KiB", 1 << 10, true}, {"512kb", 512 << 10, true},
		{"3kb", 3 << 10, true}, {"3KiB", 3 << 10, true}, {"2g", 2 << 30, true}, {"1T", 1 << 40, true},
		{"8388607T", 8388607 << 40, true}, {"9223372036854775807", math.MaxInt64, true},
		{"abc", 0, false}, {"12x", 0, false}, {"12kbk", 0, false}, {"1b", 0, false}, {"k", 0, false}, {"-1", 0, false},
		// Past math.MaxInt64: the shift used to wrap these to 0 (which turned
		// the bound off), to a number unrelated to the input, and to a
		// negative int64.
		{"16777216T", 0, false}, {"17000000T", 0, false}, {"9223372036854775808", 0, false}, {"8388608T", 0, false},
	} {
		got, err := parseByteSize(tc.in, "-memory-budget")
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parseByteSize(%q) = %d, %v; want %d, ok %v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "-memory-budget: ") {
			t.Errorf("parseByteSize(%q): error %q does not name the flag", tc.in, err)
		}
	}
}

// TestFlagSetPinned holds kavserve's flags to a literal list, so a new knob
// is a visible diff here.
func TestFlagSetPinned(t *testing.T) {
	want := []string{
		"addr", "checkpoint-interval", "data-dir", "epoch", "forward-retries", "fsync",
		"hop-timeout", "horizon", "idle-timeout", "k", "memory-budget", "pprof", "probe-interval",
		"properties", "read-header-timeout", "read-timeout", "retire-ttl", "route",
		"shutdown-timeout", "tenant-max-keys", "tenant-max-ops", "tenants", "workers",
	}
	var usage strings.Builder
	if _, err := New([]string{"-h"}, &usage, faultfs.NewMem()); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("kavserve flags:\n got %q\nwant %q", got, want)
	}
}

// TestRemovedFlagsRefused: the segment floor, the shard count and the
// router's breaker tuning are constants of the service (library options of
// kat.StreamOptions; unexported values in cluster), so their old flags fail
// at parse time, in a verifying node and a router alike.
func TestRemovedFlagsRefused(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-min-segment-ops", "1"},
		{"-ingest-shards", "4"},
		{"-breaker-threshold", "2"},
		{"-breaker-cooldown", "150ms"},
	} {
		for _, args := range [][]string{
			{tc.flag, tc.value},
			{"-route", "http://localhost:1", tc.flag, tc.value},
		} {
			n, err := New(args, io.Discard, faultfs.NewMem())
			if want := "flag provided but not defined: " + tc.flag; err == nil || err.Error() != want {
				if n != nil {
					n.Close()
				}
				t.Errorf("%v: err = %v, want %q", args, err, want)
			}
		}
	}
}

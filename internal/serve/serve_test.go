package serve

import "testing"

func TestParseByteSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"", 0, true}, {"1024", 1024, true}, {" 64M ", 64 << 20, true}, {"64 MiB", 64 << 20, true},
		{"3kb", 3 << 10, true}, {"3KiB", 3 << 10, true}, {"2g", 2 << 30, true}, {"1T", 1 << 40, true},
		{"abc", 0, false}, {"12x", 0, false}, {"12kbk", 0, false}, {"1b", 0, false}, {"k", 0, false}, {"-1", 0, false},
	} {
		got, err := parseByteSize(tc.in, "-soft-watermark")
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parseByteSize(%q) = %d, %v; want %d, ok %v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

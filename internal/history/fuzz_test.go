package history

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzParse ensures the text parser never panics, that it returns exactly
// the operations its scanner emits (numbered by position, every field through
// the packed records ParseReader holds them in) or the scanner's error, and
// that everything it accepts survives a String/Parse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"w 1 0 10",
		"r 1 5 20",
		"w 1 0 10; r 1 5 20",
		"w 1 0 10 weight=3 client=2",
		"# comment\nw 1 0 10",
		"w -5 -10 -1",
		"w 9223372036854775807 0 1",
		"",
		";;;",
		"w 1 0 10 weight=",
		"w -9223372036854775808 9223372036854775807 -9223372036854775808 weight=-7 client=-3\nr 4 9223372036854775807 0",
		"w 3 50 60 client=9223372036854775807; r 3 10 20 weight=9223372036854775807; w 4 -1 0",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		h, err := Parse(text)
		var want []Operation
		wantErr := ScanText(strings.NewReader(text), false, func(_ []byte, op Operation) error {
			op.ID = len(want)
			want = append(want, op)
			return nil
		})
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil && !slices.Equal(h.Ops, want) {
			t.Fatalf("Parse(%q) = %v, %v; the scan emits %v, %v", text, h, err, want, wantErr)
		}
		if err != nil {
			return
		}
		h2, err := Parse(h.String())
		if err != nil {
			t.Fatalf("round trip failed: %v\noriginal: %q\nrendered: %q", err, text, h.String())
		}
		if h2.Len() != h.Len() {
			t.Fatalf("round trip changed length %d -> %d", h.Len(), h2.Len())
		}
	})
}

// FuzzNormalize ensures normalization of arbitrary parsed histories never
// panics, never produces duplicate endpoints, and never loses precedence
// edges.
func FuzzNormalize(f *testing.F) {
	f.Add("w 1 0 10; r 1 5 20; w 2 10 20")
	f.Add("w 1 5 5")
	f.Add("w 1 0 100; r 1 1 2")
	f.Fuzz(func(t *testing.T, text string) {
		h, err := Parse(text)
		if err != nil || h.Len() > 64 {
			return
		}
		n := Normalize(h)
		seen := make(map[int64]bool)
		for _, op := range n.Ops {
			if op.Start >= op.Finish {
				t.Fatalf("degenerate interval %+v from %q", op, text)
			}
			if seen[op.Start] || seen[op.Finish] {
				t.Fatalf("duplicate endpoint in %+v from %q", op, text)
			}
			seen[op.Start] = true
			seen[op.Finish] = true
		}
		for i := range h.Ops {
			for j := range h.Ops {
				if h.Ops[i].Precedes(h.Ops[j]) && !n.Ops[i].Precedes(n.Ops[j]) {
					t.Fatalf("lost precedence (%d,%d) in %q", i, j, text)
				}
			}
		}
	})
}

// FuzzJSONRoundTrip ensures the JSON codec tolerates arbitrary bytes and
// round-trips whatever it accepts.
func FuzzJSONRoundTrip(f *testing.F) {
	f.Add(`{"ops":[{"kind":"w","value":1,"start":0,"finish":10}]}`)
	f.Add(`{"ops":[]}`)
	f.Add(`{}`)
	f.Fuzz(func(t *testing.T, text string) {
		var h History
		if err := json.Unmarshal([]byte(text), &h); err != nil {
			return
		}
		out, err := json.Marshal(&h)
		if err != nil {
			t.Fatalf("Marshal after accept: %v", err)
		}
		var h2 History
		if err := json.Unmarshal(out, &h2); err != nil || h2.Len() != h.Len() {
			t.Fatalf("round trip: %v (%d vs %d ops)", err, h2.Len(), h.Len())
		}
	})
}

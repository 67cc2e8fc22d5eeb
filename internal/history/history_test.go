package history

import (
	"errors"
	"strings"
	"testing"
	"testing/iotest"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindWrite, "w"},
		{KindRead, "r"},
		{Kind(0), "Kind(0)"},
		{Kind(9), "Kind(9)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestOperationPredicates(t *testing.T) {
	w := Operation{Kind: KindWrite, Start: 0, Finish: 10}
	r := Operation{Kind: KindRead, Start: 20, Finish: 30}
	if !w.IsWrite() || w.IsRead() {
		t.Errorf("write misclassified: IsWrite=%v IsRead=%v", w.IsWrite(), w.IsRead())
	}
	if !r.IsRead() || r.IsWrite() {
		t.Errorf("read misclassified: IsWrite=%v IsRead=%v", r.IsWrite(), r.IsRead())
	}
	if !w.Precedes(r) {
		t.Error("w [0,10] should precede r [20,30]")
	}
	if r.Precedes(w) {
		t.Error("r [20,30] should not precede w [0,10]")
	}
	if w.ConcurrentWith(r) {
		t.Error("disjoint intervals should not be concurrent")
	}
	o := Operation{Kind: KindRead, Start: 5, Finish: 25}
	if !w.ConcurrentWith(o) || !o.ConcurrentWith(w) {
		t.Error("overlapping intervals should be concurrent")
	}
	// Touching endpoints: op1.Finish == op2.Start is NOT strict precedence.
	a := Operation{Kind: KindWrite, Start: 0, Finish: 10}
	b := Operation{Kind: KindRead, Start: 10, Finish: 20}
	if a.Precedes(b) {
		t.Error("touching intervals must not satisfy strict precedes")
	}
	if !a.ConcurrentWith(b) {
		t.Error("touching intervals are concurrent under the strict order")
	}
}

func TestEffectiveWeight(t *testing.T) {
	tests := []struct {
		weight int64
		want   int64
	}{
		{0, 1},
		{-3, 1},
		{1, 1},
		{7, 7},
	}
	for _, tt := range tests {
		op := Operation{Weight: tt.weight}
		if got := op.EffectiveWeight(); got != tt.want {
			t.Errorf("EffectiveWeight(%d) = %d, want %d", tt.weight, got, tt.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	const text = `
# a small history
w 1 0 10
r 1 5 20
w 2 15 25 weight=3
r 2 30 40 client=7
`
	h, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if h.Len() != 4 {
		t.Fatalf("Len = %d, want 4", h.Len())
	}
	if h.Writes() != 2 || h.Reads() != 2 {
		t.Fatalf("Writes=%d Reads=%d, want 2/2", h.Writes(), h.Reads())
	}
	if h.Ops[2].Weight != 3 {
		t.Errorf("weight attribute lost: %+v", h.Ops[2])
	}
	if h.Ops[3].Client != 7 {
		t.Errorf("client attribute lost: %+v", h.Ops[3])
	}
	// Round-trip through String/Parse.
	h2, err := Parse(h.String())
	if err != nil {
		t.Fatalf("re-Parse: %v", err)
	}
	if len(h2.Ops) != len(h.Ops) {
		t.Fatalf("round trip lost ops: %d vs %d", len(h2.Ops), len(h.Ops))
	}
	for i := range h.Ops {
		a, b := h.Ops[i], h2.Ops[i]
		if a.Kind != b.Kind || a.Value != b.Value || a.Start != b.Start ||
			a.Finish != b.Finish || a.Client != b.Client || a.EffectiveWeight() != b.EffectiveWeight() {
			t.Errorf("op %d mismatch after round trip: %+v vs %+v", i, a, b)
		}
	}
}

func TestParseSemicolons(t *testing.T) {
	h, err := Parse("w 1 0 10; r 1 5 20 ; w 2 15 25")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		text string
	}{
		{"bad kind", "x 1 0 10"},
		{"too few fields", "w 1 0"},
		{"bad value", "w abc 0 10"},
		{"bad start", "w 1 abc 10"},
		{"bad finish", "w 1 0 abc"},
		{"bad attribute", "w 1 0 10 bogus"},
		{"unknown attribute", "w 1 0 10 color=2"},
		{"bad attribute value", "w 1 0 10 weight=x"},
		{"nonpositive weight", "w 1 0 10 weight=0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.text); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tt.text)
			}
		})
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on malformed input did not panic")
		}
	}()
	MustParse("not an op")
}

func TestSortByStart(t *testing.T) {
	h := MustParse("w 2 30 40; w 1 0 10; r 1 5 20")
	h.SortByStart()
	wantStarts := []int64{0, 5, 30}
	for i, want := range wantStarts {
		if h.Ops[i].Start != want {
			t.Errorf("op %d start = %d, want %d", i, h.Ops[i].Start, want)
		}
		if h.Ops[i].ID != i {
			t.Errorf("op %d ID = %d, want %d", i, h.Ops[i].ID, i)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	h := MustParse("w 1 0 10")
	c := h.Clone()
	c.Ops[0].Value = 99
	if h.Ops[0].Value == 99 {
		t.Error("Clone shares backing array with original")
	}
}

func TestFindAnomalies(t *testing.T) {
	tests := []struct {
		name string
		text string
		want AnomalyKind
	}{
		{"duplicate value", "w 1 0 10; w 1 20 30", AnomalyDuplicateValue},
		{"inverted interval", "w 1 10 10", AnomalyInvertedInterval},
		{"duplicate timestamp", "w 1 0 10; r 1 10 20", AnomalyDuplicateTimestamp},
		{"dangling read", "w 1 0 10; r 2 20 30", AnomalyDanglingRead},
		{"read before write", "r 1 0 5; w 1 10 20", AnomalyReadBeforeWrite},
		{"long write", "w 1 0 50; r 1 5 30", AnomalyLongWrite},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := MustParse(tt.text)
			got := FindAnomalies(h)
			found := false
			for _, a := range got {
				if a.Kind == tt.want {
					found = true
				}
			}
			if !found {
				t.Errorf("FindAnomalies = %v, want to include %v", got, tt.want)
			}
		})
	}
}

func TestFindAnomaliesCleanHistory(t *testing.T) {
	h := MustParse("w 1 0 10; r 1 5 20; w 2 25 30; r 2 35 45")
	if got := FindAnomalies(h); len(got) != 0 {
		t.Errorf("clean history reported anomalies: %v", got)
	}
}

func TestAnomalyStrings(t *testing.T) {
	kinds := []AnomalyKind{
		AnomalyDuplicateValue, AnomalyInvertedInterval, AnomalyDuplicateTimestamp,
		AnomalyDanglingRead, AnomalyReadBeforeWrite, AnomalyLongWrite,
	}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate anomaly name %q", s)
		}
		seen[s] = true
	}
	if got := AnomalyKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind String() = %q", got)
	}
	a := Anomaly{Kind: AnomalyDanglingRead, OpIDs: []int{3}}
	if s := a.String(); !strings.Contains(s, "dangling-read") || !strings.Contains(s, "3") {
		t.Errorf("Anomaly.String() = %q", s)
	}
}

func TestPrepareHappyPath(t *testing.T) {
	h := MustParse("w 1 0 10; r 1 5 20; w 2 25 30; r 2 35 45; r 2 37 47")
	p, err := Prepare(h)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if p.Len() != 5 {
		t.Fatalf("Len = %d, want 5", p.Len())
	}
	w1, _ := p.WriteFor(1)
	w2, _ := p.WriteFor(2)
	if !p.Op(w1).IsWrite() || p.Op(w1).Value != 1 {
		t.Errorf("WriteFor(1) wrong: %+v", p.Op(w1))
	}
	if len(p.DictatedReads[w1]) != 1 {
		t.Errorf("write 1 dictated reads = %v, want one", p.DictatedReads[w1])
	}
	if len(p.DictatedReads[w2]) != 2 {
		t.Errorf("write 2 dictated reads = %v, want two", p.DictatedReads[w2])
	}
	for _, r := range p.DictatedReads[w2] {
		if p.DictatingWrite[r] != w2 {
			t.Errorf("read %d dictating write = %d, want %d", r, p.DictatingWrite[r], w2)
		}
	}
	cl := p.Cluster(w2)
	if len(cl) != 3 || cl[0] != w2 {
		t.Errorf("Cluster(w2) = %v", cl)
	}
}

func TestPrepareErrors(t *testing.T) {
	tests := []struct {
		name string
		text string
		want error
	}{
		{"duplicate value", "w 1 0 10; w 1 20 30", ErrDuplicateValue},
		{"inverted", "w 1 10 10", ErrInvertedInterval},
		{"dup timestamp", "w 1 0 10; w 2 10 20", ErrDuplicateTimestamp},
		{"dangling read", "r 9 0 10", ErrDanglingRead},
		{"read before write", "r 1 0 5; w 1 10 20", ErrReadBeforeWrite},
		{"long write", "w 1 0 50; r 1 5 30", ErrLongWrite},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Prepare(MustParse(tt.text))
			if !errors.Is(err, tt.want) {
				t.Errorf("Prepare error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestPrepareDoesNotMutateInput(t *testing.T) {
	h := MustParse("w 2 30 40; w 1 0 10")
	if _, err := Prepare(h); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if h.Ops[0].Value != 2 {
		t.Error("Prepare mutated the input history order")
	}
}

func TestNormalizeRepairsDuplicates(t *testing.T) {
	// Duplicate timestamps and a long write, both repairable.
	h := MustParse("w 1 0 10; r 1 10 20; w 2 10 30; r 2 25 28")
	n := Normalize(h)
	if _, err := Prepare(n); err != nil {
		t.Fatalf("Prepare after Normalize: %v", err)
	}
}

func TestNormalizePreservesOrder(t *testing.T) {
	h := MustParse("w 1 0 10; r 1 20 30; w 2 40 50; r 2 60 70")
	n := Normalize(h)
	// Precedence relations must be identical.
	for i := range h.Ops {
		for j := range h.Ops {
			origPrec := h.Ops[i].Precedes(h.Ops[j])
			newPrec := n.Ops[i].Precedes(n.Ops[j])
			if origPrec != newPrec {
				t.Errorf("precedence (%d,%d) changed: %v -> %v", i, j, origPrec, newPrec)
			}
		}
	}
}

func TestNormalizeTouchingStaysConcurrent(t *testing.T) {
	// op1.Finish == op2.Start: strictly concurrent before, must remain so.
	h := MustParse("w 1 0 10; w 2 10 20")
	n := Normalize(h)
	if n.Ops[0].Precedes(n.Ops[1]) || n.Ops[1].Precedes(n.Ops[0]) {
		t.Errorf("touching ops became ordered after Normalize: %v", n)
	}
	if _, err := Prepare(n); err != nil {
		t.Fatalf("Prepare after Normalize: %v", err)
	}
}

func TestNormalizeShortensWrites(t *testing.T) {
	h := MustParse("w 1 0 100; r 1 5 30; r 1 10 60")
	n := Normalize(h)
	p, err := Prepare(n)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	w, _ := p.WriteFor(1)
	for _, r := range p.DictatedReads[w] {
		if p.Op(w).Finish >= p.Op(r).Finish {
			t.Errorf("write finish %d not before read finish %d", p.Op(w).Finish, p.Op(r).Finish)
		}
	}
}

func TestNormalizeDoesNotMutateInput(t *testing.T) {
	h := MustParse("w 1 0 10; w 2 10 20")
	orig := h.String()
	_ = Normalize(h)
	if h.String() != orig {
		t.Error("Normalize mutated its input")
	}
}

func TestNormalizeIdempotentOnPrecedence(t *testing.T) {
	h := MustParse("w 1 0 10; r 1 5 20; w 2 15 25; r 2 30 40")
	n1 := Normalize(h)
	n2 := Normalize(n1)
	for i := range n1.Ops {
		for j := range n1.Ops {
			if n1.Ops[i].Precedes(n1.Ops[j]) != n2.Ops[i].Precedes(n2.Ops[j]) {
				t.Fatalf("precedence changed between normalizations at (%d,%d)", i, j)
			}
		}
	}
}

func TestMeasure(t *testing.T) {
	tests := []struct {
		name         string
		text         string
		wantWrites   int
		wantReads    int
		wantMaxConcW int
		wantMaxConc  int
	}{
		{
			name: "empty", text: "",
			wantWrites: 0, wantReads: 0, wantMaxConcW: 0, wantMaxConc: 0,
		},
		{
			name: "sequential", text: "w 1 0 10; r 1 20 30; w 2 40 50",
			wantWrites: 2, wantReads: 1, wantMaxConcW: 1, wantMaxConc: 1,
		},
		{
			name: "three concurrent writes", text: "w 1 0 100; w 2 5 90; w 3 10 80",
			wantWrites: 3, wantReads: 0, wantMaxConcW: 3, wantMaxConc: 3,
		},
		{
			name: "reads overlap writes", text: "w 1 0 50; r 1 10 60; r 1 20 70",
			wantWrites: 1, wantReads: 2, wantMaxConcW: 1, wantMaxConc: 3,
		},
		{
			name: "touching writes do not overlap", text: "w 1 0 10; w 2 10 20",
			wantWrites: 2, wantReads: 0, wantMaxConcW: 1, wantMaxConc: 1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			st := Measure(MustParse(tt.text))
			if st.Writes != tt.wantWrites || st.Reads != tt.wantReads {
				t.Errorf("Writes=%d Reads=%d, want %d/%d", st.Writes, st.Reads, tt.wantWrites, tt.wantReads)
			}
			if st.MaxConcurrentWrites != tt.wantMaxConcW {
				t.Errorf("MaxConcurrentWrites = %d, want %d", st.MaxConcurrentWrites, tt.wantMaxConcW)
			}
			if st.MaxConcurrentOps != tt.wantMaxConc {
				t.Errorf("MaxConcurrentOps = %d, want %d", st.MaxConcurrentOps, tt.wantMaxConc)
			}
		})
	}
}

func TestJSONRoundTrip(t *testing.T) {
	h := MustParse("w 1 0 10 weight=4; r 1 5 20 client=2; w 2 15 25")
	var buf strings.Builder
	if err := WriteJSON(&buf, h); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	h2, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if len(h2.Ops) != len(h.Ops) {
		t.Fatalf("ops count mismatch: %d vs %d", len(h2.Ops), len(h.Ops))
	}
	for i := range h.Ops {
		a, b := h.Ops[i], h2.Ops[i]
		if a.Kind != b.Kind || a.Value != b.Value || a.Start != b.Start ||
			a.Finish != b.Finish || a.Client != b.Client || a.Weight != b.Weight {
			t.Errorf("op %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestJSONUnknownKind(t *testing.T) {
	_, err := ReadJSON(strings.NewReader(`{"ops":[{"kind":"z","value":1,"start":0,"finish":1}]}`))
	if err == nil {
		t.Error("ReadJSON accepted unknown kind")
	}
}

func TestTextCodecRoundTrip(t *testing.T) {
	h := MustParse("w 1 0 10; r 1 5 20; w 2 15 25 weight=2")
	var buf strings.Builder
	if err := WriteText(&buf, h); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	h2, err := ParseReader(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ParseReader: %v", err)
	}
	if len(h2.Ops) != len(h.Ops) {
		t.Fatalf("ops count mismatch: %d vs %d", len(h2.Ops), len(h.Ops))
	}
}

// TestReadTextStreams pins ParseReader to the streaming reader: it must
// accept an arbitrarily fragmented reader (no whole-input materialization
// step to paper over short reads), handle ';' separators and comments like
// Parse, and surface reader errors.
func TestReadTextStreams(t *testing.T) {
	text := "w 1 0 10; r 1 5 20\n# comment\nw 2 15 25 weight=2\n"
	want := MustParse(text)
	got, err := ParseReader(iotest.OneByteReader(strings.NewReader(text)))
	if err != nil {
		t.Fatalf("ParseReader: %v", err)
	}
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("ops count mismatch: %d vs %d", len(got.Ops), len(want.Ops))
	}
	if _, err := ParseReader(iotest.TimeoutReader(strings.NewReader(text))); err == nil {
		t.Error("ParseReader swallowed a reader error")
	}
}

func TestOperationString(t *testing.T) {
	op := Operation{Kind: KindWrite, Value: 5, Start: 1, Finish: 2, Weight: 3, Client: 4}
	s := op.String()
	for _, want := range []string{"w 5 1 2", "weight=3", "client=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

package history

import (
	"testing"
)

func mustPrepareT(t *testing.T, text string) *Prepared {
	t.Helper()
	h := MustParse(text)
	p, err := Build(h)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return p
}

func TestSubPreparedView(t *testing.T) {
	// Two quiescent, value-closed halves: cut at index 4.
	p := mustPrepareT(t, "w 1 0 10; r 1 12 14; w 2 16 20; r 2 22 24; w 3 100 110; r 3 112 114; w 4 116 120; r 4 122 124")
	sub, err := SubPrepared(p, 4, 8, nil)
	if err != nil {
		t.Fatalf("SubPrepared: %v", err)
	}
	if sub.Len() != 4 {
		t.Fatalf("sub len = %d, want 4", sub.Len())
	}
	// Ops alias the parent slice.
	if &sub.H.Ops[0] != &p.H.Ops[4] {
		t.Fatal("sub view copied operations")
	}
	// Index structures are shifted into local coordinates.
	for i := 0; i < sub.Len(); i++ {
		w := sub.DictatingWrite[i]
		pw := p.DictatingWrite[4+i]
		if pw < 0 {
			if w != -1 {
				t.Fatalf("op %d: dictating %d, want -1", i, w)
			}
			continue
		}
		if w != pw-4 {
			t.Fatalf("op %d: dictating %d, want %d", i, w, pw-4)
		}
		if !sub.Op(w).IsWrite() || sub.Op(w).Value != sub.Op(i).Value {
			t.Fatalf("op %d: dictating write mismatch", i)
		}
	}
	for w := 0; w < sub.Len(); w++ {
		for _, r := range sub.DictatedReads[w] {
			if sub.DictatingWrite[r] != w {
				t.Fatalf("write %d lists read %d which dictates to %d", w, r, sub.DictatingWrite[r])
			}
		}
	}
	// WriteFor resolves values local to the view and misses foreign ones.
	if w, ok := sub.WriteFor(sub.Op(0).Value); !ok || w != 0 {
		t.Fatalf("WriteFor(local) = %d,%v", w, ok)
	}
	if _, ok := sub.WriteFor(p.Op(0).Value); ok {
		t.Fatal("WriteFor resolved a value outside the view")
	}
}

func TestSubPreparedRejectsUnsafeCut(t *testing.T) {
	// The read at the end returns the first write: any interior cut between
	// them severs the pair.
	p := mustPrepareT(t, "w 1 0 10; w 2 20 30; r 1 40 50")
	if _, err := SubPrepared(p, 2, 3, nil); err == nil {
		t.Fatal("SubPrepared accepted a cut severing a read from its write")
	}
	// Write-side crossing: the range holds the write but not its read.
	if _, err := SubPrepared(p, 0, 1, nil); err == nil {
		t.Fatal("SubPrepared accepted a range holding a write whose dictated read lies beyond it")
	}
	if _, err := SubPrepared(p, -1, 2, nil); err == nil {
		t.Fatal("SubPrepared accepted out-of-bounds lo")
	}
	if _, err := SubPrepared(p, 0, 99, nil); err == nil {
		t.Fatal("SubPrepared accepted out-of-bounds hi")
	}
}

func TestSubPreparedWholeAndEmpty(t *testing.T) {
	p := mustPrepareT(t, "w 1 0 10; r 1 12 14")
	whole, err := SubPrepared(p, 0, p.Len(), nil)
	if err != nil {
		t.Fatalf("whole view: %v", err)
	}
	if whole.Len() != p.Len() {
		t.Fatalf("whole view len = %d", whole.Len())
	}
	empty, err := SubPrepared(p, 1, 1, nil)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty view: %v len=%d", err, empty.Len())
	}
}

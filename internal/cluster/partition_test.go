package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"

	"kat/internal/trace"
)

// TestSlotMatchesStdlibFNV pins the partition hash to hash/fnv's FNV-1a:
// kavgen -replay and the online server's tests both partition keys with
// fnv.New32a, and pre-routed clients must agree with the router exactly.
func TestSlotMatchesStdlibFNV(t *testing.T) {
	p, err := NewPartition(3, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "a", "k0", "k17", "register-12345", "\x00\xff"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		want := int(h.Sum32() % 256)
		if got := p.SlotString(key); got != want {
			t.Fatalf("SlotString(%q) = %d, want %d", key, got, want)
		}
		// The byte view ingest shards hash must route like the string view.
		if got := int(trace.KeyHash([]byte(key)) % 256); got != want {
			t.Fatalf("KeyHash([]byte(%q)) %% 256 = %d, want %d", key, got, want)
		}
	}
}

// TestOwnerOfSlotMatchesRanges checks, exhaustively over several cluster
// sizes, that the arithmetic slot→node inversion agrees with the declared
// contiguous ranges and that the ranges tile the slot space.
func TestOwnerOfSlotMatchesRanges(t *testing.T) {
	for nodes := 1; nodes <= 9; nodes++ {
		p, err := NewPartition(nodes, 256)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for n := 0; n < nodes; n++ {
			r := p.Range(n)
			if r.Lo != next {
				t.Fatalf("%d nodes: node %d range %v not contiguous (want lo %d)", nodes, n, r, next)
			}
			if r.Hi <= r.Lo {
				t.Fatalf("%d nodes: node %d has empty range %v", nodes, n, r)
			}
			for s := r.Lo; s < r.Hi; s++ {
				if got := p.OwnerOfSlot(s); got != n {
					t.Fatalf("%d nodes: OwnerOfSlot(%d) = %d, want %d", nodes, s, got, n)
				}
			}
			next = r.Hi
		}
		if next != 256 {
			t.Fatalf("%d nodes: ranges cover [0,%d), want [0,256)", nodes, next)
		}
	}
}

// TestOwnerBalance: equal contiguous ranges keep nodes within one slot of
// each other.
func TestOwnerBalance(t *testing.T) {
	p, err := NewPartition(3, 256)
	if err != nil {
		t.Fatal(err)
	}
	min, max := 256, 0
	for n := 0; n < 3; n++ {
		r := p.Range(n)
		if w := r.Hi - r.Lo; w < min {
			min = w
		} else if w > max {
			max = w
		}
	}
	if max-min > 1 {
		t.Fatalf("slot ranges unbalanced: min %d, max %d", min, max)
	}
}

func TestNewPartitionErrors(t *testing.T) {
	if _, err := NewPartition(0, 256); err == nil {
		t.Fatal("0 nodes accepted")
	}
	if _, err := NewPartition(10, 4); err == nil {
		t.Fatal("more nodes than slots accepted")
	}
	p, err := NewPartition(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Slots() != DefaultSlots {
		t.Fatalf("default slots = %d, want %d", p.Slots(), DefaultSlots)
	}
}

func TestSlotRangeString(t *testing.T) {
	if got := (SlotRange{Lo: 85, Hi: 170}).String(); got != "slots [85,170)" {
		t.Fatalf("SlotRange.String() = %q", got)
	}
}

// TestOwnerDeterministic: many keys route stably and land on every node of
// a small cluster (catching a degenerate hash or an off-by-one that
// funnels everything to one node).
func TestOwnerDeterministic(t *testing.T) {
	p, err := NewPartition(3, 256)
	if err != nil {
		t.Fatal(err)
	}
	hit := map[int]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("k%d", i)
		n := p.OwnerString(key)
		if again := p.OwnerString(key); again != n {
			t.Fatalf("OwnerString(%q) unstable: %d then %d", key, n, again)
		}
		if n < 0 || n >= 3 {
			t.Fatalf("OwnerString(%q) = %d out of range", key, n)
		}
		hit[n]++
	}
	for n := 0; n < 3; n++ {
		if hit[n] == 0 {
			t.Fatalf("node %d received no keys out of 300: %v", n, hit)
		}
	}
}

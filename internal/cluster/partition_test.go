package cluster

import (
	"fmt"
	"strings"
	"testing"

	"kat/internal/trace"
)

// TestSlotMatchesStdlibFNV pins the partition hash to FNV-1a 32-bit (the
// values hash/fnv's New32a gives): kavgen -replay pre-routes with the same
// map, and pre-routed clients must agree with the router exactly.
func TestSlotMatchesStdlibFNV(t *testing.T) {
	p, err := NewPartition(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key string
		sum uint32
	}{
		{"", 0x811c9dc5}, {"a", 0xe40c292c}, {"foobar", 0xbf9cf968}, {"k0", 0x973d7f2e},
		{"k17", 0x9ed20342}, {"register-12345", 0x87972916}, {"\x00\xff", 0xd277c7a0},
	} {
		want := int(tc.sum % 256)
		if got := p.slot(tc.key); got != want {
			t.Fatalf("slot(%q) = %d, want %d", tc.key, got, want)
		}
		// The byte view ingest shards hash must route like the string view.
		if got := int(trace.KeyHash([]byte(tc.key)) % 256); got != want {
			t.Fatalf("KeyHash([]byte(%q)) %% 256 = %d, want %d", tc.key, got, want)
		}
	}
}

// TestOwnerOfSlotMatchesRanges checks, exhaustively over several cluster
// sizes, that the arithmetic slot→node inversion agrees with the declared
// contiguous ranges and that the ranges tile the slot space: 256 slots up to
// 256 members, one slot each beyond.
func TestOwnerOfSlotMatchesRanges(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 300} {
		p, err := NewPartition(nodes)
		if err != nil {
			t.Fatal(err)
		}
		slots := max(256, nodes)
		if p.Slots() != slots {
			t.Fatalf("%d nodes: %d slots, want %d", nodes, p.Slots(), slots)
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
				if got := p.ownerOfSlot(s); got != n {
					t.Fatalf("%d nodes: ownerOfSlot(%d) = %d, want %d", nodes, s, got, n)
				}
			}
			next = r.Hi
		}
		if next != slots {
			t.Fatalf("%d nodes: ranges cover [0,%d), want [0,%d)", nodes, next, slots)
		}
	}
}

// TestOwnerBalance: equal contiguous ranges keep nodes within one slot of
// each other.
func TestOwnerBalance(t *testing.T) {
	p, err := NewPartition(3)
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
	if _, err := NewPartition(0); err == nil {
		t.Fatal("0 nodes accepted")
	}
	p, err := NewPartition(2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Slots() != 256 {
		t.Fatalf("default slots = %d, want 256", p.Slots())
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
	p, err := NewPartition(3)
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

// TestRouterAndReplaySplitAgree holds the router's owner of every key of a
// generated trace to kavgen -replay's node-list split (NewPartition over the
// node list, then Split) for 1–8 members and for 300, past the 256 slots a
// small cluster has. A key the two placed differently would have its
// history verified in two partial halves.
func TestRouterAndReplaySplitAgree(t *testing.T) {
	_, text := buildClusterTrace(t, 1000, 4, 0)
	ops, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 3, 4, 5, 6, 7, 8, 300} {
		urls := make([]string, nodes)
		for i := range urls {
			urls[i] = fmt.Sprintf("http://node-%d.invalid", i)
		}
		rt, err := NewRouter(Config{Nodes: urls})
		if err != nil {
			t.Fatalf("%d members: %v", nodes, err)
		}
		part, err := NewPartition(len(urls))
		if err != nil {
			t.Fatal(err)
		}
		seen, used := 0, 0
		for n, group := range part.Split(ops) {
			for _, op := range group {
				if owner := rt.Partition().OwnerString(op.Key); owner != n {
					t.Fatalf("%d members: key %s split to node %d, router owner is %d", nodes, op.Key, n, owner)
				}
			}
			seen += len(group)
			if len(group) > 0 {
				used++
			}
		}
		if seen != len(ops) {
			t.Fatalf("%d members: split holds %d ops, want %d", nodes, seen, len(ops))
		}
		if min(nodes, 8) > used {
			t.Fatalf("%d members: only %d received keys", nodes, used)
		}
		rt.Close()
	}
}

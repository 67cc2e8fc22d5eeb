// Package cluster implements kavserve's fault-tolerant cluster mode: a
// consistent-hash partition of the keyspace over N member nodes, a per-node
// circuit breaker, and a thin router that splits ingest batches by key
// owner, forwards them with retry/backoff, and merges verdicts.
//
// The paper's decomposition is per-key — a key's k-atomicity verdict
// depends only on that key's operations — so the keyspace partitions
// exactly: route every operation for a key to one node and the cluster's
// per-key verdicts are identical to a single node's on the merged trace.
// The router enforces exactly that invariant; everything else here is the
// machinery for keeping it true under node failures and flaky links.
package cluster

import (
	"fmt"

	"kat/internal/trace"
)

// DefaultSlots is the default partition granularity. 256 slots over a
// handful of nodes keeps slices coarse enough to name in degradation
// reports yet fine enough that nodes stay within ~1 slot of even.
const DefaultSlots = 256

// Partition maps keys to nodes via FNV-1a hashing into a fixed slot space,
// with contiguous slot ranges assigned per node. It is immutable after
// construction and safe for concurrent use. The same key hash drives
// kavgen -replay's node-aware pre-routing, so a client that bypasses the
// router lands every operation on the same member the router would pick.
type Partition struct {
	slots int
	nodes int
	// bounds[i] is the first slot owned by node i; node i owns
	// [bounds[i], bounds[i+1]). bounds[nodes] == slots.
	bounds []int
}

// NewPartition builds a partition of `slots` slots over `nodes` nodes.
// Slots <= 0 selects DefaultSlots. Nodes must be >= 1 and <= slots.
func NewPartition(nodes, slots int) (*Partition, error) {
	if slots <= 0 {
		slots = DefaultSlots
	}
	if nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, have %d", nodes)
	}
	if nodes > slots {
		return nil, fmt.Errorf("cluster: %d nodes exceed %d slots", nodes, slots)
	}
	p := &Partition{slots: slots, nodes: nodes, bounds: make([]int, nodes+1)}
	for i := 0; i <= nodes; i++ {
		p.bounds[i] = i * slots / nodes
	}
	return p, nil
}

// Slots reports the slot-space size.
func (p *Partition) Slots() int { return p.slots }

// Nodes reports the node count.
func (p *Partition) Nodes() int { return p.nodes }

// SlotString hashes a key into its slot with trace.KeyHash — FNV-1a 32-bit,
// the function the replay driver and the online server's
// client-partitioning tests use too.
func (p *Partition) SlotString(key string) int {
	// Reduce in uint32 space: int(h) would go negative on 32-bit platforms.
	return int(trace.KeyHash(key) % uint32(p.slots))
}

// OwnerString reports the node owning the key.
func (p *Partition) OwnerString(key string) int { return p.OwnerOfSlot(p.SlotString(key)) }

// OwnerOfSlot reports the node owning a slot: the largest n with
// bounds[n] <= slot, which the equal contiguous ranges invert
// arithmetically (n*slots/nodes <= slot ⟺ n <= ⌈(slot+1)·nodes/slots⌉-1).
func (p *Partition) OwnerOfSlot(slot int) int {
	n := ((slot+1)*p.nodes+p.slots-1)/p.slots - 1
	if n < 0 {
		n = 0
	}
	if n >= p.nodes {
		n = p.nodes - 1
	}
	return n
}

// Range reports node n's contiguous slot range [Lo, Hi).
func (p *Partition) Range(n int) SlotRange {
	return SlotRange{Lo: p.bounds[n], Hi: p.bounds[n+1]}
}

// SlotRange is a half-open slot interval — the unit in which unreachable
// keyspace is named in degraded verdicts.
type SlotRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

func (r SlotRange) String() string { return fmt.Sprintf("slots [%d,%d)", r.Lo, r.Hi) }

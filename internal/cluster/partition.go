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
	"kat/internal/wire"
)

// minSlots is the partition granularity up to 256 members. 256 slots over a
// handful of nodes keeps slices coarse enough to name in degradation
// reports yet fine enough that nodes stay within ~1 slot of even.
const minSlots = 256

// Partition maps keys to nodes via FNV-1a hashing into a fixed slot space,
// with contiguous slot ranges assigned per node. The slot count follows the
// member count alone, so everything that routes by key — the router and
// kavgen -replay's node-list pre-routing — builds the same map from the same
// member list and lands every operation of a key on the same member. It is
// immutable after construction and safe for concurrent use.
type Partition struct {
	slots int
	nodes int
	// bounds[i] is the first slot owned by node i; node i owns
	// [bounds[i], bounds[i+1]). bounds[nodes] == slots.
	bounds []int
}

// NewPartition builds the partition over `nodes` nodes: max(256, nodes)
// slots, so past 256 members each owns one slot. Nodes must be >= 1.
func NewPartition(nodes int) (*Partition, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, have %d", nodes)
	}
	slots := max(minSlots, nodes)
	p := &Partition{slots: slots, nodes: nodes, bounds: make([]int, nodes+1)}
	for i := 0; i <= nodes; i++ {
		p.bounds[i] = i * slots / nodes
	}
	return p, nil
}

// Slots reports the slot-space size.
func (p *Partition) Slots() int { return p.slots }

// OwnerString reports the node owning the key.
func (p *Partition) OwnerString(key string) int { return p.ownerOfSlot(p.slot(key)) }

// Split groups ops by owning node, preserving input order inside each
// group: a key maps to exactly one node, so per-key operation order survives
// the split exactly. The router splits each ingest batch with it, kavgen
// -replay a node list's whole trace.
func (p *Partition) Split(ops []wire.Op) [][]wire.Op {
	groups := make([][]wire.Op, p.nodes)
	for _, op := range ops {
		n := p.OwnerString(op.Key)
		groups[n] = append(groups[n], op)
	}
	return groups
}

// slot hashes a key into its slot with trace.KeyHash, the service's one
// FNV-1a.
func (p *Partition) slot(key string) int {
	// Reduce in uint32 space: int(h) would go negative on 32-bit platforms.
	return int(trace.KeyHash(key) % uint32(p.slots))
}

// ownerOfSlot reports the node owning a slot in [0, slots): the largest n
// with bounds[n] <= slot, which the equal contiguous ranges invert
// arithmetically (n*slots/nodes <= slot ⟺ n <= ⌈(slot+1)·nodes/slots⌉-1).
func (p *Partition) ownerOfSlot(slot int) int {
	return ((slot+1)*p.nodes+p.slots-1)/p.slots - 1
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

// Package quorum is a deterministic discrete-event simulator of a replicated
// read/write register with quorum replication in the style of Dynamo — the
// class of systems whose consistency k-atomicity was designed to describe
// (Section I of the paper). It generates operation histories (with real
// simulated-time intervals) that the verification algorithms then analyze,
// standing in for the production traces the paper's motivation refers to.
//
// The model: N replicas hold (version, value) pairs with last-writer-wins
// versions; a coordinator broadcasts each client operation to all replicas
// and completes a write after W acknowledgements and a read after R replies
// (first responders — quorums are not fixed sets, as with sloppy quorums).
// When R+W <= N a read quorum may miss the latest write entirely, which is
// exactly the staleness k-atomicity bounds. Failure injection (replica
// crashes, message delay spread, per-client clock skew feeding the versions)
// widens the anomaly spectrum.
//
// Simplifications relative to a production system, none of which affect the
// code paths under test: a single key (k-atomicity is a local property), no
// hinted handoff to non-home replicas, and crash-stop failures without
// recovery. Read repair is modeled (Config.ReadRepair).
package quorum

import (
	"container/heap"
	"fmt"
	"math/rand"

	"kat/internal/history"
)

// Config parameterizes a simulation run.
type Config struct {
	// Seed makes the run deterministic.
	Seed int64
	// Replicas is N, the number of replicas (>= 1).
	Replicas int
	// ReadQuorum is R, replies required to complete a read (1..N).
	ReadQuorum int
	// WriteQuorum is W, acks required to complete a write (1..N).
	WriteQuorum int
	// Clients is the number of concurrent closed-loop clients (>= 1).
	Clients int
	// OpsPerClient is how many operations each client issues.
	OpsPerClient int
	// ReadFraction is the probability an operation is a read (default 0.5).
	ReadFraction float64
	// MinDelay and MaxDelay bound one-way message latency (defaults 1, 10).
	MinDelay, MaxDelay int64
	// ThinkTime is the maximum pause between a client's operations
	// (default MaxDelay).
	ThinkTime int64
	// Timeout is the coordinator deadline per operation (default
	// 20*MaxDelay). Timed-out reads are dropped from the history;
	// timed-out writes are kept, because their mutations may survive on
	// some replicas and be read later.
	Timeout int64
	// ClockSkew is the maximum absolute per-client skew applied to the
	// timestamps used in write versions (default 0). Skew makes
	// last-writer-wins resolve against real-time order, deepening
	// staleness.
	ClockSkew int64
	// CrashReplicas crashes this many distinct replicas (crash-stop) at
	// random times in the middle of the run (default 0).
	CrashReplicas int
	// ReadRepair, when set, makes the coordinator push the freshest
	// (version, value) it observed back to every replica after a read
	// completes — the classic Dynamo anti-entropy mechanism. Repair
	// narrows the window in which weak quorums serve stale values.
	ReadRepair bool
}

func (cfg *Config) fill() error {
	if cfg.Replicas < 1 {
		return fmt.Errorf("quorum: need at least 1 replica, got %d", cfg.Replicas)
	}
	if cfg.ReadQuorum < 1 || cfg.ReadQuorum > cfg.Replicas {
		return fmt.Errorf("quorum: read quorum %d out of range [1,%d]", cfg.ReadQuorum, cfg.Replicas)
	}
	if cfg.WriteQuorum < 1 || cfg.WriteQuorum > cfg.Replicas {
		return fmt.Errorf("quorum: write quorum %d out of range [1,%d]", cfg.WriteQuorum, cfg.Replicas)
	}
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.OpsPerClient < 0 {
		cfg.OpsPerClient = 0
	}
	if cfg.ReadFraction <= 0 || cfg.ReadFraction >= 1 {
		cfg.ReadFraction = 0.5
	}
	if cfg.MinDelay <= 0 {
		cfg.MinDelay = 1
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay + 9
	}
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = cfg.MaxDelay
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 20 * cfg.MaxDelay
	}
	if cfg.CrashReplicas < 0 {
		cfg.CrashReplicas = 0
	}
	if cfg.CrashReplicas > cfg.Replicas {
		cfg.CrashReplicas = cfg.Replicas
	}
	return nil
}

// Stats summarizes a run.
type Stats struct {
	// CompletedWrites and CompletedReads made their quorums.
	CompletedWrites, CompletedReads int
	// TimedOutWrites are kept in the history; TimedOutReads are dropped.
	TimedOutWrites, TimedOutReads int
	// Crashes is the number of replicas crashed during the run.
	Crashes int
	// Repairs counts read-repair rounds issued (one per completed read
	// when Config.ReadRepair is on).
	Repairs int
}

// version orders writes replica-side: last-writer-wins by (timestamp,
// client), with the zero version reserved for the seed value.
type version struct {
	ts     int64
	client int
}

func (v version) less(o version) bool {
	if v.ts != o.ts {
		return v.ts < o.ts
	}
	return v.client < o.client
}

// event is a scheduled simulator action.
type event struct {
	at  int64
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type replica struct {
	alive bool
	ver   version
	val   int64
}

// pendingOp tracks a coordinator waiting for its quorum.
type pendingOp struct {
	client    int
	isRead    bool
	value     int64 // value being written (writes)
	start     int64
	need      int
	acks      int
	bestVer   version
	bestVal   int64
	done      bool
	deadline  int64
	remaining int // ops the client still has to issue after this one
}

type sim struct {
	cfg      Config
	rng      *rand.Rand
	now      int64
	seq      int64
	events   eventHeap
	replicas []replica
	skew     []int64
	nextVal  int64
	ops      []history.Operation
	stats    Stats
}

// Run simulates the configured workload and returns the resulting
// normalized history (including a seed write of value 0 that initializes
// all replicas) plus run statistics.
func Run(cfg Config) (*history.History, Stats, error) {
	if err := cfg.fill(); err != nil {
		return nil, Stats{}, err
	}
	s := &sim{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		replicas: make([]replica, cfg.Replicas),
		skew:     make([]int64, cfg.Clients),
		nextVal:  1,
	}
	for i := range s.replicas {
		s.replicas[i] = replica{alive: true, ver: version{ts: 0, client: -1}, val: 0}
	}
	for c := range s.skew {
		if cfg.ClockSkew > 0 {
			s.skew[c] = s.rng.Int63n(2*cfg.ClockSkew+1) - cfg.ClockSkew
		}
	}
	// Seed write: value 0 present on all replicas before time 1.
	s.ops = append(s.ops, history.Operation{
		Kind: history.KindWrite, Value: 0, Start: 0, Finish: 1, Client: -1,
	})
	// Crash schedule.
	horizon := int64(cfg.OpsPerClient) * (cfg.ThinkTime + 4*cfg.MaxDelay)
	if horizon < 100 {
		horizon = 100
	}
	for _, r := range s.rng.Perm(cfg.Replicas)[:cfg.CrashReplicas] {
		r := r
		at := horizon/4 + s.rng.Int63n(horizon/2+1)
		s.schedule(at, func() {
			s.replicas[r].alive = false
			s.stats.Crashes++
		})
	}
	// Clients.
	for c := 0; c < cfg.Clients; c++ {
		c := c
		start := 2 + s.rng.Int63n(cfg.ThinkTime+1)
		s.schedule(start, func() { s.clientIssue(c, cfg.OpsPerClient) })
	}
	// Event loop.
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		e.fn()
	}
	return history.NormalizeInPlace(&history.History{Ops: s.ops}), s.stats, nil
}

func (s *sim) schedule(at int64, fn func()) {
	if at <= s.now {
		at = s.now + 1
	}
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})
}

func (s *sim) delay() int64 {
	return s.cfg.MinDelay + s.rng.Int63n(s.cfg.MaxDelay-s.cfg.MinDelay+1)
}

// clientIssue starts the next operation for client c, with remaining ops to
// issue after this one.
func (s *sim) clientIssue(c, remaining int) {
	if remaining <= 0 {
		return
	}
	isRead := s.rng.Float64() < s.cfg.ReadFraction
	op := &pendingOp{
		client:    c,
		isRead:    isRead,
		start:     s.now,
		deadline:  s.now + s.cfg.Timeout,
		bestVer:   version{ts: -1, client: -1},
		remaining: remaining - 1,
	}
	if isRead {
		op.need = s.cfg.ReadQuorum
	} else {
		op.need = s.cfg.WriteQuorum
		op.value = s.nextVal
		s.nextVal++
	}
	ver := version{ts: s.now + s.skew[c], client: c}
	for r := range s.replicas {
		r := r
		s.schedule(s.now+s.delay(), func() { s.replicaHandle(r, op, ver) })
	}
	s.schedule(op.deadline, func() { s.timeout(op) })
}

// replicaHandle processes a request arrival at replica r.
func (s *sim) replicaHandle(r int, op *pendingOp, ver version) {
	if !s.replicas[r].alive {
		return // crashed replicas drop requests silently
	}
	if op.isRead {
		rv, rval := s.replicas[r].ver, s.replicas[r].val
		s.schedule(s.now+s.delay(), func() { s.coordinatorReply(op, rv, rval) })
		return
	}
	if s.replicas[r].ver.less(ver) {
		s.replicas[r].ver = ver
		s.replicas[r].val = op.value
	}
	s.schedule(s.now+s.delay(), func() { s.coordinatorReply(op, ver, op.value) })
}

// coordinatorReply processes one replica response at the coordinator.
func (s *sim) coordinatorReply(op *pendingOp, ver version, val int64) {
	if op.done {
		return
	}
	op.acks++
	if op.isRead && op.bestVer.less(ver) {
		op.bestVer = ver
		op.bestVal = val
	}
	if op.acks < op.need {
		return
	}
	op.done = true
	if op.isRead {
		s.stats.CompletedReads++
		s.ops = append(s.ops, history.Operation{
			Kind: history.KindRead, Value: op.bestVal,
			Start: op.start, Finish: s.now, Client: op.client,
		})
		if s.cfg.ReadRepair {
			ver, val := op.bestVer, op.bestVal
			for r := range s.replicas {
				r := r
				s.schedule(s.now+s.delay(), func() { s.applyRepair(r, ver, val) })
			}
			s.stats.Repairs++
		}
	} else {
		s.stats.CompletedWrites++
		s.ops = append(s.ops, history.Operation{
			Kind: history.KindWrite, Value: op.value,
			Start: op.start, Finish: s.now, Client: op.client,
		})
	}
	s.scheduleNext(op)
}

// applyRepair installs a read-repair value at replica r if it is newer than
// what the replica holds.
func (s *sim) applyRepair(r int, ver version, val int64) {
	if !s.replicas[r].alive {
		return
	}
	if s.replicas[r].ver.less(ver) {
		s.replicas[r].ver = ver
		s.replicas[r].val = val
	}
}

// timeout fires at the operation deadline; if the op has not completed it is
// abandoned — reads dropped, writes recorded because their effects may
// persist on some replicas — and the client moves on.
func (s *sim) timeout(op *pendingOp) {
	if op.done {
		return // completed earlier; next op already scheduled
	}
	op.done = true
	if op.isRead {
		s.stats.TimedOutReads++
	} else {
		s.stats.TimedOutWrites++
		s.ops = append(s.ops, history.Operation{
			Kind: history.KindWrite, Value: op.value,
			Start: op.start, Finish: s.now, Client: op.client,
		})
	}
	s.scheduleNext(op)
}

func (s *sim) scheduleNext(op *pendingOp) {
	think := int64(1)
	if s.cfg.ThinkTime > 0 {
		think += s.rng.Int63n(s.cfg.ThinkTime)
	}
	c, rem := op.client, op.remaining
	s.schedule(s.now+think, func() { s.clientIssue(c, rem) })
}

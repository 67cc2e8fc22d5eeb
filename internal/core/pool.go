package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fork-join work-stealing scheduler for verification work units.
// It runs a fixed set of workers, each owning a private deque and being one
// reusable Verifier, which it hands every unit it runs (so every unit executes
// against warm scratch arenas; anything a unit returns that aliases them is
// valid only until the worker picks up its next unit). Units enter either
// from outside via Submit (the streaming engine injects segment jobs this
// way) or from inside a running unit via Verifier.Fork (a key unit forking
// its chunk units). Local execution is LIFO while idle workers steal the
// oldest unit from a victim's deque, so a skewed workload — one hot key
// fanning out many chunk units — spreads over every worker instead of
// serializing behind key boundaries.
//
// Determinism: the pool guarantees nothing about execution order, so callers
// must write results into disjoint per-unit slots or combine them with
// commutative operations (min failing index, max smallest-k). Every
// verification entry point built on the pool does exactly that, which is why
// their reports are identical for any worker count.
type Pool struct {
	nw     int
	deques []deque
	vs     []Verifier // the workers' engines, by worker id
	global []task     // external injection queue (FIFO), guarded by mu
	wg     sync.WaitGroup

	mu          sync.Mutex
	workCond    *sync.Cond // parked workers wait here
	idleCond    *sync.Cond // Close waits here
	closed      bool
	globalHead  int   // consumed prefix of global (O(1) FIFO pop)
	outstanding int64 // external tasks submitted and not yet finished
	pending     atomic.Int64
}

// task is one schedulable unit. Units forked by Verifier.Fork carry their
// join group; externally submitted units have a nil group and are tracked by
// the pool's outstanding counter instead.
type task struct {
	g  *group
	fn func(*Verifier)
}

// group is the join counter of one Fork call.
type group struct {
	n    atomic.Int64
	done chan struct{}
}

func (g *group) finish() {
	if g.n.Add(-1) == 0 {
		close(g.done)
	}
}

// deque is a mutex-guarded double-ended queue: the owner pushes and pops at
// the top (LIFO, cache-warm, innermost fork first), thieves take from the
// bottom (FIFO, oldest and typically largest unit). The bottom is a head
// index, not a slice shift, so a steal is O(1) — a 100k-key fork must not
// memmove the remainder under the mutex on every steal. The buffer resets
// when it empties, bounding growth to the peak outstanding units.
type deque struct {
	mu   sync.Mutex
	buf  []task
	head int
}

func (d *deque) push(t task) {
	d.mu.Lock()
	d.buf = append(d.buf, t)
	d.mu.Unlock()
}

func (d *deque) reset() {
	if d.head == len(d.buf) {
		clear(d.buf)
		d.buf = d.buf[:0]
		d.head = 0
	}
}

// popTopIf pops the newest task only when it belongs to group g. A worker
// waiting on a fork may execute exactly its own group's units: anything else
// could re-enter scratch arenas (the worker's Verifier, a decomposition the
// forked units are reading) that the suspended unit still owns.
func (d *deque) popTopIf(g *group) (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.buf); n > d.head && d.buf[n-1].g == g {
		t := d.buf[n-1]
		d.buf[n-1] = task{}
		d.buf = d.buf[:n-1]
		d.reset()
		return t, true
	}
	return task{}, false
}

func (d *deque) popTop() (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.buf); n > d.head {
		t := d.buf[n-1]
		d.buf[n-1] = task{}
		d.buf = d.buf[:n-1]
		d.reset()
		return t, true
	}
	return task{}, false
}

func (d *deque) stealBottom() (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head < len(d.buf) {
		t := d.buf[d.head]
		d.buf[d.head] = task{}
		d.head++
		d.reset()
		return t, true
	}
	return task{}, false
}

// NewPool starts a pool with the given number of workers; workers <= 0 uses
// GOMAXPROCS. Close must be called to release the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{nw: workers, deques: make([]deque, workers), vs: make([]Verifier, workers)}
	for id := range p.vs {
		p.vs[id].pool, p.vs[id].id = p, id
	}
	p.workCond = sync.NewCond(&p.mu)
	p.idleCond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for id := 0; id < workers; id++ {
		go p.workerLoop(id)
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.nw }

// Submit enqueues a unit from outside the pool; it runs on the Verifier of
// whichever worker picks it up. It never blocks; callers needing
// backpressure (the streaming engine) bound their in-flight submissions
// themselves. Submit must not be called after Close.
func (p *Pool) Submit(fn func(*Verifier)) {
	p.mu.Lock()
	p.outstanding++
	p.global = append(p.global, task{fn: fn})
	p.pending.Add(1)
	p.workCond.Signal()
	p.mu.Unlock()
}

// Close waits until every submitted unit (and everything it forked) has
// finished, then stops the workers. The pool cannot be reused afterwards.
func (p *Pool) Close() {
	p.mu.Lock()
	for p.outstanding > 0 {
		p.idleCond.Wait()
	}
	p.closed = true
	p.workCond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Run is the scoped fork-join form: it starts a pool, runs root as a
// submitted unit, waits for everything root forked, and tears the pool down.
func Run(workers int, root func(*Verifier)) {
	p := NewPool(workers)
	p.Submit(root)
	p.Close()
}

func (p *Pool) workerLoop(id int) {
	defer p.wg.Done()
	v := &p.vs[id]
	for {
		if t, ok := p.findWork(id); ok {
			p.runTask(v, t)
			continue
		}
		p.mu.Lock()
		// Re-check under the lock: a push between findWork and here would
		// have signalled before we started waiting.
		if p.pending.Load() > 0 {
			p.mu.Unlock()
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.workCond.Wait()
		p.mu.Unlock()
	}
}

// findWork scans: own deque top, the global queue, then victims' bottoms.
func (p *Pool) findWork(id int) (task, bool) {
	if t, ok := p.deques[id].popTop(); ok {
		p.pending.Add(-1)
		return t, true
	}
	p.mu.Lock()
	if p.globalHead < len(p.global) {
		t := p.global[p.globalHead]
		p.global[p.globalHead] = task{}
		p.globalHead++
		if p.globalHead == len(p.global) {
			p.global = p.global[:0]
			p.globalHead = 0
		}
		p.mu.Unlock()
		p.pending.Add(-1)
		return t, true
	}
	p.mu.Unlock()
	for off := 1; off < p.nw; off++ {
		if t, ok := p.deques[(id+off)%p.nw].stealBottom(); ok {
			p.pending.Add(-1)
			return t, true
		}
	}
	return task{}, false
}

func (p *Pool) runTask(v *Verifier, t task) {
	t.fn(v)
	if t.g != nil {
		t.g.finish()
		return
	}
	p.mu.Lock()
	p.outstanding--
	if p.outstanding == 0 {
		p.idleCond.Broadcast()
	}
	p.mu.Unlock()
}

// Fork runs f(w, i) for every i in [0, n) and returns when all have
// completed; w is the Verifier of the worker that runs unit i. On a
// standalone Verifier (no pool), on a one-worker pool, or for a single unit,
// every unit runs inline on v in index order. Otherwise iteration 0 runs
// inline on v and the rest are pushed to its worker's deque where idle
// workers steal them. While waiting, the caller executes only units of this
// fork (never unrelated stolen work, which could corrupt scratch arenas the
// suspended unit still references), then blocks until thieves finish the
// remainder.
//
// f must write results into disjoint per-i slots or combine commutatively;
// execution order across i is unspecified.
func (v *Verifier) Fork(n int, f func(w *Verifier, i int)) {
	p := v.pool
	if p == nil || n <= 1 || p.nw == 1 {
		for i := 0; i < n; i++ {
			f(v, i)
		}
		return
	}
	g := &group{done: make(chan struct{})}
	g.n.Store(int64(n - 1))
	d := &p.deques[v.id]
	for i := n - 1; i >= 1; i-- {
		i := i
		d.push(task{g: g, fn: func(w *Verifier) { f(w, i) }})
	}
	p.pending.Add(int64(n - 1))
	p.mu.Lock()
	p.workCond.Broadcast()
	p.mu.Unlock()
	f(v, 0)
	for {
		t, ok := d.popTopIf(g)
		if !ok {
			break
		}
		p.pending.Add(-1)
		t.fn(v)
		g.finish()
	}
	<-g.done
}

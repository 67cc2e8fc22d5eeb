package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fork-join scheduler for verification work units: a fixed set of
// workers, each one reusable Verifier, which it hands every unit it runs (so
// every unit executes against warm scratch arenas; anything a unit returns
// that aliases them is valid only until the worker picks up its next unit),
// and one FIFO queue. Units enter either from outside via Submit (the
// streaming engine injects segment jobs this way) or from inside a running
// unit via Verifier.Fork (a key unit forking its chunk units). A fork is one
// index cursor, not one queue entry per unit: the forking worker queues a
// help token for each other worker that could join, and whoever holds the
// fork or a token claims indices off the cursor until none is left. A
// skewed workload — one hot key fanning out many chunk units — thus spreads
// over every worker that comes free, for a queue cost of O(workers) per fork.
//
// Determinism: the pool guarantees nothing about execution order, so callers
// must write results into disjoint per-unit slots or combine them with
// commutative operations (min failing index, max smallest-k). Every
// verification entry point built on the pool does exactly that, which is why
// their reports are identical for any worker count.
type Pool struct {
	vs      []Verifier // the workers' engines
	workers sync.WaitGroup
	units   sync.WaitGroup // submitted units not yet finished

	mu   sync.Mutex
	work sync.Cond // parked workers wait here for the queue
	// queue[head:] is the submitted units and fork help tokens, FIFO. The
	// buffer restarts when it drains, so a queue that keeps emptying never
	// allocates.
	queue  []task
	head   int
	closed bool
}

// task is one queue entry: a submitted unit (fn) or a help token for a fork
// (g).
type task struct {
	fn func(*Verifier)
	g  *group
}

// group is one Fork call: f over the indices [0, n), handed out by a
// two-ended cursor, lo<<32 | hi (n < 2³²). The forker claims from the
// bottom and helpers from the top, so the two sides run units far apart
// (two neighbouring hot units live at once cost memory), and left counts
// the units not yet finished.
type group struct {
	f    func(*Verifier, int)
	cur  atomic.Uint64
	left sync.WaitGroup
}

// run claims units from one end of g's cursor and runs them on w until none
// is left, then counts them off left at once. A token that claims nothing
// never touches left: g's forker may have returned.
func (g *group) run(w *Verifier, top bool) {
	done := 0
	for {
		c := g.cur.Load()
		lo, hi := int(c>>32), int(uint32(c))
		if lo == hi {
			if done > 0 {
				g.left.Add(-done)
			}
			return
		}
		i, next := lo, c+1<<32
		if top {
			i, next = hi-1, c-1
		}
		if g.cur.CompareAndSwap(c, next) {
			g.f(w, i)
			done++
		}
	}
}

// NewPool starts a pool with the given number of workers; workers <= 0 uses
// GOMAXPROCS. Close must be called to release the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{vs: make([]Verifier, workers)}
	p.work.L = &p.mu
	p.workers.Add(workers)
	for i := range p.vs {
		p.vs[i].pool = p
		go p.workerLoop(&p.vs[i])
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return len(p.vs) }

// Submit enqueues a unit from outside the pool; it runs on the Verifier of
// whichever worker picks it up. It never blocks; callers needing
// backpressure bound their own submissions (the streaming engine bounds its
// dispatched, unverified operations). Submit must not be called after Close.
func (p *Pool) Submit(fn func(*Verifier)) {
	p.units.Add(1)
	p.push(task{fn: fn}, 1)
}

// push queues t count times and wakes a parked worker for each.
func (p *Pool) push(t task, count int) {
	p.mu.Lock()
	for range count {
		p.queue = append(p.queue, t)
		p.work.Signal()
	}
	p.mu.Unlock()
}

// Close waits until every submitted unit (and everything it forked) has
// finished, then stops the workers. The pool cannot be reused afterwards.
func (p *Pool) Close() {
	p.units.Wait()
	p.mu.Lock()
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
	p.workers.Wait()
}

// Run is the scoped fork-join form: it starts a pool, runs root as a
// submitted unit, waits for everything root forked, and tears the pool down.
func Run(workers int, root func(*Verifier)) {
	p := NewPool(workers)
	p.Submit(root)
	p.Close()
}

// workerLoop runs queue entries on v until Close. Once every submitted unit
// has finished, every fork has returned, so what is left in the queue then is
// help tokens with nothing to claim.
func (p *Pool) workerLoop(v *Verifier) {
	defer p.workers.Done()
	p.mu.Lock()
	for {
		for p.head == len(p.queue) && !p.closed {
			p.work.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		t := p.queue[p.head]
		p.queue[p.head] = task{}
		if p.head++; p.head == len(p.queue) {
			p.queue, p.head = p.queue[:0], 0
		}
		p.mu.Unlock()
		if t.g != nil {
			t.g.run(v, true)
		} else {
			t.fn(v)
			p.units.Done()
		}
		p.mu.Lock()
	}
}

// Fork runs f(w, i) for every i in [0, n) and returns when all have
// completed; w is the Verifier of the worker that runs unit i. On a
// standalone Verifier (no pool), on a one-worker pool, or for a single unit,
// every unit runs inline on v in index order. Otherwise v queues one help
// token for each of up to min(n, workers) - 1 other workers, claims units
// from the bottom until none is left, and waits for the units helpers are
// still running. A worker that takes a token claims units from the top; a
// token taken after the cursor is used up does nothing. While waiting, v runs
// no unit but its own fork's, so scratch arenas the suspended unit still
// references are never re-entered.
//
// f must write results into disjoint per-i slots or combine commutatively;
// execution order across i is unspecified.
func (v *Verifier) Fork(n int, f func(w *Verifier, i int)) {
	p := v.pool
	if p == nil || n <= 1 || len(p.vs) == 1 {
		for i := 0; i < n; i++ {
			f(v, i)
		}
		return
	}
	g := &group{f: f}
	g.cur.Store(uint64(n))
	g.left.Add(n)
	p.push(task{g: g}, min(n, len(p.vs))-1)
	g.run(v, false)
	g.left.Wait()
	// Tokens still queued keep g, but not what f captured.
	g.f = nil
}

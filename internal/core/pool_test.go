package core

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestForkRunsEveryIndex checks that Fork executes each index exactly once
// for a spread of worker counts and fan-outs, including n much larger and
// much smaller than the worker count, and past 2 048 units, where forks were
// once batched.
func TestForkRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 501, 4097} {
			counts := make([]atomic.Int64, n)
			Run(workers, func(v *Verifier) {
				v.Fork(n, func(v *Verifier, i int) {
					counts[i].Add(1)
				})
			})
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestForkNested drives two levels of forking (keys forking chunks) and
// checks every leaf runs exactly once — the shape the trace and streaming
// engines produce.
func TestForkNested(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		const outer, inner = 13, 17
		counts := make([]atomic.Int64, outer*inner)
		Run(workers, func(v *Verifier) {
			v.Fork(outer, func(v *Verifier, i int) {
				v.Fork(inner, func(v *Verifier, j int) {
					counts[i*inner+j].Add(1)
				})
			})
		})
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: leaf %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestForkJoinBarrier checks Fork does not return before all its units have
// completed, even when thieves run them.
func TestForkJoinBarrier(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var done atomic.Int64
		Run(workers, func(v *Verifier) {
			for round := 0; round < 50; round++ {
				v.Fork(workers*3, func(v *Verifier, i int) {
					done.Add(1)
				})
				if got, want := done.Load(), int64((round+1)*workers*3); got != want {
					t.Errorf("workers=%d round %d: %d units done at join, want %d", workers, round, got, want)
				}
			}
		})
		if t.Failed() {
			return
		}
	}
}

// TestForkHelpedWhenWorkerFreesUp checks that a worker busy when a fork
// starts still helps with it once it comes free: help that only idle workers
// could give at fork time would run a hot key's chunks serially. On two
// workers, one submitted unit blocks until unit 0 of another's fork releases
// it; unit 1 must then start on the other worker's Verifier.
func TestForkHelpedWhenWorkerFreesUp(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func(*Verifier) {
		started <- struct{}{}
		<-release
	})
	<-started
	unit1 := make(chan *Verifier, 1)
	p.Submit(func(v *Verifier) {
		v.Fork(2, func(w *Verifier, i int) {
			if i == 1 {
				unit1 <- w
				return
			}
			close(release)
			select {
			case u := <-unit1:
				if u == w {
					t.Error("unit 1 ran on the forking Verifier")
				}
				unit1 <- u
			case <-time.After(10 * time.Second):
				t.Error("unit 1 did not start within 10 s of the busy worker freeing up")
			}
		})
	})
}

// TestSubmitDrain checks Close waits for externally submitted units and
// everything they fork.
func TestSubmitDrain(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := NewPool(workers)
		var leaves atomic.Int64
		const jobs, fan = 9, 11
		for j := 0; j < jobs; j++ {
			p.Submit(func(v *Verifier) {
				v.Fork(fan, func(v *Verifier, i int) { leaves.Add(1) })
			})
		}
		p.Close()
		if got := leaves.Load(); got != jobs*fan {
			t.Fatalf("workers=%d: %d leaves after Close, want %d", workers, got, jobs*fan)
		}
	}
}

// TestSubmitZeroAlloc checks that a unit submitted to a queue workers keep
// draining costs no allocation: the streaming engine submits one per segment.
func TestSubmitZeroAlloc(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	done := make(chan struct{})
	unit := func(*Verifier) { done <- struct{}{} }
	if a := testing.AllocsPerRun(1000, func() {
		p.Submit(unit)
		<-done
	}); a != 0 {
		t.Fatalf("Submit allocates %v times a unit", a)
	}
}

// TestWorkerVerifiersDistinct checks each unit runs on its worker's own
// Verifier, so scratch arenas are never shared across concurrent units.
func TestWorkerVerifiersDistinct(t *testing.T) {
	const workers = 4
	seen := make(map[*Verifier]int)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	Run(workers, func(v *Verifier) {
		v.Fork(64, func(v *Verifier, i int) {
			<-mu
			seen[v]++
			mu <- struct{}{}
		})
	})
	if len(seen) > workers {
		t.Fatalf("%d distinct verifiers across %d workers", len(seen), workers)
	}
	total := 0
	for _, n := range seen {
		total += n
	}
	if total != 64 {
		t.Fatalf("verifier uses = %d, want 64", total)
	}
}

// TestForkWithoutPool checks that a standalone Verifier runs every unit
// inline, in index order, on itself.
func TestForkWithoutPool(t *testing.T) {
	v := NewVerifier()
	var order []int
	v.Fork(5, func(w *Verifier, i int) {
		if w != v {
			t.Errorf("unit %d ran on another Verifier", i)
		}
		order = append(order, i)
	})
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("units ran in order %v, want %v", order, want)
	}
}

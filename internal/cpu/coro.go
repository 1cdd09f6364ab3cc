//go:build go1.23

package cpu

import (
	"iter"
	"sync"
)

// coro is one kernel coroutine. Its body runs one kernel per job and then
// parks at its idle yield, so a coroutine outlives the processors it serves:
// Start attaches an idle coroutine to a processor, and the hub (or Abandon)
// detaches it once the kernel halts or unwinds. An idle coroutine holds no
// *Proc, so parking it retains no machine.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the processor whose kernel runs here; nil while idle
}

// idleCap bounds the process-wide idle list. Machines return their
// coroutines when their kernels halt, so the list only needs to cover the
// processors of the machines running at once (two 32-processor machines on
// two workers); surplus coroutines are stopped rather than parked.
const idleCap = 64

// idle is the process-wide list of parked coroutines. It is a plain slice
// under a mutex, not a sync.Pool: a pool may drop an entry at any GC, and a
// dropped coroutine is a parked goroutine that nobody will ever stop.
var idle struct {
	mu   sync.Mutex
	list []*coro
}

// acquireCoro attaches an idle coroutine to p, creating one if none is
// parked.
func acquireCoro(p *Proc) *coro {
	var c *coro
	idle.mu.Lock()
	if n := len(idle.list); n > 0 {
		c = idle.list[n-1]
		idle.list[n-1] = nil
		idle.list = idle.list[:n-1]
	}
	idle.mu.Unlock()
	if c == nil {
		c = &coro{}
		c.next, c.stop = iter.Pull(c.body)
	}
	c.p = p
	return c
}

// releaseCoro parks an idle coroutine for reuse, or stops it when the list
// is full.
func releaseCoro(c *coro) {
	idle.mu.Lock()
	keep := len(idle.list) < idleCap
	if keep {
		idle.list = append(idle.list, c)
	}
	idle.mu.Unlock()
	if !keep {
		c.stop()
	}
}

// body is the coroutine's whole life: run the attached processor's kernel,
// detach, park until the next job, and return once stopped.
func (c *coro) body(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.runKernel()
		c.p = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

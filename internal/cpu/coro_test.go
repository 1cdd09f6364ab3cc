package cpu

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"dsisim/internal/proto"
)

// idleCoros reports how many coroutines are parked on the idle list.
func idleCoros() int {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return len(idle.list)
}

// TestKernelPanicMidOperation checks that a panic raised while a kernel has
// an operation in flight becomes that processor's Err, halts it, and leaves
// the run able to finish: the halted kernel's stale resume is dropped and
// its coroutine returns to the idle list.
func TestKernelPanicMidOperation(t *testing.T) {
	procs, h := newHarness(t, 2, proto.SC)
	// Processor 1 starts first, so processor 0 is the last kernel resumed
	// and drives the queue when the panicking event fires at t=50.
	procs[1].Start(func(p *Proc) { p.Compute(200) })
	procs[0].Start(func(p *Proc) {
		p.Compute(100) // still in flight when the event below fires
		p.Compute(1)
	})
	h.q.At(50, func() { panic("boom") })
	if _, drained := h.d.Run(); !drained {
		t.Fatal("run did not drain")
	}
	p := procs[0]
	if p.Err() == nil || !strings.Contains(p.Err().Error(), "boom") {
		t.Fatalf("err = %v, want the panic", p.Err())
	}
	if !p.Done() || p.HaltTime() != 50 {
		t.Fatalf("done=%v halt=%d, want halted at 50", p.Done(), p.HaltTime())
	}
	if !procs[1].Done() || procs[1].Err() != nil || procs[1].HaltTime() != 200 {
		t.Fatalf("bystander: done=%v err=%v halt=%d", procs[1].Done(), procs[1].Err(), procs[1].HaltTime())
	}
	for i, p := range procs {
		if p.co != nil {
			t.Fatalf("proc %d still holds a coroutine", i)
		}
	}
}

// TestIdleListCap runs more kernels at once than the idle list holds: every
// coroutine is handed back when its kernel halts, the list stops at its cap,
// and the surplus coroutines are stopped rather than left parked.
func TestIdleListCap(t *testing.T) {
	procs, h := newHarness(t, idleCap+8, proto.SC)
	parked := idleCoros()
	before := runtime.NumGoroutine()
	for _, p := range procs {
		p.Start(func(p *Proc) { p.Compute(int64(p.ID() + 1)) })
	}
	run(t, h, procs)
	if n := idleCoros(); n != idleCap {
		t.Fatalf("idle list holds %d coroutines, want its cap %d", n, idleCap)
	}
	if after, want := runtime.NumGoroutine(), before+idleCap-parked; after > want {
		t.Fatalf("goroutines %d after the run, want at most %d (surplus not stopped)", after, want)
	}
}

// TestCoroutineReusedAcrossGoroutines drives two machines from two
// goroutines, one after the other: the second machine's kernel must run on
// the coroutine the first one handed back. Each machine also pauses at a
// window boundary with its kernel parked mid-operation and finishes the run
// from another goroutine — the steal-worker and RunWindow pump patterns,
// meaningful under -race.
func TestCoroutineReusedAcrossGoroutines(t *testing.T) {
	var handed *coro
	for m := 0; m < 2; m++ {
		procs, h := newHarness(t, 1, proto.SC)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			procs[0].Start(func(p *Proc) {
				p.Compute(10)
				p.Compute(10)
			})
			if m == 1 && procs[0].co != handed {
				t.Error("second machine did not reuse the idle coroutine")
			}
			if !h.d.RunWindow(15) || procs[0].Done() {
				t.Error("window did not pause with the kernel mid-operation")
			}
		}()
		wg.Wait()
		wg.Add(1)
		go func() {
			defer wg.Done()
			handed = procs[0].co
			if !h.d.RunWindow(1 << 40) {
				t.Error("budget expired")
			}
		}()
		wg.Wait()
		if !procs[0].Done() || procs[0].HaltTime() != 20 {
			t.Fatalf("machine %d: done=%v halt=%d", m, procs[0].Done(), procs[0].HaltTime())
		}
	}
}

// TestAbandonUnwindsStuckKernel abandons a kernel deadlocked at the barrier
// whose deferred code issues another operation: the operation must panic
// instead of scheduling an event, the processor must stay un-halted with no
// error, and a Reset processor must run again.
func TestAbandonUnwindsStuckKernel(t *testing.T) {
	procs, h := newHarness(t, 2, proto.SC)
	deferred := false
	procs[0].Start(func(p *Proc) {
		defer func() {
			deferred = true
			p.Compute(5)
			t.Error("operation issued while abandoning returned")
		}()
		p.Barrier() // processor 1 never arrives
	})
	if _, drained := h.d.Run(); !drained {
		t.Fatal("run did not drain")
	}
	p := procs[0]
	if p.Done() || p.co == nil {
		t.Fatal("deadlocked kernel halted or lost its coroutine")
	}
	queued := h.q.Len()
	p.Abandon()
	if !deferred || h.q.Len() != queued {
		t.Fatalf("deferred=%v, queue %d -> %d", deferred, queued, h.q.Len())
	}
	if p.Done() || p.Err() != nil || p.co != nil {
		t.Fatalf("after Abandon: done=%v err=%v co=%v", p.Done(), p.Err(), p.co)
	}

	h.q.Reset()
	h.bar.Reset(100)
	h.d.Reset(1000)
	p.Reset(42)
	p.Bind(h.d)
	p.Start(func(p *Proc) { p.Compute(7) })
	procs[1].Start(func(p *Proc) {})
	run(t, h, procs)
	if p.HaltTime() != 7 {
		t.Fatalf("reused processor halted at %d, want 7", p.HaltTime())
	}
}

// TestConcurrentMachinesShareIdleList runs machines on several goroutines
// at once, as the steal workers do, so acquiring and releasing coroutines
// contend on the idle list; meaningful under -race.
func TestConcurrentMachinesShareIdleList(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				procs, h := newHarness(t, 4, proto.SC)
				for _, p := range procs {
					p.Start(func(p *Proc) {
						p.Compute(int64(p.ID() + 1))
						p.Barrier()
					})
				}
				if _, drained := h.d.Run(); !drained {
					t.Error("budget expired")
					return
				}
				for _, p := range procs {
					if !p.Done() || p.Err() != nil || p.co != nil {
						t.Errorf("proc %d: done=%v err=%v", p.ID(), p.Done(), p.Err())
					}
				}
			}
		}()
	}
	wg.Wait()
}

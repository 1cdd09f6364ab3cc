package machine

import (
	"reflect"
	"runtime"
	"testing"

	"dsisim/internal/cpu"
	"dsisim/internal/proto"
)

// stuckProgs are runs whose kernels never all halt: processor 0 waits alone
// at the barrier while the others halt (a deadlock the queue drains past),
// and every processor computing forever under a small event budget (the
// livelock watchdog expires with every kernel blocked mid-operation).
func stuckProgs() map[string]struct {
	prog     *prog
	maxSteps uint64
} {
	return map[string]struct {
		prog     *prog
		maxSteps uint64
	}{
		"deadlock": {prog: &prog{name: "lonely-barrier", kernel: func(p *cpu.Proc) {
			if p.ID() == 0 {
				p.Barrier()
			}
		}}},
		"budget": {prog: &prog{name: "spin", kernel: func(p *cpu.Proc) {
			for {
				p.Compute(10)
			}
		}}, maxSteps: 500},
	}
}

// TestStuckKernelsDoNotLeak runs deadlocked and budget-expired programs on
// machines that are dropped afterwards, serially and under the parallel
// engine, and checks the goroutine count stays flat: every kernel that never
// halted must be unwound and its coroutine returned to the idle list.
func TestStuckKernelsDoNotLeak(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for name, sp := range stuckProgs() {
			cfg := small(Config{Consistency: proto.SC, Workers: workers, MaxSteps: sp.maxSteps}, 4)
			run := func() {
				r := New(cfg).Run(sp.prog)
				if !r.Failed() {
					t.Fatalf("workers=%d %s: stuck run reported no error", workers, name)
				}
			}
			// Warm the coroutine idle list so the baseline includes it.
			run()
			run()
			before := runtime.NumGoroutine()
			for i := 0; i < 50; i++ {
				run()
			}
			if after := runtime.NumGoroutine(); after > before+4 {
				t.Fatalf("workers=%d %s: goroutines grew %d -> %d over 50 stuck runs", workers, name, before, after)
			}
		}
	}
}

// TestAbandonedProcessorsReuse checks that a pooled machine whose previous
// run deadlocked re-runs bit-identically to a fresh machine: abandoned
// processors are reset like halted ones.
func TestAbandonedProcessorsReuse(t *testing.T) {
	cfg := small(Config{Consistency: proto.SC}, 4)
	fresh := New(cfg).Run(shareProg(200))
	mustClean(t, fresh)

	m := New(cfg)
	if r := m.Run(stuckProgs()["deadlock"].prog); !r.Failed() {
		t.Fatal("deadlocked run reported no error")
	}
	m.Reset(cfg)
	reused := m.Run(shareProg(200))
	mustClean(t, reused)
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("machine reused after a deadlock diverged:\nfresh:  %+v\nreused: %+v", fresh, reused)
	}
}

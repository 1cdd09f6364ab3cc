package dsisim

import (
	"testing"

	"dsisim/internal/workload"
)

// TestLockConvoyWarmAllocsFlat pins that a warm lockconvoy run's allocation
// count does not grow with its acquisition count. The convoy's sequence
// counter reaches processors × acquisitions, so the longer run stores words
// well past 255 — the point where Go stops serving boxed integers from its
// static table. A per-iteration kernel check that boxes its operands on
// every pass (an unguarded Assert) then heap-allocates once per operand per
// check, and the longer run's count climbs by thousands.
func TestLockConvoyWarmAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full runs")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; budgets hold only for plain builds")
	}
	cfg := Config{Protocol: SC, Processors: 8}
	run := func(acquisitions int) {
		p := workload.LockConvoyScaled(workload.ScaleTest)
		p.Acquisitions = acquisitions
		if _, err := RunProgram(cfg, workload.NewLockConvoy(p)); err != nil {
			t.Fatal(err)
		}
	}
	const short, long = 8, 96 // final sequence words 64 and 768
	run(long)                 // warm the machine pool to its high-water mark
	allocs := func(acquisitions int) float64 {
		return testing.AllocsPerRun(3, func() { run(acquisitions) })
	}
	shortRun, longRun := allocs(short), allocs(long)
	if longRun > shortRun+32 {
		t.Fatalf("allocations scale with acquisitions: %.0f at %d vs %.0f at %d",
			shortRun, short, longRun, long)
	}
}

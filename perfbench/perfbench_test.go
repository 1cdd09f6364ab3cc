package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"dsisim/internal/experiments"
	"dsisim/internal/machine"
	"dsisim/internal/soak"
	"dsisim/internal/workload"
)

func TestMixStreamDeterministicPerSeed(t *testing.T) {
	a := mixStream(5, 0, 4096, 36)
	if !slices.Equal(a, mixStream(5, 0, 4096, 36)) {
		t.Fatal("same seed gave two different streams")
	}
	if slices.Equal(a, mixStream(6, 0, 4096, 36)) {
		t.Fatal("seeds 5 and 6 gave the same stream")
	}
	if slices.Equal(a, mixStream(5, 1, 4096, 36)) {
		t.Fatal("both clients of one seed got the same stream")
	}
	u := mixUniverse(5)
	if !slices.Equal(u, mixUniverse(5)) || slices.Equal(u, mixUniverse(6)) {
		t.Fatal("cell universe must be a function of the seed alone")
	}
	// Zipf with exponent 1: rank 0 is asked for about twice as often as
	// rank 1, and every rank is in range.
	var counts [36]int
	for _, r := range a {
		counts[r]++
	}
	if counts[0] < counts[1] || counts[1] < counts[35] {
		t.Fatalf("stream is not popularity-ordered: %v", counts)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(n-i) * time.Millisecond
		}
		return s
	}
	if _, err := percentile(samples(99), 90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	got, err := percentile(samples(100), 90)
	if err != nil {
		t.Fatal(err)
	}
	if got != 90*time.Millisecond {
		t.Fatalf("p90 of 1..100 ms = %v, want 90ms", got)
	}
	if n := minSamplesFor(90); n != 100 {
		t.Fatalf("minSamplesFor(90) = %d, want 100", n)
	}
	if _, err := percentile(samples(5), 50); err == nil {
		t.Fatal("p50 of 5 samples must be refused")
	}
}

func TestDigestRejectsPerturbedResult(t *testing.T) {
	cons, pol := experiments.V.Config()
	b := &kernelBench{
		name: "em3d-test",
		cfg:  machine.Config{Processors: 4, Consistency: cons, Policy: pol, Seed: 3},
		prog: func() machine.Program {
			p, err := workload.New("em3d", workload.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	first := b.cell(nil)
	b.want = resultDigest(&first)
	res := b.cell(nil)
	if err := b.check(&res); err != nil {
		t.Fatalf("repeated cell: %v", err)
	}
	perturb := map[string]func(r *machine.Result){
		"TotalTime": func(r *machine.Result) { r.TotalTime++ },
		"ExecTime":  func(r *machine.Result) { r.ExecTime-- },
		"Messages":  func(r *machine.Result) { r.Messages.ByKind[3]++ },
		"Cache":     func(r *machine.Result) { r.Cache[1].ReadMisses++ },
		"Dir":       func(r *machine.Result) { r.Dir[0].SIGrantsRead++ },
		"Breakdown": func(r *machine.Result) { r.Breakdown.Cycles[0]++ },
		"Events":    func(r *machine.Result) { r.Kernel.Events++ },
		"Errors":    func(r *machine.Result) { r.Errors = []string{"audit"} },
	}
	for name, f := range perturb {
		r := b.cell(nil)
		r.Cache = slices.Clone(r.Cache)
		r.Dir = slices.Clone(r.Dir)
		f(&r)
		if b.check(&r) == nil {
			t.Errorf("perturbed %s passed the digest check", name)
		}
	}

	vs := []soak.Verdict{{Cell: 1, Status: soak.StatusOK, Events: 10}, {Cell: 0, Status: soak.StatusOK, Events: 7}}
	d := verdictDigest(vs)
	if verdictDigest([]soak.Verdict{vs[1], vs[0]}) != d {
		t.Error("verdict digest depends on verdict order")
	}
	vs[0].Events++
	if verdictDigest(vs) == d {
		t.Error("perturbed verdict kept its digest")
	}
	if cellSetDigest(map[string]string{"a": "1"}) == cellSetDigest(map[string]string{"a": "2"}) {
		t.Error("perturbed cell set kept its digest")
	}
}

// TestSmoke sets each workload up at the default seed (checking the
// committed digests the set-up and finish can reach) and runs it briefly.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			b, err := def.setUp(defaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			r, err := closedLoop(def, b, 200*time.Millisecond, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.cells == 0 || r.failed != 0 {
				t.Fatalf("%d of %d cells failed", r.failed, r.cells)
			}
			if _, err := b.finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTracedReportsEveryLayerMetric(t *testing.T) {
	def, err := workloadByName("lockconvoy-SC-32p")
	if err != nil {
		t.Fatal(err)
	}
	b, err := def.setUp(2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runTraced(def, b, 600*time.Millisecond, t.TempDir(), hostFingerprint(def.name, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct {
		t.Fatalf("traced run failed %d of %d cells", out.Failed, out.Attempted)
	}
	if len(out.Metrics) != len(layerUnits) {
		t.Fatalf("reported %d per-layer metrics, want %d", len(out.Metrics), len(layerUnits))
	}
	for _, k := range []string{"cpu.ops_per_cell", "event.events_per_cell", "netsim.inv_msgs_per_cell", "machine.run_ms"} {
		if out.Metrics[k].Value <= 0 {
			t.Errorf("%s = %v, want > 0", k, out.Metrics[k].Value)
		}
	}
}

// profSink makes the profiled loop's allocations escape to the heap.
var profSink []byte

func TestProfileFractions(t *testing.T) {
	cases := map[string]string{
		"runtime.mallocgc":                         "runtime",
		"internal/runtime/atomic.(*Uint32).Load":   "runtime",
		"dsisim/internal/event.(*Queue).Step":      "event",
		"dsisim/internal/blockmap.(*Map[...]).Get": "blockmap",
		"dsisim.Run":         "",
		"sync.(*Mutex).Lock": "",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	for ctx.Err() == nil {
		profSink = make([]byte, 1<<10)
	}
	pprof.StopCPUProfile()
	fracs, n, err := profileFractions(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("profile recorded no samples")
	}
	sum := 0.0
	for _, v := range fracs {
		sum += v
	}
	if len(fracs) != len(profPackages) || sum > 1.0000001 {
		t.Fatalf("fractions %v (sum %v) over %d samples", fracs, sum, n)
	}
	if fracs["prof.runtime_frac"] == 0 {
		t.Fatalf("an allocating loop showed no runtime samples: %v", fracs)
	}
}

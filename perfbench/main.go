// Command perfbench is dsisim's same-host benchmark. It runs one named
// closed-loop workload against the simulator's public packages, checks
// every simulated result, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of its output:
//
//	bash perfbench/run.sh --workload em3d-V-8p --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, metrics and method.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// A run sets its workload up at least minSetupRounds times, and on until
// the set-ups have taken minSetupTime, so that a set-up of milliseconds
// still yields a steady median (setup_s).
const (
	minSetupRounds = 5
	maxSetupRounds = 50
	minSetupTime   = time.Second
)

// tailPercentile is the reported tail; runs extend until it has minBeyond
// samples beyond it.
const tailPercentile = 90

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	outDir := flag.String("out", ".bench_build", "directory for span and profile files")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, d time.Duration, traced bool, outDir string) error {
	def, err := workloadByName(name)
	if err != nil {
		return err
	}
	if d <= 0 {
		return fmt.Errorf("seconds must be positive")
	}
	fp := hostFingerprint(name, seed)
	host, _ := json.Marshal(fp) // strings and integers only: cannot fail
	fmt.Printf("host %s\n", host)

	b, setup, err := setUp(def, seed)
	if err != nil {
		return err
	}
	var out output
	if traced {
		out, err = runTraced(def, b, d, outDir, fp)
	} else {
		out, err = runUntraced(def, b, d, setup)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: %d of %d cells failed their checks", name, out.Failed, out.Attempted)
	}
	return nil
}

// setUp sets the workload up from scratch (inputs, cold machine assembly,
// warm-up cell) repeatedly and keeps the last set-up. It returns the median
// set-up time.
func setUp(def workloadDef, seed uint64) (bench, float64, error) {
	var b bench
	var times []float64
	start := time.Now()
	for i := 0; i < maxSetupRounds && (i < minSetupRounds || time.Since(start) < minSetupTime); i++ {
		// Free the previous round's machines and return their memory to
		// the OS first, so that every round assembles its machine from
		// fresh pages and the memory high-water mark does not depend on
		// when the collector ran.
		debug.FreeOSMemory()
		t := time.Now()
		var err error
		if b, err = def.setUp(seed); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	debug.FreeOSMemory()
	return b, median(times), nil
}

// rateWindows is how many equal slices of the measured time a phase's
// throughput is taken over. The reported rate is the median slice's, so a
// burst of load from outside the benchmark moves it less than a mean would.
const rateWindows = 10

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	wall     time.Duration
	requests int
	cells    int
	failed   int
	events   uint64
	lat      []time.Duration // every stride-th request per client
	// winCells and winEvents hold the cells and events completed in each
	// window of d/rateWindows, a request's share split by its overlap.
	winCells, winEvents []float64
	window              time.Duration
}

// spread adds a request that ran over [a, b) to the windows it overlaps,
// in proportion to the overlap.
func (r *loopResult) spread(a, b time.Duration, cells int, events uint64) {
	if b <= a {
		b = a + 1
	}
	for w := int(a / r.window); w < len(r.winCells) && time.Duration(w)*r.window < b; w++ {
		lo, hi := max(a, time.Duration(w)*r.window), min(b, time.Duration(w+1)*r.window)
		f := float64(hi-lo) / float64(b-a)
		r.winCells[w] += f * float64(cells)
		r.winEvents[w] += f * float64(events)
	}
}

// windowRates returns the per-second cell rate of every window the phase
// covered completely.
func (r *loopResult) windowRates() []float64 {
	n := min(int(r.wall/r.window), len(r.winCells))
	out := make([]float64, n)
	for w := range out {
		out[w] = r.winCells[w] / r.window.Seconds()
	}
	return out
}

// rates returns the median per-second rates of cells and events over the
// windows the phase covered completely.
func (r *loopResult) rates() (cells, events float64) {
	cs := r.windowRates()
	if len(cs) == 0 {
		s := r.wall.Seconds()
		return float64(r.cells) / s, float64(r.events) / s
	}
	es := make([]float64, len(cs))
	for w := range es {
		es[w] = r.winEvents[w] / r.window.Seconds()
	}
	return median(cs), median(es)
}

// closedLoop runs def.clients clients, each issuing its next request only
// after the previous one returns, for d, and on until at least minSamples
// latencies are recorded (bounded at three times d).
func closedLoop(def workloadDef, b bench, d time.Duration, minSamples int, tr *tracer) (loopResult, error) {
	var (
		mu       sync.Mutex
		total    loopResult
		firstErr error
		samples  atomic.Int64
		wg       sync.WaitGroup
	)
	newWindows := func() loopResult {
		return loopResult{window: d / rateWindows,
			winCells: make([]float64, 3*rateWindows), winEvents: make([]float64, 3*rateWindows)}
	}
	total = newWindows()
	start := time.Now()
	for c := 0; c < def.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := newWindows()
			var err error
			var prev time.Duration
			var last reqResult
			for i := 0; ; i++ {
				el := time.Since(start)
				if i > 0 {
					r.spread(prev, el, last.cells, last.events)
				}
				prev = el
				if el >= 3*d || (el >= d && samples.Load() >= int64(minSamples)) {
					break
				}
				// Only sampled requests are timed and traced, which keeps
				// the span store small on the microsecond-scale workload.
				sampled := i%def.stride == 0
				rtr := tr
				if !sampled {
					rtr = nil
				}
				t := time.Now()
				var rr reqResult
				if rr, err = b.do(c, rtr); err != nil {
					break
				}
				if sampled {
					r.lat = append(r.lat, time.Since(t))
					samples.Add(1)
				}
				last = rr
				r.requests++
				r.cells += rr.cells
				r.failed += rr.failed
				r.events += rr.events
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			total.requests += r.requests
			total.cells += r.cells
			total.failed += r.failed
			total.events += r.events
			total.lat = append(total.lat, r.lat...)
			for w := range r.winCells {
				total.winCells[w] += r.winCells[w]
				total.winEvents[w] += r.winEvents[w]
			}
		}(c)
	}
	wg.Wait()
	total.wall = time.Since(start)
	return total, firstErr
}

func runUntraced(def workloadDef, b bench, d time.Duration, setup float64) (output, error) {
	t0, s0 := hostTicks()
	r, err := closedLoop(def, b, d, minSamplesFor(tailPercentile), nil)
	if err != nil {
		return output{}, err
	}
	t1, s1 := hostTicks()
	fmt.Printf("host steal %.2f%% of CPU time over the measured phase\n", 100*stealFrac(t0, s0, t1, s1))
	out := output{Attempted: r.cells, Failed: r.failed}
	if d, err := b.finish(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		out.Failed = max(out.Failed, 1)
	} else {
		fmt.Printf("digest %s\n", d)
	}
	out.Correct = out.Failed == 0
	p50, err := percentile(r.lat, 50)
	if err != nil {
		return output{}, err
	}
	p90, err := percentile(r.lat, tailPercentile)
	if err != nil {
		return output{}, err
	}
	cellRate, eventRate := r.rates()
	fmt.Printf("cells/s per window of %v: %.4g\n", r.window, r.windowRates())
	fmt.Printf("latency samples %d of %d requests; fail_frac %g (%d of %d cells)\n",
		len(r.lat), r.requests, float64(out.Failed)/float64(max(out.Attempted, 1)), out.Failed, out.Attempted)
	out.Metrics = map[string]metric{
		"cells_per_s":      {cellRate, "1/s"},
		"sim_events_per_s": {eventRate, "1/s"},
		"cell_ms_p50":      {ms(p50), "ms"},
		"cell_ms_p90":      {ms(p90), "ms"},
		"setup_s":          {setup, "s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
	return out, nil
}

// layerUnits gives every per-layer metric its unit; runTraced reports
// exactly these.
var layerUnits = map[string]string{
	"cpu.handoff_ns_1p": "ns", "cpu.handoff_ns_8p": "ns",
	"cpu.ops_per_cell": "count", "cpu.read_frac": "ratio", "cpu.sync_ops_per_cell": "count",
	"event.events_per_cell": "count", "event.peak_queue": "count",
	"event.host_ns_per_event": "ns", "event.step_ns": "ns",
	"netsim.msgs_per_cell": "count", "netsim.inv_msgs_per_cell": "count", "netsim.send_ns": "ns",
	"proto.misses_per_cell": "count", "proto.dir_requests_per_cell": "count",
	"proto.dir_queued_per_cell": "count", "proto.sync_flushes_per_cell": "count",
	"proto.dir_txn_ns": "ns",
	"cache.hit_ratio":  "ratio", "cache.lookup_ns": "ns",
	"blockmap.get_ns":         "ns",
	"core.si_grants_per_cell": "count", "core.tearoff_grants_per_cell": "count",
	"workload.new_ms": "ms", "machine.get_ms": "ms", "machine.reuse_ratio": "ratio", "machine.run_ms": "ms",
	"soak.events_per_cell": "count", "soak.reruns": "count",
	"steal.steals": "count", "steal.cpu_util": "ratio",
	"simcache.hit_ratio": "ratio", "simcache.waits": "count", "simcache.bytes_mb": "MB",
	"simcache.hit_us": "us", "simcache.key_us": "us",
	"runtime.gc_cpu_frac": "ratio", "runtime.gc_cycles_per_cell": "count",
	"runtime.allocs_per_cell": "count", "runtime.alloc_mb_per_cell": "MB",
	"runtime.sched_lat_p99_us": "us",
	"trace.overhead_frac":      "ratio",
}

func init() {
	for _, pkg := range profPackages {
		layerUnits["prof."+pkg+"_frac"] = "ratio"
	}
}

// runTraced measures the workload untraced for half the time, then traced
// (spans, runtime counters, CPU profile) for the other half, then runs the
// per-layer drivers. End-to-end metrics never come from here.
func runTraced(def workloadDef, b bench, d time.Duration, outDir string, fp fingerprint) (output, error) {
	half := d / 2
	plain, err := closedLoop(def, b, half, 0, nil)
	if err != nil {
		return output{}, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return output{}, err
	}
	rt0, cpu0 := sampleRuntime(), cpuSeconds()
	traced, err := closedLoop(def, b, half, 0, tr)
	cpu1, rt1 := cpuSeconds(), sampleRuntime()
	pprof.StopCPUProfile()
	if err != nil {
		return output{}, err
	}
	layers := runtimeDelta(rt0, rt1, traced.cells)
	layers["steal.cpu_util"] = (cpu1 - cpu0) / (traced.wall.Seconds() * float64(def.threads))
	plainRate := float64(plain.cells) / plain.wall.Seconds()
	layers["trace.overhead_frac"] = 1 - float64(traced.cells)/traced.wall.Seconds()/plainRate
	fracs, nsamples, err := profileFractions(prof.Bytes())
	if err != nil {
		return output{}, err
	}
	for k, v := range fracs {
		layers[k] = v
	}
	for k, v := range b.layers() {
		layers[k] = v
	}

	cells := b.shape()
	_, timedBefore := tr.meanMS("machine.Run")
	st, reuse, err := shapePass(cells, tr, timedBefore == 0)
	if err != nil {
		return output{}, err
	}
	for k, v := range st.metrics() {
		layers[k] = v
	}
	if _, ok := layers["machine.reuse_ratio"]; !ok {
		layers["machine.reuse_ratio"] = reuse
	}
	for metric, span := range map[string]string{
		"workload.new_ms": "workload.New", "machine.get_ms": "machine.Pool.Get", "machine.run_ms": "machine.Run",
	} {
		layers[metric], _ = tr.meanMS(span)
	}
	if ev := st.events / float64(max(st.cells, 1)); ev > 0 {
		layers["event.host_ns_per_event"] = layers["machine.run_ms"] * 1e6 / ev
	}
	dv, err := drivers(cells, st, tr)
	if err != nil {
		return output{}, err
	}
	for k, v := range dv {
		layers[k] = v
	}
	for _, k := range []string{"soak.events_per_cell", "soak.reruns", "steal.steals",
		"simcache.hit_ratio", "simcache.waits", "simcache.bytes_mb"} {
		if _, ok := layers[k]; !ok {
			layers[k] = 0 // the workload does not use that layer
		}
	}

	out := output{Attempted: plain.cells + traced.cells, Failed: plain.failed + traced.failed}
	if d, err := b.finish(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		out.Failed = max(out.Failed, 1)
	} else {
		fmt.Printf("digest %s\n", d)
	}
	out.Correct = out.Failed == 0
	out.Metrics = map[string]metric{}
	for k, unit := range layerUnits {
		v, ok := layers[k]
		if !ok {
			return output{}, fmt.Errorf("per-layer metric %s was not measured", k)
		}
		out.Metrics[k] = metric{v, unit}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return output{}, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("perfbench-%s-seed%d", def.name, fp.Seed))
	if err := tr.write(base+"-spans.json", fp); err != nil {
		return output{}, err
	}
	if err := os.WriteFile(base+"-cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return output{}, err
	}
	fmt.Printf("traced: %d spans in %s-spans.json, %d profile samples; untraced %.4g cells/s, traced %.4g cells/s\n",
		len(tr.spans), base, nsamples, plainRate, float64(traced.cells)/traced.wall.Seconds())
	return out, nil
}

package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"

	"dsisim"
	"dsisim/internal/experiments"
	"dsisim/internal/machine"
	"dsisim/internal/soak"
	"dsisim/internal/workload"
)

// reqResult is what one closed-loop request did.
type reqResult struct {
	cells  int    // simulations completed (or served from the cache)
	events uint64 // simulated kernel events those cells executed
	failed int    // cells that failed a correctness check
}

// bench is one workload set up for one seed. do is called concurrently
// for distinct clients; everything else runs with no request in flight.
type bench interface {
	// do issues client c's next request and returns once it completes.
	do(c int, tr *tracer) (reqResult, error)
	// finish runs the end-of-run correctness checks and returns the
	// workload's digest ("" when the run was too short to form one).
	finish() (string, error)
	// shape returns the cells whose kernel counts stand for one cell of
	// this workload in the per-layer report.
	shape() []shapeCell
	// layers reports the workload's own per-layer counters (soak, steal,
	// simcache) over every request served so far.
	layers() map[string]float64
}

// shapeCell is one simulation described for the per-layer drivers.
type shapeCell struct {
	name string
	cfg  machine.Config
	prog func() machine.Program
}

// workloadDef names a workload and how its closed loop is driven.
type workloadDef struct {
	name    string
	clients int // closed-loop clients, each with one request in flight
	threads int // host threads of load: clients, or steal workers
	stride  int // record the latency of every stride-th request per client
	setUp   func(seed uint64) (bench, error)
}

var workloads = []workloadDef{
	{
		name:    "em3d-V-8p",
		clients: 1, threads: 1, stride: 1,
		setUp: func(seed uint64) (bench, error) {
			p := workload.EM3DDefaults()
			p.Seed = soak.SeedOf(seed, 0)
			return newKernelBench("em3d-V-8p", seed, 8, experiments.V,
				func() machine.Program { return workload.NewEM3D(p) })
		},
	},
	{
		name:    "lockconvoy-SC-32p",
		clients: 1, threads: 1, stride: 1,
		setUp: func(seed uint64) (bench, error) {
			p := workload.LockConvoyScaled(workload.ScalePaper)
			p.Seed = soak.SeedOf(seed, 1)
			return newKernelBench("lockconvoy-SC-32p", seed, 32, experiments.SC,
				func() machine.Program { return workload.NewLockConvoy(p) })
		},
	},
	{
		name:    "soak-campaign",
		clients: 1, threads: soakWorkers, stride: 1,
		setUp: func(seed uint64) (bench, error) { return newSoakBench(seed) },
	},
	{
		name:    "cached-mix",
		clients: 2, threads: 2, stride: 1024,
		setUp: func(seed uint64) (bench, error) { return newMixBench(seed) },
	},
}

func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// pool is a machine pool that counts how often Get hands out a machine it
// has handed out before.
type pool struct {
	machine.Pool
	seen        map[*machine.Machine]bool
	gets, reuse int
}

func (p *pool) get(cfg machine.Config) *machine.Machine {
	m := p.Get(cfg)
	if p.seen == nil {
		p.seen = map[*machine.Machine]bool{}
	}
	p.gets++
	if p.seen[m] {
		p.reuse++
	}
	p.seen[m] = true
	return m
}

func (p *pool) reuseRatio() float64 { return float64(p.reuse) / float64(max(p.gets, 1)) }

// cell runs one simulation the way dsisim.RunProgram does (build the
// program, take a machine from the pool, run it, return the machine), with
// a span around each call into the simulator when tr is not nil.
func (p *pool) cell(tr *tracer, cfg machine.Config, prog func() machine.Program) machine.Result {
	id := tr.cell()
	root := tr.begin(id, -1, "cell")
	s := tr.begin(id, root, "workload.New")
	pr := prog()
	tr.end(s)
	s = tr.begin(id, root, "machine.Pool.Get")
	m := p.get(cfg)
	tr.end(s)
	s = tr.begin(id, root, "machine.Run")
	res := m.Run(pr)
	tr.end(s)
	s = tr.begin(id, root, "machine.Pool.Put")
	p.Put(m)
	tr.end(s)
	tr.end(root)
	return res
}

// kernelBench repeats one paper-scale cell. Simulated caches start empty
// in every cell (the pool resets them).
type kernelBench struct {
	name string
	cfg  machine.Config
	prog func() machine.Program
	pool pool
	want string // digest every cell must reproduce
}

func newKernelBench(name string, seed uint64, procs int, label experiments.Label, prog func() machine.Program) (*kernelBench, error) {
	cons, pol := label.Config()
	b := &kernelBench{
		name: name,
		cfg:  machine.Config{Processors: procs, Consistency: cons, Policy: pol, Seed: seed},
		prog: prog,
	}
	// The warm-up cell assembles the machine cold and fixes the digest
	// every timed cell must reproduce.
	res := b.cell(nil)
	if res.Failed() {
		return nil, fmt.Errorf("%s: warm-up cell failed: %s", name, res.Errors[0])
	}
	b.want = resultDigest(&res)
	if err := checkExpected(name, seed, b.want); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *kernelBench) cell(tr *tracer) machine.Result { return b.pool.cell(tr, b.cfg, b.prog) }

// check reports why a cell's result is wrong: a failed run (coherence
// audit, kernel asserts, deadlock) or a digest that differs from the
// warm-up cell's.
func (b *kernelBench) check(res *machine.Result) error {
	if res.Failed() {
		return fmt.Errorf("%s: %s", b.name, res.Errors[0])
	}
	if d := resultDigest(res); d != b.want {
		return fmt.Errorf("%s: digest %s, want %s", b.name, d, b.want)
	}
	return nil
}

func (b *kernelBench) do(_ int, tr *tracer) (reqResult, error) {
	res := b.cell(tr)
	r := reqResult{cells: 1, events: res.Kernel.Events}
	if b.check(&res) != nil {
		r.failed = 1
	}
	return r, nil
}

func (b *kernelBench) finish() (string, error) { return b.want, nil }

func (b *kernelBench) shape() []shapeCell {
	return []shapeCell{{name: b.name, cfg: b.cfg, prog: b.prog}}
}

func (b *kernelBench) layers() map[string]float64 {
	return map[string]float64{"machine.reuse_ratio": b.pool.reuseRatio()}
}

// soakWorkers is the steal-runner width of the campaign: the host's two
// CPUs, and no more threads of load than that.
const soakWorkers = 2

// soakShards splits the campaign into round-robin shard sittings, each a
// soak.Run call of 120 cells. soak.Run exposes no per-cell time, so the
// sitting is the request whose latency is measured; one pass over all
// shards is the full 2040-cell campaign. 17 divides the 2040 cells and is
// prime to the 120 (workload, protocol, template) combinations, so every
// sitting runs each combination exactly once: sittings are alike, and a
// run that stops between passes measures the same mix as a whole pass.
const soakShards = 17

type soakBench struct {
	seed        uint64
	space       soak.Space
	next        int
	shardDigest []string // per shard, from its first sitting
	pass        []soak.Verdict
	passDigest  string // of the first complete pass
	sittings    int
	cells       int
	events      uint64
	steals      int64
	reruns      int64
}

func newSoakBench(seed uint64) (*soakBench, error) {
	b := &soakBench{seed: seed, space: soak.DefaultSpace(), shardDigest: make([]string, soakShards)}
	if err := b.space.Validate(); err != nil {
		return nil, err
	}
	// Warm-up: one sitting of the first shard.
	if _, err := b.sitting(0, nil); err != nil {
		return nil, err
	}
	b.next, b.pass = 0, nil
	b.sittings, b.cells, b.events, b.steals, b.reruns = 0, 0, 0, 0, 0
	return b, nil
}

func (b *soakBench) sitting(shard int, tr *tracer) (reqResult, error) {
	id := tr.cell()
	s := tr.begin(id, -1, "soak.Run")
	rep, err := soak.Run(soak.Options{
		Space:   b.space,
		Seed:    b.seed,
		Shard:   soak.Shard{Index: shard + 1, Count: soakShards},
		Workers: soakWorkers,
		Log:     io.Discard,
	})
	tr.end(s)
	if err != nil {
		return reqResult{}, fmt.Errorf("soak-campaign: %w", err)
	}
	r := reqResult{cells: len(rep.Verdicts), failed: rep.Failures}
	for _, v := range rep.Verdicts {
		r.events += v.Events
	}
	// A sitting repeats its shard's first sitting exactly, or all of its
	// cells count as failed.
	d := verdictDigest(rep.Verdicts)
	if b.shardDigest[shard] == "" {
		b.shardDigest[shard] = d
	} else if d != b.shardDigest[shard] {
		r.failed = r.cells
	}
	b.sittings++
	b.cells += r.cells
	b.events += r.events
	b.steals += rep.Steals
	b.reruns += rep.Reruns
	b.pass = append(b.pass, rep.Verdicts...)
	return r, nil
}

func (b *soakBench) do(_ int, tr *tracer) (reqResult, error) {
	shard := b.next % soakShards
	b.next++
	r, err := b.sitting(shard, tr)
	if err != nil || shard != soakShards-1 {
		return r, err
	}
	// The pass is complete: its verdict union is the whole campaign.
	d := verdictDigest(b.pass)
	b.pass = b.pass[:0]
	if b.passDigest == "" {
		b.passDigest = d
		if checkExpected("soak-campaign", b.seed, d) != nil {
			r.failed = r.cells
		}
	} else if d != b.passDigest {
		r.failed = r.cells
	}
	return r, nil
}

func (b *soakBench) finish() (string, error) { return b.passDigest, nil }

// shape is the campaign's first repetition of registry-workload cells,
// configured as soak configures them (litmus cells run generated programs
// outside the machine pool and are left out).
func (b *soakBench) shape() []shapeCell {
	per := len(b.space.Workloads) * len(b.space.Protocols) * len(b.space.Templates)
	var out []shapeCell
	for i := 0; i < per; i++ {
		cell := b.space.Cell(b.seed, i)
		if cell.Workload == soak.LitmusWorkload {
			continue
		}
		cfg := machine.Config{
			Processors:  8,
			CacheAssoc:  4,
			Consistency: cell.Protocol.Consistency,
			Policy:      cell.Protocol.Policy,
			Seed:        cell.Seed | 1,
		}
		if cell.Template.Faults != nil {
			fc := *cell.Template.Faults
			fc.Seed = soak.FaultSeedOf(cell.Seed)
			cfg.Faults = &fc
		}
		name := cell.Workload
		out = append(out, shapeCell{
			name: fmt.Sprintf("%s/%s/%s", name, cell.Protocol.Name, cell.Template.Name),
			cfg:  cfg,
			prog: func() machine.Program {
				p, err := workload.New(name, workload.ScaleTest)
				if err != nil {
					panic(err) // Validate resolved every name at set-up
				}
				return p
			},
		})
	}
	return out
}

func (b *soakBench) layers() map[string]float64 {
	s := float64(max(b.sittings, 1))
	return map[string]float64{
		"soak.events_per_cell": float64(b.events) / float64(max(b.cells, 1)),
		"soak.reruns":          float64(b.reruns) / s * soakShards,
		"steal.steals":         float64(b.steals) / s * soakShards,
	}
}

// mixCell is one distinct request of the cached mix.
type mixCell struct {
	workload string
	protocol dsisim.Protocol
	seed     uint64
}

func (c mixCell) String() string { return fmt.Sprintf("%s/%s/%x", c.workload, c.protocol, c.seed) }

func (c mixCell) config(cache *dsisim.ResultCache) dsisim.Config {
	return dsisim.Config{Workload: c.workload, Scale: dsisim.ScaleTest, Protocol: c.protocol,
		Processors: 8, Seed: c.seed, Cache: cache}
}

var (
	mixWorkloads = []string{"em3d", "sparse", "zipf", "prodring"}
	mixProtocols = []dsisim.Protocol{dsisim.SC, dsisim.V, dsisim.WDSI}
)

const (
	mixSeeds     = 3       // Config.Seed values per (workload, protocol)
	mixStreamLen = 1 << 16 // requests per client before its stream repeats
)

// mixUniverse lists the distinct cells in popularity order: rank 0 is the
// most requested. The Config.Seed values come from seed. The order is
// fixed, round-robin over workloads and then protocols, so that every seed
// puts the same kinds of cells at the same popularity and the simulated
// work behind a request does not depend on the seed.
func mixUniverse(seed uint64) []mixCell {
	var cells []mixCell
	for k := 0; k < mixSeeds; k++ {
		for _, p := range mixProtocols {
			for _, w := range mixWorkloads {
				cells = append(cells, mixCell{w, p, soak.SeedOf(seed, 100+len(cells))})
			}
		}
	}
	return cells
}

// mixStream is client c's request stream: ranks drawn from a zipf law with
// exponent 1 over k cells (rank i is asked for 1/(i+1) as often as rank 0).
func mixStream(seed uint64, client, n, k int) []uint8 {
	cdf := make([]float64, k)
	total := 0.0
	for i := range cdf {
		total += 1 / float64(i+1)
		cdf[i] = total
	}
	r := rand.New(rand.NewPCG(seed, uint64(client)+1))
	out := make([]uint8, n)
	for i := range out {
		x := r.Float64() * total
		out[i] = uint8(sort.SearchFloat64s(cdf, x))
		if int(out[i]) >= k {
			out[i] = uint8(k - 1)
		}
	}
	return out
}

type mixBench struct {
	seed    uint64
	cells   []mixCell
	streams [][]uint8
	pos     []int // per client; each client touches only its own slot
	cache   *dsisim.ResultCache

	// The first response for a cell fixes what every later one must
	// match: TotalTime and Events (+1, so zero means unset) checked on
	// every request, and the full digest checked against an uncached run
	// at the end.
	refTime   []atomic.Int64
	refEvents []atomic.Uint64
	mu        sync.Mutex
	digests   map[int]string
}

func newMixBench(seed uint64) (*mixBench, error) {
	b := &mixBench{seed: seed, cells: mixUniverse(seed), digests: map[int]string{}}
	for c := 0; c < 2; c++ {
		b.streams = append(b.streams, mixStream(seed, c, mixStreamLen, len(b.cells)))
	}
	b.pos = make([]int, len(b.streams))
	b.refTime = make([]atomic.Int64, len(b.cells))
	b.refEvents = make([]atomic.Uint64, len(b.cells))
	// Warm-up: the least popular cell, simulated without the shared cache
	// so that cache still starts empty.
	if _, err := dsisim.Run(b.cells[len(b.cells)-1].config(nil)); err != nil {
		return nil, fmt.Errorf("cached-mix warm-up: %w", err)
	}
	b.cache = dsisim.NewResultCache(0)
	return b, nil
}

func (b *mixBench) do(c int, tr *tracer) (reqResult, error) {
	i := int(b.streams[c][b.pos[c]%len(b.streams[c])])
	b.pos[c]++
	id := tr.cell()
	s := tr.begin(id, -1, "dsisim.Run")
	res, err := dsisim.Run(b.cells[i].config(b.cache))
	tr.end(s)
	r := reqResult{cells: 1, events: res.Kernel.Events}
	if err != nil || res.Failed() {
		r.failed = 1
		return r, nil
	}
	t, e := int64(res.TotalTime)+1, res.Kernel.Events+1
	if b.refTime[i].CompareAndSwap(0, t) {
		b.refEvents[i].Store(e)
		b.mu.Lock()
		b.digests[i] = resultDigest(&res)
		b.mu.Unlock()
	} else if b.refTime[i].Load() != t || (b.refEvents[i].Load() != 0 && b.refEvents[i].Load() != e) {
		r.failed = 1
	}
	return r, nil
}

// finish simulates every distinct cell without the cache and checks that
// each cell the cache served matches it bit for bit. The digest over all
// distinct cells is the workload's committed digest.
func (b *mixBench) finish() (string, error) {
	all := map[string]string{}
	for i, c := range b.cells {
		res, err := dsisim.Run(c.config(nil))
		if err != nil {
			return "", fmt.Errorf("cached-mix: %v: %w", c, err)
		}
		d := resultDigest(&res)
		if got, ok := b.digests[i]; ok && got != d {
			return "", fmt.Errorf("cached-mix: %v served digest %s, uncached %s", c, got, d)
		}
		all[c.String()] = d
	}
	d := cellSetDigest(all)
	return d, checkExpected("cached-mix", b.seed, d)
}

func (b *mixBench) shape() []shapeCell {
	out := make([]shapeCell, len(b.cells))
	for i, c := range b.cells {
		cons, pol := experiments.Label(c.protocol).Config()
		w := c.workload
		out[i] = shapeCell{
			name: c.String(),
			cfg:  machine.Config{Processors: 8, Consistency: cons, Policy: pol, Seed: c.seed},
			prog: func() machine.Program {
				p, err := workload.New(w, workload.ScaleTest)
				if err != nil {
					panic(err) // mixWorkloads names registry workloads only
				}
				return p
			},
		}
	}
	return out
}

func (b *mixBench) layers() map[string]float64 {
	st := b.cache.Stats()
	return map[string]float64{
		"simcache.hit_ratio": float64(st.Hits) / float64(max(st.Hits+st.Misses, 1)),
		"simcache.waits":     float64(st.Waits),
		"simcache.bytes_mb":  float64(st.Bytes) / (1 << 20),
	}
}

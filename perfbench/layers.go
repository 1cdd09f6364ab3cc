package main

import (
	"fmt"
	"time"

	"dsisim"
	"dsisim/internal/blockmap"
	"dsisim/internal/cache"
	"dsisim/internal/cpu"
	"dsisim/internal/event"
	"dsisim/internal/machine"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/simcache"
)

// maxStream caps the recorded address stream the cache and blockmap
// drivers replay.
const maxStream = 1 << 20

// shapeStats are the kernel-layer counts of a workload's shape cells.
type shapeStats struct {
	cells                               int
	ops, reads, syncs, memOps           float64
	events, msgs, invs, misses          float64
	dirRequests, dirQueued, syncFlushes float64
	siGrants, tearOffs                  float64
	peakQueue, procs, cacheBytes, assoc int
	streams                             [][]mem.Addr // per processor, first cell only
	results                             []machine.Result
}

// shapePass runs every shape cell once with a machine.Config.Tracer
// attached and sums what the tracer and the Result count. With timed set,
// each cell first runs once more without the tracer, with spans around the
// calls, so that the machine-layer spans exist for workloads whose timed
// loop does not make those calls itself.
func shapePass(cells []shapeCell, tr *tracer, timed bool) (shapeStats, float64, error) {
	var st shapeStats
	var p pool
	for i, c := range cells {
		if timed {
			p.cell(tr, c.cfg, c.prog)
		}
		cfg := c.cfg.Defaults()
		if i == 0 {
			st.procs, st.cacheBytes, st.assoc = cfg.Processors, cfg.CacheBytes, cfg.CacheAssoc
			st.streams = make([][]mem.Addr, cfg.Processors)
		}
		recorded := 0
		cfg.Tracer = func(proc int, op cpu.TraceOp) {
			st.ops++
			if op.Sync {
				st.syncs++
			}
			switch op.Kind {
			case "read", "write", "swap":
				st.memOps++
				if op.Kind == "read" {
					st.reads++
				}
				if i == 0 && recorded < maxStream {
					st.streams[proc] = append(st.streams[proc], op.Addr)
					recorded++
				}
			}
		}
		res := p.cell(nil, cfg, c.prog)
		if res.Failed() {
			return st, 0, fmt.Errorf("shape cell %s: %s", c.name, res.Errors[0])
		}
		st.cells++
		st.events += float64(res.Kernel.Events)
		st.peakQueue = max(st.peakQueue, res.Kernel.PeakQueue)
		st.msgs += float64(res.Messages.Total())
		st.invs += float64(res.Messages.ByKind[netsim.Inv])
		for _, cs := range res.Cache {
			st.misses += float64(cs.ReadMisses + cs.WriteMisses + cs.Upgrades + cs.SwapMisses)
			st.syncFlushes += float64(cs.SyncFlushes)
		}
		for _, ds := range res.Dir {
			st.dirRequests += float64(ds.Requests)
			st.dirQueued += float64(ds.Queued)
			st.siGrants += float64(ds.SIGrantsRead + ds.SIGrantsWrite)
			st.tearOffs += float64(ds.TearOffGrants)
		}
		if len(st.results) < 64 {
			st.results = append(st.results, res)
		}
	}
	return st, p.reuseRatio(), nil
}

// metrics turns the sums into per-cell figures.
func (st shapeStats) metrics() map[string]float64 {
	n := float64(max(st.cells, 1))
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"cpu.ops_per_cell":             st.ops / n,
		"cpu.read_frac":                frac(st.reads, st.ops),
		"cpu.sync_ops_per_cell":        st.syncs / n,
		"event.events_per_cell":        st.events / n,
		"event.peak_queue":             float64(st.peakQueue),
		"netsim.msgs_per_cell":         st.msgs / n,
		"netsim.inv_msgs_per_cell":     st.invs / n,
		"proto.misses_per_cell":        st.misses / n,
		"proto.dir_requests_per_cell":  st.dirRequests / n,
		"proto.dir_queued_per_cell":    st.dirQueued / n,
		"proto.sync_flushes_per_cell":  st.syncFlushes / n,
		"cache.hit_ratio":              1 - frac(st.misses, st.ops),
		"core.si_grants_per_cell":      st.siGrants / n,
		"core.tearoff_grants_per_cell": st.tearOffs / n,
	}
}

// repeatNS times fn, which performs ops operations, three times and
// returns the median nanoseconds per operation.
func repeatNS(ops int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds())/float64(ops))
	}
	return median(xs), nil
}

// computeLoop is a kernel that only computes: each Compute is one round
// trip between the processor and the event kernel, and nothing else.
type computeLoop struct{ n int }

func (computeLoop) Name() string           { return "handoff" }
func (computeLoop) Setup(*machine.Machine) {}
func (computeLoop) WarmupBarriers() int    { return 0 }
func (l computeLoop) Kernel(p *cpu.Proc) {
	for i := 0; i < l.n; i++ {
		p.Compute(1)
	}
}

// handoffNS is the host cost of one processor operation at procs
// processors.
func handoffNS(procs int) (float64, error) {
	const ops = 200_000
	return repeatNS(ops, func() error {
		_, err := dsisim.RunProgram(dsisim.Config{Processors: procs}, computeLoop{n: ops / procs})
		return err
	})
}

// writeLoop has two processors each write n times, computing between
// writes for longer than a miss takes: to one shared block (so every write
// finds the block in the other cache and is a directory transaction) or,
// with private set, each to its own block (every write after the first
// hits).
type writeLoop struct {
	n       int
	private bool
	region  mem.Region
}

func (w *writeLoop) Name() string        { return "pingpong" }
func (w *writeLoop) WarmupBarriers() int { return 0 }
func (w *writeLoop) Setup(m *machine.Machine) {
	w.region = m.Layout().AllocInterleaved("pingpong", 2*mem.BlockSize)
}
func (w *writeLoop) Kernel(p *cpu.Proc) {
	a := w.region.Addr(0)
	if w.private {
		a = w.region.Addr(uint64(p.ID()) * mem.BlockSize)
	}
	for i := 0; i < w.n; i++ {
		p.Write(a)
		p.Compute(1000)
	}
}

// dirTxnNS is the host cost of one directory transaction: a two-processor
// write ping-pong minus the same number of writes that hit, per miss.
func dirTxnNS() (float64, error) {
	const n = 20_000
	run := func(private bool) (time.Duration, int64, error) {
		var best time.Duration
		var txns int64
		for i := 0; i < 3; i++ {
			t := time.Now()
			res, err := dsisim.RunProgram(dsisim.Config{Processors: 2}, &writeLoop{n: n, private: private})
			d := time.Since(t)
			if err != nil {
				return 0, 0, err
			}
			if i == 0 || d < best {
				best = d
			}
			txns = 0
			for _, cs := range res.Cache {
				txns += cs.WriteMisses + cs.Upgrades
			}
		}
		return best, txns, nil
	}
	shared, txns, err := run(false)
	if err != nil {
		return 0, err
	}
	private, _, err := run(true)
	if err != nil {
		return 0, err
	}
	if txns == 0 {
		return 0, fmt.Errorf("dir_txn: ping-pong made no transactions")
	}
	return float64((shared - private).Nanoseconds()) / float64(txns), nil
}

// eventStepNS is the host cost of one event.Queue step with depth events
// pending: every event re-arms itself a pseudo-random short delay ahead,
// so the depth holds.
func eventStepNS(depth int) (float64, error) {
	const steps = 2_000_000
	var q event.Queue
	x := uint64(12345)
	var fn event.Func
	fn = func() {
		x = x*6364136223846793005 + 1442695040888963407
		q.After(event.Time(1+x>>58), fn)
	}
	for i := 0; i < max(depth, 1); i++ {
		q.After(event.Time(1+i%64), fn)
	}
	return repeatNS(steps, func() error {
		if n := q.RunSteps(steps); n != steps {
			return fmt.Errorf("event driver ran %d of %d steps", n, steps)
		}
		return nil
	})
}

// netsimSendNS is the host cost of one message through netsim: Send plus
// its delivery, in bursts of control and data messages between distinct
// nodes of a nodes-node network.
func netsimSendNS(nodes int) (float64, error) {
	const burst, rounds = 64, 4000
	nodes = max(nodes, 2)
	q := &event.Queue{}
	n := netsim.New(q, netsim.Config{Nodes: nodes, Latency: 100})
	delivered := 0
	for i := 0; i < nodes; i++ {
		n.SetHandler(i, func(netsim.Message) { delivered++ })
	}
	send := func() {
		for j := 0; j < burst; j++ {
			src := j % nodes
			kind := netsim.GetS
			if j%2 == 1 {
				kind = netsim.DataS
			}
			n.Send(netsim.Message{Kind: kind, Src: src, Dst: (src + 1 + j%(nodes-1)) % nodes,
				Addr: mem.Addr(j * mem.BlockSize)})
		}
	}
	return repeatNS(burst*rounds, func() error {
		delivered = 0
		for r := 0; r < rounds; r++ {
			q.At(q.Now(), send)
			q.Run()
		}
		if delivered != burst*rounds {
			return fmt.Errorf("netsim driver delivered %d of %d", delivered, burst*rounds)
		}
		return nil
	})
}

// cacheLookupNS replays each processor's recorded address stream into its
// own cache array of the workload's geometry, filling on every miss, and
// returns the host cost per lookup.
func cacheLookupNS(streams [][]mem.Addr, bytes, assoc int) (float64, error) {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	if total == 0 {
		return 0, fmt.Errorf("cache driver: empty address stream")
	}
	caches := make([]*cache.Cache, len(streams))
	for i := range caches {
		caches[i] = cache.New(cache.Config{SizeBytes: bytes, Assoc: assoc})
	}
	return repeatNS(total, func() error {
		for i, s := range streams {
			c := caches[i]
			c.Reset()
			for _, a := range s {
				if _, hit := c.Lookup(a); !hit {
					c.Install(a, cache.Fill{State: cache.Shared})
				}
			}
		}
		return nil
	})
}

// blockmapGetNS fills a dense block table with every block of the recorded
// streams and returns the host cost of one Get along the streams.
func blockmapGetNS(streams [][]mem.Addr) (float64, error) {
	var m blockmap.Map[uint64]
	total := 0
	for _, s := range streams {
		for _, a := range s {
			*m.Ensure(mem.BlockIndex(a)) = uint64(a)
		}
		total += len(s)
	}
	if total == 0 {
		return 0, fmt.Errorf("blockmap driver: empty address stream")
	}
	var sink uint64
	ns, err := repeatNS(total, func() error {
		for _, s := range streams {
			for _, a := range s {
				sink += *m.Get(mem.BlockIndex(a))
			}
		}
		return nil
	})
	if sink == 0 {
		return 0, fmt.Errorf("blockmap driver: table lost its records")
	}
	return ns, err
}

// simcacheUS times key derivation and cache hits for the shape cells'
// requests, in microseconds per call.
func simcacheUS(cells []shapeCell, results []machine.Result, tr *tracer) (keyUS, hitUS float64, err error) {
	const rounds = 2000
	keys := make([]simcache.Key, len(results))
	c := simcache.New(0)
	for i, res := range results {
		keys[i] = simcache.RequestOf(cells[i].name, "test", "", cells[i].cfg).Key()
		r := res
		c.Do(keys[i], func() machine.Result { return r })
	}
	id := tr.cell()
	s := tr.begin(id, -1, "simcache.RequestOf.Key")
	keyNS, err := repeatNS(rounds*len(results), func() error {
		for r := 0; r < rounds; r++ {
			for i := range results {
				keys[i] = simcache.RequestOf(cells[i].name, "test", "", cells[i].cfg).Key()
			}
		}
		return nil
	})
	tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	s = tr.begin(id, -1, "simcache.Cache.Do")
	hitNS, err := repeatNS(rounds*len(results), func() error {
		for r := 0; r < rounds; r++ {
			for _, k := range keys {
				if _, hit := c.Do(k, nil); !hit {
					return fmt.Errorf("simcache driver: miss on a stored key")
				}
			}
		}
		return nil
	})
	tr.end(s)
	return keyNS / 1e3, hitNS / 1e3, err
}

// drivers runs every per-layer driver, shaped by the workload's cells.
func drivers(cells []shapeCell, st shapeStats, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	steps := []struct {
		name string
		fn   func() (float64, error)
	}{
		{"cpu.handoff_ns_1p", func() (float64, error) { return handoffNS(1) }},
		{"cpu.handoff_ns_8p", func() (float64, error) { return handoffNS(8) }},
		{"event.step_ns", func() (float64, error) { return eventStepNS(st.peakQueue) }},
		{"netsim.send_ns", func() (float64, error) { return netsimSendNS(st.procs) }},
		{"cache.lookup_ns", func() (float64, error) { return cacheLookupNS(st.streams, st.cacheBytes, st.assoc) }},
		{"blockmap.get_ns", func() (float64, error) { return blockmapGetNS(st.streams) }},
		{"proto.dir_txn_ns", dirTxnNS},
	}
	for _, d := range steps {
		id := tr.cell()
		s := tr.begin(id, -1, "driver."+d.name)
		v, err := d.fn()
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		out[d.name] = v
	}
	key, hit, err := simcacheUS(cells, st.results, tr)
	if err != nil {
		return nil, err
	}
	out["simcache.key_us"], out["simcache.hit_us"] = key, hit
	return out, nil
}

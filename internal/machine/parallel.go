// Conservative parallel delivery engine (Config.Workers > 1).
//
// The machine is partitioned one-node-per-partition: each partition owns its
// node's event queue, cache and directory controllers, processor, network
// port, and (when faults are configured) fault stream. Partitions advance in
// lockstep windows of Δ = NetworkLatency + InjectCycles simulated cycles —
// the minimum time any cross-node message needs between send and delivery —
// so everything inside a window is causally independent across partitions
// and can execute concurrently. At each boundary the coordinator merges the
// partitions' outboxes in a deterministic order, tallies barrier arrivals,
// and opens the next window.
//
// Determinism contract (DESIGN.md §5): for a fixed configuration every
// run with Workers >= 2 is bit-identical — the window schedule, the merge
// order, and all partition-local execution are functions of the simulation
// alone, never of goroutine scheduling; Workers only caps how many
// partitions execute simultaneously. Results legitimately differ from the
// serial engine (Workers == 1): transaction ids are striped across nodes
// instead of globally dense, fault plans draw from per-node streams instead
// of one global send-ordered stream, scripted-rule occurrence counters
// become per source node, and same-cycle events on different nodes
// interleave by partition rather than by global send order. The parallel
// equivalence suite pins the W2 == W8 identity and run-to-run determinism
// over the fault matrix.

package machine

import (
	"fmt"
	"sort"

	"dsisim/internal/cache"
	"dsisim/internal/check"
	"dsisim/internal/core"
	"dsisim/internal/cpu"
	"dsisim/internal/event"
	"dsisim/internal/faultinj"
	"dsisim/internal/netsim"
	"dsisim/internal/proto"
	"dsisim/internal/stats"
)

// parMsg is one cross-partition message parked in its source partition's
// outbox: the message, its fully computed arrival time (NI occupancy, fault
// decision, and FIFO clamp already applied at the source port), and its
// emission index within the window, the tiebreak that keeps the merge order
// a pure function of simulation state.
type parMsg struct {
	m      netsim.Message
	arrive event.Time
	idx    int
}

// parArrival is one processor parked at the machine-wide barrier, recorded
// by its partition's collecting barrier port.
type parArrival struct {
	node int
	at   event.Time
	cont func()
}

// partition is one node's complete simulation stack plus its coordination
// state. Everything here is owned by exactly one goroutine at a time: the
// partition's pump while a window runs, the coordinator between windows
// (the window/did channel pair carries the happens-before edges).
type partition struct {
	node int
	q    *event.Queue
	drv  *cpu.Driver
	net  *netsim.Network
	cc   *proto.CacheCtrl
	dc   *proto.DirCtrl
	bar  *cpu.Barrier
	proc *cpu.Proc
	brk  *stats.Breakdown
	plan *faultinj.Plan

	fails    []string
	outbox   []parMsg
	arrivals []parArrival

	// Warm-up snapshots, captured by a partition-local event at the warm-up
	// barrier's release time (mirroring the serial OnRelease hook).
	warmBrk  stats.Breakdown
	warmMsgs netsim.Counts

	windows chan event.Time
	did     chan bool
}

// pump executes this partition's windows as the coordinator opens them. sem
// caps how many partitions run simultaneously (the Workers knob); it has no
// effect on results, only on concurrency.
func (pt *partition) pump(sem chan struct{}) {
	for limit := range pt.windows {
		sem <- struct{}{}
		ok := pt.drv.RunWindow(limit)
		<-sem
		pt.did <- ok
	}
}

// runParallel is Machine.Run's Workers > 1 engine. The partition world is
// built fresh per run (the serial machine's structural pooling does not
// apply here yet); the machine's layout, configuration, and seed are shared
// with the partitions, everything else is per-partition.
func (m *Machine) runParallel(prog Program) Result {
	prog.Setup(m)
	cfg := m.cfg
	n := cfg.Processors
	// The lookahead window must respect every cross-partition channel's
	// minimum latency: the network (flight time plus the NI's minimum
	// occupancy) and the hardware barrier (whose release lands a fixed
	// latency after the last arrival — with the window no wider than that,
	// the coordinator always observes a completed episode in time to
	// schedule the release at its exact serial instant, never floored).
	delta := cfg.NetworkLatency + netsim.InjectCycles
	if cfg.BarrierLatency < delta {
		delta = cfg.BarrierLatency
	}
	if delta < 1 {
		delta = 1
	}

	retry := cfg.Retry
	faultsOn := cfg.Faults != nil && cfg.Faults.Enabled()
	if retry == nil && faultsOn {
		retry = proto.DefaultRetry(cfg.NetworkLatency)
	}
	pcfg := proto.Config{
		Consistency:        cfg.Consistency,
		WriteBufferEntries: cfg.WriteBufferEntries,
		SharerLimit:        cfg.SharerLimit,
		Policy:             cfg.Policy,
		Retry:              retry,
	}
	geo := cache.Config{SizeBytes: cfg.CacheBytes, Assoc: cfg.CacheAssoc}

	parts := make([]*partition, n)
	for i := 0; i < n; i++ {
		pt := &partition{
			node:    i,
			q:       &event.Queue{},
			brk:     &stats.Breakdown{},
			windows: make(chan event.Time),
			did:     make(chan bool),
		}
		if faultsOn {
			// Per-node fault streams: the serial engine draws one global
			// stream in send order, which no partitioning can reproduce, so
			// each port gets its own plan seeded from the configured seed and
			// its node id — deterministic for every Workers >= 2.
			fcfg := *cfg.Faults
			fcfg.Seed ^= uint64(i+1) * 0x9e3779b97f4a7c15
			pt.plan = faultinj.New(fcfg)
		}
		pt.net = netsim.New(pt.q, netsim.Config{Nodes: n, Latency: cfg.NetworkLatency, Faults: pt.plan})
		pt.net.SetPort(i, func(msg netsim.Message, arrive event.Time) {
			pt.outbox = append(pt.outbox, parMsg{m: msg, arrive: arrive, idx: len(pt.outbox)})
		})
		env := &proto.Env{
			Q: pt.q, Net: pt.net, Layout: m.layout,
			TxnStride: uint64(n), TxnBase: uint64(i),
			CheckFail: func(format string, args ...any) {
				pt.fails = append(pt.fails, fmt.Sprintf("t=%d: ", pt.q.Now())+fmt.Sprintf(format, args...))
			},
		}
		pt.cc = proto.NewCacheCtrl(env, i, pcfg, geo)
		pt.dc = proto.NewDirCtrl(env, i, pcfg)
		cc, dc := pt.cc, pt.dc
		pt.net.SetHandler(i, func(msg netsim.Message) {
			switch msg.Kind {
			case netsim.Inv, netsim.Recall, netsim.DataS, netsim.DataX,
				netsim.AckX, netsim.FinalAck, netsim.Nack:
				cc.Handle(&msg)
			case netsim.GetS, netsim.GetX, netsim.Upgrade, netsim.InvAck,
				netsim.InvAckData, netsim.RecallAck, netsim.WB, netsim.Repl,
				netsim.SInvNotify, netsim.SInvWB, netsim.NackHome:
				dc.Handle(&msg)
			default:
				panic("machine: message kind with no controller route")
			}
		})
		pt.bar = cpu.NewBarrier(pt.q, n, cfg.BarrierLatency)
		pt.bar.Collect = func(at event.Time, cont func()) {
			pt.arrivals = append(pt.arrivals, parArrival{node: pt.node, at: at, cont: cont})
		}
		pt.drv = cpu.NewDriver(pt.q)
		pt.drv.Reset(cfg.MaxSteps)
		pt.proc = cpu.New(i, n, pt.q, pt.cc, pt.bar, pt.brk, cfg.Seed)
		pt.proc.Bind(pt.drv)
		pt.proc.Start(prog.Kernel)
		parts[i] = pt
	}

	workers := cfg.Workers
	if workers > n {
		workers = n
	}
	sem := make(chan struct{}, workers)
	for _, pt := range parts {
		//dsi:parmerge partition pumps: windows/did handshakes order all state
		go pt.pump(sem)
	}

	var (
		waiting   []parArrival
		episodes  int64
		warmWant  = int64(prog.WarmupBarriers())
		warmTaken = warmWant == 0
		warmEnd   event.Time
		budgetOut bool
		xfer      []parMsg
	)
	for {
		// Open the next window at the earliest pending event anywhere.
		var minNext event.Time
		any := false
		for _, pt := range parts {
			if t, ok := pt.q.NextAt(); ok && (!any || t < minNext) {
				minNext, any = t, true
			}
		}
		if !any {
			break // quiesced: halted, deadlocked, or stuck at the barrier
		}
		limit := minNext + delta
		for _, pt := range parts {
			pt.windows <- limit
		}
		for _, pt := range parts {
			if !<-pt.did {
				budgetOut = true
			}
		}
		if budgetOut {
			break
		}

		// Merge cross-partition traffic. Arrival times are final (source-side
		// physics ran at the port); sorting by (arrive, src, emission index)
		// fixes the destination queues' tie order deterministically and
		// preserves per-(src, dst) FIFO, whose arrivals never decrease.
		xfer = xfer[:0]
		for _, pt := range parts {
			xfer = append(xfer, pt.outbox...)
			pt.outbox = pt.outbox[:0]
		}
		sort.Slice(xfer, func(i, j int) bool {
			a, b := xfer[i], xfer[j]
			if a.arrive != b.arrive {
				return a.arrive < b.arrive
			}
			if a.m.Src != b.m.Src {
				return a.m.Src < b.m.Src
			}
			return a.idx < b.idx
		})
		for _, x := range xfer {
			parts[x.m.Dst].net.Inject(x.m, x.arrive)
		}

		// Tally barrier arrivals; release once every processor has arrived.
		// The release time is the serial rule (last arrival + latency)
		// floored to the boundary where the coordinator — like the hardware
		// it stands in for — first observes completion.
		for _, pt := range parts {
			waiting = append(waiting, pt.arrivals...)
			pt.arrivals = pt.arrivals[:0]
		}
		if len(waiting) == n {
			episodes++
			var lastAt event.Time
			for _, a := range waiting {
				if a.at > lastAt {
					lastAt = a.at
				}
			}
			release := lastAt + cfg.BarrierLatency
			if release < limit {
				release = limit
			}
			if !warmTaken && episodes >= warmWant {
				warmTaken = true
				warmEnd = release
				for _, pt := range parts {
					pt := pt
					pt.q.At(release, func() {
						pt.warmBrk = *pt.brk
						pt.warmMsgs = pt.net.Counts()
					})
				}
			}
			sort.Slice(waiting, func(i, j int) bool { return waiting[i].node < waiting[j].node })
			for _, a := range waiting {
				parts[a.node].q.At(release, a.cont)
			}
			waiting = waiting[:0]
		}
	}
	for _, pt := range parts {
		close(pt.windows)
	}
	for _, pt := range parts {
		pt.proc.Abandon()
	}

	// Assemble the Result exactly as the serial engine does, summing the
	// per-partition views.
	var (
		res      Result
		last     event.Time
		steps    uint64
		inflight int
		queueLen int
		ccs      = make([]*proto.CacheCtrl, n)
		dcs      = make([]*proto.DirCtrl, n)
	)
	res.Program = prog.Name()
	res.Barriers = episodes
	for _, pt := range parts {
		if t := pt.q.Now(); t > res.TotalTime {
			res.TotalTime = t
		}
		steps += pt.drv.Steps()
		inflight += pt.net.InFlight()
		queueLen += pt.q.Len()
		ccs[pt.node], dcs[pt.node] = pt.cc, pt.dc
		res.Errors = append(res.Errors, pt.fails...)
		if pt.plan != nil {
			s := pt.plan.Stats()
			res.Faults.Decisions += s.Decisions
			res.Faults.Dropped += s.Dropped
			res.Faults.Duplicated += s.Duplicated
			res.Faults.Delayed += s.Delayed
			res.Faults.Converted += s.Converted
			res.Faults.Scripted += s.Scripted
		}
	}
	if budgetOut {
		res.Errors = append(res.Errors, fmt.Sprintf("watchdog: %d events executed without quiescing", steps))
		res.Errors = append(res.Errors, worldDiagnose(queueLen, inflight, ccs, dcs, nil)...)
		return res
	}
	if worldDeadlocked(ccs, dcs, inflight) {
		res.Errors = append(res.Errors, "watchdog: event queue drained without quiescing (deadlock)")
		res.Errors = append(res.Errors, worldDiagnose(queueLen, inflight, ccs, dcs, nil)...)
	}
	for _, pt := range parts {
		p := pt.proc
		if !p.Done() {
			res.Errors = append(res.Errors, fmt.Sprintf("proc %d deadlocked (%d parked at barrier)", pt.node, len(waiting)))
			continue
		}
		if p.Err() != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("proc %d: %v", pt.node, p.Err()))
		}
		if p.HaltTime() > last {
			last = p.HaltTime()
		}
	}
	if !warmTaken {
		res.Errors = append(res.Errors, fmt.Sprintf("warm-up never ended: %d barrier episodes < %d",
			episodes, prog.WarmupBarriers()))
	}

	res.ExecTime = last - warmEnd
	res.PerProc = make([]stats.Breakdown, n)
	for _, pt := range parts {
		pb := *pt.brk
		for c := range pb.Cycles {
			pb.Cycles[c] -= pt.warmBrk.Cycles[c]
		}
		res.PerProc[pt.node] = pb
		res.Breakdown.Merge(&pb)
		res.Messages = addCounts(res.Messages, pt.net.Counts().Sub(pt.warmMsgs))
		res.Cache = append(res.Cache, pt.cc.Stats())
		res.Dir = append(res.Dir, pt.dc.Stats())
		if f, ok := pt.cc.Mechanism().(*core.FIFO); ok {
			res.FIFODisplacements += f.Displacements
		}
		qs := pt.q.Stats()
		res.Kernel.Events += qs.Executed
		res.Kernel.Scheduled += qs.Scheduled
		res.Kernel.TypedEvents += qs.Typed
		if qs.PeakLen > res.Kernel.PeakQueue {
			res.Kernel.PeakQueue = qs.PeakLen
		}
		res.Kernel.PooledDeliveries += pt.net.Recycled()
	}
	for _, err := range check.Audit(ccs, dcs, inflight) {
		res.Errors = append(res.Errors, "audit: "+err.Error())
	}
	return res
}

// addCounts sums two traffic counters kind by kind.
func addCounts(a, b netsim.Counts) netsim.Counts {
	for i := range a.ByKind {
		a.ByKind[i] += b.ByKind[i]
	}
	return a
}

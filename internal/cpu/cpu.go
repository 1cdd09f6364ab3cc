// Package cpu models the processors: a simple in-order core that issues
// loads, stores, swaps, compute delays, and synchronization operations
// against its node's cache controller, stalling according to the memory
// consistency model, and attributing every stalled cycle to the categories
// of the paper's Figure 3.
//
// Workload kernels are ordinary Go functions, each run as a coroutine
// (iter.Pull) drawn from a small process-wide idle list. A kernel blocks
// inside each Proc method while the simulator advances. Exactly one context
// executes events at any moment: the Driver's hub loop, or the kernel
// coroutine it most recently resumed, which drives the queue itself until
// its own response is ready. When an event resumes a different processor,
// the running kernel yields to the hub and the hub resumes that processor's
// coroutine. Execution is fully serialized, so simulations are
// deterministic as long as kernels do not mutate Go state shared between
// processors (read-only shared setup is fine).
package cpu

import (
	"fmt"

	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/proto"
	"dsisim/internal/rng"
	"dsisim/internal/stats"
)

// Kernel is the per-processor body of a workload.
type Kernel func(p *Proc)

// opKind enumerates kernel→driver requests.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opSwap
	opCompute
	opBarrier
	opUnlock
	opFlush
	opHalt
)

type request struct {
	kind   opKind
	addr   mem.Addr
	word   uint64
	cycles int64
	sync   bool // charge stall time to the synchronization category
	// noFlush suppresses the self-invalidation flush after a swap: failed
	// spin-lock attempts are not treated as completed synchronization
	// points (the flush runs once, after the successful acquire).
	noFlush bool
}

// Value is what a kernel observes from a load or swap: the block's
// coherence token plus the data word at the accessed address.
type Value struct {
	Writer int
	Seq    uint64
	Word   uint64
}

type response struct {
	value Value
	old   uint64
}

// Proc is one simulated processor. Kernel-side methods (Read, Write, …)
// must only be called from the processor's kernel; everything else belongs
// to the driver.
type Proc struct {
	id int
	n  int

	q       *event.Queue
	cc      *proto.CacheCtrl
	barrier *Barrier
	brk     *stats.Breakdown
	rnd     *rng.RNG
	drv     *Driver

	// co is the coroutine running this processor's kernel, from Start until
	// the kernel halts or is abandoned; kernel is the function it runs.
	co     *coro
	kernel Kernel
	// respReady: this processor's response is in resp, delivered by its own
	// drive loop (a self-resume, which costs no coroutine switch). abandon:
	// Abandon is unwinding the kernel; every operation it issues panics.
	respReady bool
	abandon   bool

	seq  uint64 // store sequence for value tokens
	done bool
	halt event.Time
	err  error

	// In-order operation state: the core has at most one operation in
	// flight, so its continuation context lives here instead of in per-op
	// closures. r is the current request, start its issue time, resp the
	// response to deliver at the next resume, pending the response parked
	// across a trailing self-invalidation flush.
	r       request
	start   event.Time
	resp    response
	pending response

	// drained/arrived are the intermediate timestamps of the multi-stage
	// synchronization sequences (drain → access → flush → barrier).
	drained event.Time
	arrived event.Time

	// flushNext runs after the current self-invalidation flush completes.
	flushNext  func()
	flushStart event.Time

	// Continuations bound once at construction so issuing an operation
	// allocates nothing.
	contRead, contWrite, contSwap, contUnlockWrite func(*proto.Result)
	contFlushed                                    func(*proto.Result)
	contSwapDrained, contUnlockDrained             func()
	contBarrierDrained, contBarrierFlushed         func()
	contBarrierReleased, contFinishResp            func()
	contFlushFinish                                func()

	// SpinBackoffMax bounds the exponential backoff between lock retries.
	SpinBackoffMax int64

	// OnOp, if set, observes every operation the kernel issues, in program
	// order, before it executes. Used by the trace tooling.
	OnOp func(TraceOp)
}

// TraceOp is one kernel-issued operation as seen by a tracer.
type TraceOp struct {
	Kind   string // read write swap compute barrier unlock flush halt
	Addr   mem.Addr
	Word   uint64
	Cycles int64
	Sync   bool
}

var opNames = map[opKind]string{
	opRead: "read", opWrite: "write", opSwap: "swap", opCompute: "compute",
	opBarrier: "barrier", opUnlock: "unlock", opFlush: "flush", opHalt: "halt",
}

// New builds a processor. Start must be called to launch its kernel.
func New(id, n int, q *event.Queue, cc *proto.CacheCtrl, barrier *Barrier, brk *stats.Breakdown, seed uint64) *Proc {
	p := &Proc{
		id: id, n: n, q: q, cc: cc, barrier: barrier, brk: brk,
		rnd:            rng.New(seed ^ uint64(id)*0x9e3779b97f4a7c15),
		SpinBackoffMax: 256,
	}
	p.contRead = p.onRead
	p.contWrite = p.onWrite
	p.contSwap = p.onSwap
	p.contUnlockWrite = p.onUnlockWrite
	p.contFlushed = p.onFlushed
	p.contSwapDrained = p.onSwapDrained
	p.contUnlockDrained = p.onUnlockDrained
	p.contBarrierDrained = p.onBarrierDrained
	p.contBarrierFlushed = p.onBarrierFlushed
	p.contBarrierReleased = p.onBarrierReleased
	p.contFinishResp = p.finishResp
	p.contFlushFinish = p.onFlushFinish
	return p
}

// Reset returns the processor to its just-built state for machine reuse,
// keeping the continuation closures bound at construction. A kernel that
// never halted (a deadlock or an expired event budget) is abandoned first.
// The queue, cache controller, barrier, and breakdown wiring persist; only
// the run state (RNG, store sequence, halt/err, in-flight operation
// context) is cleared.
func (p *Proc) Reset(seed uint64) {
	p.Abandon()
	p.rnd.Reseed(seed ^ uint64(p.id)*0x9e3779b97f4a7c15)
	p.respReady = false
	p.seq = 0
	p.done = false
	p.halt = 0
	p.err = nil
	p.r = request{}
	p.start = 0
	p.resp = response{}
	p.pending = response{}
	p.drained, p.arrived = 0, 0
	p.flushNext = nil
	p.flushStart = 0
	p.SpinBackoffMax = 256
	p.OnOp = nil
}

// ID returns the processor number.
func (p *Proc) ID() int { return p.id }

// N returns the machine's processor count.
func (p *Proc) N() int { return p.n }

// RNG returns the processor's private deterministic generator.
func (p *Proc) RNG() *rng.RNG { return p.rnd }

// Done reports whether the kernel has halted.
func (p *Proc) Done() bool { return p.done }

// HaltTime returns the simulated time the kernel halted.
func (p *Proc) HaltTime() event.Time { return p.halt }

// Err returns the kernel's panic error, if any.
func (p *Proc) Err() error { return p.err }

// Breakdown returns the processor's cycle attribution.
func (p *Proc) Breakdown() *stats.Breakdown { return p.brk }

// --- cooperative driver --------------------------------------------------------

// Driver owns one machine's event-loop run. Its hub loop (Run, RunWindow)
// executes events until one resumes a processor, then resumes that
// processor's kernel coroutine. The kernel returns from its pending
// operation, issues the next one, and drives the queue itself: a resume of
// its own (respReady) costs no switch at all, while a resume of another
// processor only records that processor in next and makes the kernel yield
// back to the hub, which resumes it. A handoff is therefore two coroutine
// switches, with no channel operation and no scheduler wake-up. Operations
// are issued at exactly the (time, seq) positions a central loop would
// issue them at: whoever drives, the next kernel code runs before the next
// event.
//
// The hub is the only place a kernel is resumed (Abandon aside), and every
// field is accessed by whichever context currently runs — the hub or the
// kernel it resumed — so none needs synchronization.
type Driver struct {
	q      *event.Queue
	max    uint64
	budget uint64

	// limit is the window boundary for RunWindow-driven runs: driving pauses
	// before executing any event at time >= limit. Negative disables the
	// check entirely — the serial Run path never looks at the clock.
	limit event.Time

	// cur is the processor whose kernel is running; nil while the hub
	// drives. next is the processor an event resumed, pending the hub.
	cur  *Proc
	next *Proc
}

// NewDriver builds a driver for q. Reset arms it for a run.
func NewDriver(q *event.Queue) *Driver {
	return &Driver{q: q}
}

// Reset arms the driver for one run with an event budget (the livelock
// watchdog). A driver is reusable.
func (d *Driver) Reset(budget uint64) {
	d.max, d.budget = budget, budget
	d.limit = -1
	d.cur = nil
	d.next = nil
}

// Steps returns the number of events executed since Reset.
func (d *Driver) Steps() uint64 { return d.max - d.budget }

// step executes one event within the budget. It returns false when driving
// must stop — the queue drained, the budget expired, or the window boundary
// was reached — and a false return repeats until the driver is re-armed, so
// the hub can re-check after a kernel stopped and yielded.
//
//dsi:hotpath
func (d *Driver) step() bool {
	if d.budget == 0 {
		return false
	}
	if d.limit >= 0 {
		if t, ok := d.q.NextAt(); ok && t >= d.limit {
			return false
		}
	}
	// An empty queue refunds the charge: no event ran.
	d.budget--
	if !d.q.Step() {
		d.budget++
		return false
	}
	return true
}

// hub drives the queue and resumes each processor an event resumes, until
// driving stops. It returns false only when the budget expired. A kernel
// that halts detaches its coroutine here; a resume that arrives after its
// kernel halted (a kernel that panicked with an operation in flight) is
// dropped.
//
//dsi:hotpath
func (d *Driver) hub() bool {
	for {
		if p := d.next; p != nil {
			d.next = nil
			if p.co == nil {
				continue
			}
			d.cur = p
			p.co.next()
			d.cur = nil
			if p.done {
				p.detach()
			}
			continue
		}
		if !d.step() {
			return d.budget != 0
		}
	}
}

// Run drives the queue until it drains or the budget expires. It returns
// the number of events executed and whether the queue drained (false: the
// budget expired with events still pending). Kernels still blocked when Run
// returns stay parked until Abandon (or Reset) unwinds them.
func (d *Driver) Run() (steps uint64, drained bool) {
	drained = d.hub()
	return d.max - d.budget, drained
}

// RunWindow drives the queue until the next pending event's time reaches
// limit, the queue drains, or the budget expires. It returns false only when
// the budget expired; a true return means the partition quiesced for this
// window (boundary reached or queue empty — the caller distinguishes via
// Queue.Len). A kernel blocked mid-operation at a boundary stays parked in
// its coroutine exactly as across an ordinary handoff, and the next
// RunWindow call (from any goroutine, provided calls are externally
// ordered) resumes it when its event fires. The parallel delivery engine
// (internal/machine) calls this once per conservative time window.
func (d *Driver) RunWindow(limit event.Time) bool {
	d.limit = limit
	return d.hub()
}

// --- kernel-side API ---------------------------------------------------------

// abandoned is the panic value that unwinds an abandoned kernel.
type abandoned struct{}

// rpc issues the operation and drives the event loop until this processor's
// response is ready. If an event resumes another processor, or driving
// stops, the kernel parks in the hub; the hub resumes it when its own
// resume event fires, with the response in resp.
func (p *Proc) rpc(r request) response {
	if p.abandon {
		panic(abandoned{})
	}
	p.issue(r)
	d := p.drv
	for !p.respReady {
		if d.next == nil && d.step() {
			continue
		}
		p.co.yield(struct{}{})
		if p.abandon {
			panic(abandoned{})
		}
		return p.resp
	}
	p.respReady = false
	return p.resp
}

// Read performs a load and returns the accessed word with its block's
// coherence token.
func (p *Proc) Read(a mem.Addr) Value {
	return p.rpc(request{kind: opRead, addr: a}).value
}

// Write performs a store of a fresh value token (Word = 0).
func (p *Proc) Write(a mem.Addr) {
	p.rpc(request{kind: opWrite, addr: a})
}

// WriteWord stores a fresh token carrying the given word (for flags).
func (p *Proc) WriteWord(a mem.Addr, w uint64) {
	p.rpc(request{kind: opWrite, addr: a, word: w})
}

// Swap atomically exchanges the block's word, returning the old word. It is
// a synchronization access: the write buffer drains first and marked blocks
// self-invalidate after.
func (p *Proc) Swap(a mem.Addr, w uint64) uint64 {
	return p.rpc(request{kind: opSwap, addr: a, word: w, sync: true}).old
}

// Compute advances the processor by the given number of cycles.
func (p *Proc) Compute(cycles int64) {
	if cycles < 0 {
		panic("cpu: negative compute")
	}
	if cycles == 0 {
		return
	}
	p.rpc(request{kind: opCompute, cycles: cycles})
}

// ComputeInstr charges instruction-count work at the 3-issue rate of the
// paper's SuperSPARC model.
func (p *Proc) ComputeInstr(instructions int64) {
	p.Compute((instructions + 2) / 3)
}

// ReadSync is Read with the stall charged to synchronization (spin loops).
func (p *Proc) ReadSync(a mem.Addr) Value {
	return p.rpc(request{kind: opRead, addr: a, sync: true}).value
}

// Lock acquires a spin lock with test&set plus exponential backoff. The
// acquire loop spins on the swap itself — not on a plain test read —
// because every swap is a synchronization access that self-invalidates
// marked blocks: a plain-read spin on a stale tear-off copy of the lock
// word would never observe the release (the forward-progress hazard §3.3
// of the paper describes).
func (p *Proc) Lock(a mem.Addr) {
	backoff := int64(8)
	for {
		if p.rpc(request{kind: opSwap, addr: a, word: 1, sync: true, noFlush: true}).old == 0 {
			p.rpc(request{kind: opFlush})
			return
		}
		p.rpc(request{kind: opCompute, cycles: backoff, sync: true})
		if backoff < p.SpinBackoffMax {
			backoff *= 2
		}
	}
}

// Unlock releases a lock. It is a synchronization access (the write buffer
// drains before the releasing store and marked blocks self-invalidate), so
// weak ordering holds for data protected by the lock.
func (p *Proc) Unlock(a mem.Addr) {
	p.rpc(request{kind: opUnlock, addr: a})
}

// Barrier joins the machine-wide hardware barrier.
func (p *Proc) Barrier() {
	p.rpc(request{kind: opBarrier})
}

// Assert aborts the kernel with a diagnostic if cond is false; the failure
// surfaces as a run error. Use it for one-off workload-level data-flow
// checks. Go boxes the arguments before every call, whether or not cond
// fails, and a word of 256 or more costs a heap allocation, so a check that
// runs once per loop iteration guards a Failf instead:
//
//	if v.Word != want {
//		p.Failf("block %d word %d, want %d", b, v.Word, want)
//	}
//
//dsi:coldpath
func (p *Proc) Assert(cond bool, format string, args ...any) {
	if !cond {
		p.Failf(format, args...)
	}
}

// Failf aborts the kernel with a diagnostic; the failure surfaces as a run
// error, worded as an Assert failure.
//
//dsi:coldpath
func (p *Proc) Failf(format string, args ...any) {
	panic(fmt.Sprintf("proc %d assertion failed: %s", p.id, fmt.Sprintf(format, args...)))
}

// --- driver side -------------------------------------------------------------

// Bind attaches the processor to the run's driver. The machine binds every
// processor before starting kernels; a pooled processor is re-bound each
// run.
func (p *Proc) Bind(d *Driver) {
	p.drv = d
	p.respReady = false
}

// Start attaches an idle coroutine to run the kernel and schedules the
// processor's start event at the current simulation time. The kernel's
// first instruction runs when the hub resumes it for that event.
func (p *Proc) Start(k Kernel) {
	if p.co != nil {
		panic("cpu: Start of a processor whose kernel is still live")
	}
	p.kernel = k
	p.co = acquireCoro(p)
	p.resp = response{}
	p.q.AfterCall(0, resumeProc, p)
}

// Abandon unwinds a kernel that never halted — one parked in a deadlock, at
// an expired budget, or never started — and returns its coroutine to the
// idle list. The kernel's pending operation panics with a private value its
// coroutine recovers; any operation the kernel's deferred code issues panics
// the same way, so nothing is scheduled. The processor keeps Done() ==
// false and no Err. Abandon is a no-op for a processor with no live kernel.
func (p *Proc) Abandon() {
	if p.co == nil {
		return
	}
	p.abandon = true
	p.co.next()
	p.abandon = false
	p.detach()
}

// detach returns the processor's now idle coroutine to the idle list and
// drops the kernel, so a pooled machine retains no program.
func (p *Proc) detach() {
	releaseCoro(p.co)
	p.co = nil
	p.kernel = nil
}

// runKernel is one coroutine job: run the kernel, then mark the processor
// halted. A kernel panic becomes the processor's error; the abandon panic
// (or anything else raised while abandoning) only unwinds.
func (p *Proc) runKernel() {
	if p.abandon {
		return
	}
	func() {
		defer func() {
			if r := recover(); r != nil && !p.abandon {
				p.err = fmt.Errorf("%v", r)
			}
		}()
		p.kernel(p)
	}()
	if p.abandon {
		return
	}
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: opNames[opHalt]})
	}
	p.done = true
	p.halt = p.q.Now()
}

// resumeProc is the static typed-event action every operation completion
// funnels through. A resume of the running kernel just flags its response
// ready; a resume of any other processor records it for the hub.
//
//dsi:hotpath
func resumeProc(arg any) {
	p := arg.(*Proc)
	d := p.drv
	if d.cur == p {
		p.respReady = true
		return
	}
	d.next = p
}

// issue starts executing the kernel's operation at the current simulated
// time. Runs in the kernel's coroutine — the same stream position a central
// loop would issue from.
func (p *Proc) issue(r request) {
	if p.OnOp != nil {
		p.OnOp(TraceOp{Kind: opNames[r.kind], Addr: r.addr, Word: r.word, Cycles: r.cycles, Sync: r.sync})
	}
	p.r = r
	p.start = p.q.Now()
	switch r.kind {
	case opCompute:
		cat := stats.Compute
		if r.sync {
			cat = stats.Sync
		}
		p.brk.Add(cat, r.cycles)
		p.resp = response{}
		p.q.AfterCall(event.Time(r.cycles), resumeProc, p)
	case opRead:
		p.cc.Read(r.addr, p.contRead)
	case opWrite:
		p.cc.Write(r.addr, p.token(r.word), p.contWrite)
	case opSwap:
		p.cc.DrainWB(p.contSwapDrained)
	case opUnlock:
		p.cc.DrainWB(p.contUnlockDrained)
	case opFlush:
		p.flushThen(p.contFlushFinish)
	case opBarrier:
		p.cc.DrainWB(p.contBarrierDrained)
	case opHalt:
		panic("cpu: halt is not an issued operation")
	}
}

// finish charges one issue cycle, replies to the kernel, and continues.
func (p *Proc) finish(resp response) {
	p.brk.Add(stats.Compute, 1)
	p.resp = resp
	p.q.AfterCall(1, resumeProc, p)
}

// finishResp finishes with the response parked across a flush.
func (p *Proc) finishResp() { p.finish(p.pending) }

// onFlushFinish completes a standalone flush request.
func (p *Proc) onFlushFinish() { p.finish(response{}) }

func (p *Proc) chargeRead(start event.Time, res *proto.Result, sync bool) {
	stall := int64(res.Done - start)
	switch {
	case sync:
		p.brk.Add(stats.Sync, stall)
	case res.WBRead:
		p.brk.Add(stats.ReadWB, stall)
	default:
		inv := int64(res.InvWait)
		if inv > stall {
			inv = stall
		}
		p.brk.Add(stats.ReadInval, inv)
		p.brk.Add(stats.ReadOther, stall-inv)
	}
}

// onRead completes a load (contRead).
func (p *Proc) onRead(res *proto.Result) {
	p.chargeRead(p.start, res, p.r.sync)
	p.finish(response{value: loaded(res.Value, p.r.addr)})
}

// loaded projects block contents onto the kernel-visible Value.
func loaded(v mem.Value, a mem.Addr) Value {
	return Value{Writer: v.Writer, Seq: v.Seq, Word: v.WordAt(a)}
}

func (p *Proc) token(word uint64) proto.Store {
	p.seq++
	return proto.Store{Writer: p.id, Seq: p.seq, Word: word}
}

// onWrite completes a store (contWrite).
func (p *Proc) onWrite(res *proto.Result) {
	stall := int64(res.Done - p.start)
	switch {
	case p.r.sync:
		p.brk.Add(stats.Sync, stall)
	default:
		full := int64(res.WBFullWait)
		if full > stall {
			full = stall
		}
		inv := int64(res.InvWait)
		if inv > stall-full {
			inv = stall - full
		}
		p.brk.Add(stats.WBFull, full)
		p.brk.Add(stats.WriteInval, inv)
		p.brk.Add(stats.WriteOther, stall-full-inv)
	}
	p.finish(response{})
}

// onSwapDrained continues a swap once the write buffer has drained — the
// full synchronization-access sequence is drain, swap, self-invalidate.
func (p *Proc) onSwapDrained() {
	drained := p.q.Now()
	p.brk.Add(stats.SyncWB, int64(drained-p.start))
	p.drained = drained
	p.cc.Swap(p.r.addr, p.r.word, p.token(p.r.word), p.contSwap)
}

// onSwap completes the swap access and runs the trailing flush (contSwap).
func (p *Proc) onSwap(res *proto.Result) {
	if p.r.sync {
		p.brk.Add(stats.Sync, int64(res.Done-p.drained))
	} else {
		inv := int64(res.InvWait)
		stall := int64(res.Done - p.drained)
		if inv > stall {
			inv = stall
		}
		p.brk.Add(stats.WriteInval, inv)
		p.brk.Add(stats.WriteOther, stall-inv)
	}
	p.pending = response{old: res.OldWord, value: loaded(res.Value, p.r.addr)}
	if p.r.noFlush {
		p.finishResp()
	} else {
		p.flushThen(p.contFinishResp)
	}
}

// onUnlockDrained issues the releasing store once the buffer has drained.
func (p *Proc) onUnlockDrained() {
	drained := p.q.Now()
	p.brk.Add(stats.SyncWB, int64(drained-p.start))
	p.drained = drained
	p.cc.Write(p.r.addr, p.token(0), p.contUnlockWrite)
}

// onUnlockWrite completes the releasing store and flushes (contUnlockWrite).
func (p *Proc) onUnlockWrite(res *proto.Result) {
	p.brk.Add(stats.Sync, int64(res.Done-p.drained))
	p.flushThen(p.contFlushFinish)
}

// onBarrierDrained flushes marked blocks before joining the barrier.
func (p *Proc) onBarrierDrained() {
	drained := p.q.Now()
	p.brk.Add(stats.SyncWB, int64(drained-p.start))
	p.flushThen(p.contBarrierFlushed)
}

// onBarrierFlushed parks the processor at the hardware barrier.
func (p *Proc) onBarrierFlushed() {
	p.arrived = p.q.Now()
	p.barrier.Arrive(p.contBarrierReleased)
}

// onBarrierReleased charges the barrier wait and resumes the kernel.
func (p *Proc) onBarrierReleased() {
	p.brk.Add(stats.Sync, int64(p.q.Now()-p.arrived))
	p.finish(response{})
}

// flushThen runs the DSI self-invalidation flush and charges its latency.
func (p *Proc) flushThen(cont func()) {
	p.flushStart = p.q.Now()
	p.flushNext = cont
	p.cc.SyncFlush(p.contFlushed)
}

// onFlushed charges the flush stall and continues (contFlushed).
func (p *Proc) onFlushed(res *proto.Result) {
	p.brk.Add(stats.DSIStall, int64(res.Done-p.flushStart))
	next := p.flushNext
	p.flushNext = nil
	next()
}

// --- hardware barrier ---------------------------------------------------------

// Barrier is the machine-wide hardware barrier: all processors are released
// a fixed latency after the last arrival (100 cycles in the paper).
type Barrier struct {
	q       *event.Queue
	n       int
	latency event.Time
	waiting []func()
	// Episodes counts completed barrier episodes.
	Episodes int64
	// OnRelease, if set, runs at each release time with the episode number
	// (1-based). The machine uses it to end workload warm-up: statistics
	// are snapshotted when the declared number of initialization barriers
	// has completed.
	OnRelease func(episode int64)

	// Collect, if set, turns this barrier into the local port of an external
	// machine-wide barrier: every arrival is handed to the coordinator
	// instead of being tallied here, and the coordinator schedules the
	// release continuations itself. The parallel delivery engine installs
	// one collecting barrier per partition; Episodes, Waiting, and OnRelease
	// are then owned by the coordinator and stay unused on this instance.
	Collect func(at event.Time, cont func())
}

// NewBarrier builds a barrier for n processors.
func NewBarrier(q *event.Queue, n int, latency event.Time) *Barrier {
	return &Barrier{q: q, n: n, latency: latency}
}

// Arrive registers a processor; cont runs at release time.
func (b *Barrier) Arrive(cont func()) {
	if b.Collect != nil {
		b.Collect(b.q.Now(), cont)
		return
	}
	b.waiting = append(b.waiting, cont)
	if len(b.waiting) < b.n {
		return
	}
	ws := b.waiting
	// Keep the backing array: re-arrivals append only after the release
	// events run, so the next episode reuses it allocation-free.
	b.waiting = b.waiting[:0]
	b.Episodes++
	ep := b.Episodes
	release := b.q.Now() + b.latency
	if hook := b.OnRelease; hook != nil {
		b.q.At(release, func() { hook(ep) })
	}
	for _, w := range ws {
		b.q.At(release, w)
	}
}

// Waiting returns how many processors are currently parked at the barrier.
func (b *Barrier) Waiting() int { return len(b.waiting) }

// Reset clears all barrier state (parked processors, the episode counter,
// the release hook) and installs a new latency, for machine reuse.
func (b *Barrier) Reset(latency event.Time) {
	clear(b.waiting)
	b.waiting = b.waiting[:0]
	b.Episodes = 0
	b.OnRelease = nil
	b.Collect = nil
	b.latency = latency
}

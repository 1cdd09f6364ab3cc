// Package event provides the deterministic discrete-event kernel that drives
// the simulator. Events are ordered by (time, insertion sequence), so two
// runs that schedule the same events in the same order produce identical
// executions regardless of map iteration order or goroutine scheduling.
//
// The queue is two-tier. An event due fewer than horizon cycles from now goes
// into a timing wheel with one FIFO bucket per cycle; a one-bit-per-bucket
// occupancy bitmap finds the next non-empty bucket, so push and pop are O(1)
// with no comparisons. Within one time, insertion sequence is insertion
// order, so a FIFO bucket is already in (time, seq) order. Events due later
// wait in an overflow 4-ary min-heap keyed by (time, seq) and move into the
// wheel, in heap order, the moment the clock comes within horizon of them —
// before anything else can be scheduled directly at their time — so the two
// tiers together pop in exactly the single-heap total order.
//
// Event bodies (fn/act/arg) live in a stable side pool addressed by slot:
// wheel buckets are circular lists linked through the pool's slots, and the
// heap holds only the 16-byte (time, seq) ordering keys plus a 4-byte slot
// index. No container/heap, no interface boxing, no per-event allocation.
// Callers on hot paths use the typed path (AtCall/AfterCall), which
// dispatches a static Action with a caller-pooled argument instead of a fresh
// closure; the closure path (At/After) remains for cold call sites. Both
// paths share one (time, seq) total order, so mixing them cannot perturb
// determinism.
package event

import "math/bits"

// Time is a simulated clock value in processor cycles.
type Time int64

// Func is an event body. It runs exactly once, at the time it was scheduled
// for, with the Queue's clock already advanced to that time.
type Func func()

// Action is a typed event body: a static function invoked with the argument
// it was scheduled with. Schedule pointer-shaped arguments (pointers, funcs)
// — they store into the payload pool without allocating, which is the point;
// pooled records let steady-state simulation schedule without any allocation.
type Action func(arg any)

// horizon is the timing wheel's span in cycles, one bucket per cycle: an
// event due fewer than horizon cycles after the clock goes into the wheel,
// a later one into the overflow heap. It covers the hardened protocol's
// default retry timeout (proto.DefaultRetry: 8·100+512 = 1312 cycles at the
// default latency), so under fault injection the retry timers, which cannot
// be cancelled and mostly fire stale, stay out of the heap too. 2048 is the
// smallest power of two that does; its bucket tails take 8 KB per queue
// (DESIGN §5 records the variants measured).
const horizon = 2048

// wheelMask maps a time to its wheel bucket.
const wheelMask = horizon - 1

// key is the ordering lane of one overflow-heap entry: exactly the 16 bytes
// the heap compares. The payload lives in the side pool (see Queue.pays).
type key struct {
	at  Time
	seq uint64
}

// payload is the dispatch lane of one pending event. Exactly one of fn/act
// is set. Payloads never move while pending: the heap and the wheel refer to
// them by slot index.
type payload struct {
	fn  Func
	act Action
	arg any
}

// Stats counts kernel activity for observability (reported per run through
// internal/stats and cmd/dsibench -benchjson).
type Stats struct {
	Executed  uint64 // events run
	Scheduled uint64 // events enqueued
	Typed     uint64 // events through AtCall/AfterCall (closure allocs avoided)
	PeakLen   int    // maximum pending events observed
}

// Queue is a discrete-event scheduler. The zero value is ready to use with
// the clock at time 0.
type Queue struct {
	now Time
	seq uint64

	// The wheel holds every pending event due before now+horizon, so each
	// bucket b holds events of exactly one time (≡ b mod horizon). tail[b]
	// is 1 + the payload slot of the bucket's last event, 0 when it is
	// empty. Each bucket is a circular list through links, where
	// links[s] is the slot after s, so the tail's successor is its head.
	// occ has one bit per non-empty bucket and occSum one bit per non-zero
	// occ word. tail is allocated on first use.
	tail   []int32
	links  []int32
	occ    [horizon / 64]uint64
	occSum uint64
	wheelN int

	// The overflow heap, split structure-of-arrays: keys[i]/slots[i]
	// describe one pending event due at or after now+horizon, ordered as a
	// 4-ary min-heap over (at, seq). pays[slot] is the body of every pending
	// event, and links grows with it; freeSlots recycles the slots of
	// executed events.
	keys      []key
	slots     []int32
	pays      []payload
	freeSlots []int32

	ran   uint64
	typed uint64
	peak  int
}

// Now returns the current simulated time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.wheelN + len(q.keys) }

// Executed returns the total number of events that have run.
func (q *Queue) Executed() uint64 { return q.ran }

// LastSeq returns the insertion sequence of the most recently scheduled
// event. Two events are adjacent in the execution order if they share a time
// and were assigned consecutive sequences with none in between — the
// condition internal/netsim uses to chain same-(time, dst) deliveries onto
// one pending event without reordering anything.
func (q *Queue) LastSeq() uint64 { return q.seq }

// NextAt returns the time of the earliest pending event. ok is false when
// the queue is empty.
//
//dsi:hotpath
func (q *Queue) NextAt() (t Time, ok bool) {
	if q.wheelN > 0 {
		return q.bucketTime(q.nextBucket()), true
	}
	if len(q.keys) > 0 {
		return q.keys[0].at, true
	}
	return 0, false
}

// Stats returns a snapshot of the kernel counters.
func (q *Queue) Stats() Stats {
	return Stats{Executed: q.ran, Scheduled: q.seq, Typed: q.typed, PeakLen: q.peak}
}

// Reset returns the queue to its zero state (clock 0, empty wheel and heap,
// counters cleared) while keeping every lane's capacity, so a pooled machine
// reused across experiments starts from a clean ordering state.
func (q *Queue) Reset() {
	clear(q.pays) // drop fn/arg references so recycled queues don't pin them
	clear(q.tail)
	q.occ, q.occSum, q.wheelN = [horizon / 64]uint64{}, 0, 0
	q.keys = q.keys[:0]
	q.slots = q.slots[:0]
	q.pays = q.pays[:0]
	q.links = q.links[:0]
	q.freeSlots = q.freeSlots[:0]
	q.now, q.seq, q.ran, q.typed, q.peak = 0, 0, 0, 0, 0
}

// schedule enqueues a body for time t: into the wheel when t is within the
// horizon, otherwise into the overflow heap. The sequence number is the FIFO
// tiebreaker for same-time events; if it ever wrapped, ordering between runs
// would diverge silently, so wraparound is a hard stop.
//
//dsi:hotpath
func (q *Queue) schedule(t Time, fn Func, act Action, arg any) {
	if t < q.now {
		panic("event: scheduled in the past")
	}
	q.seq++
	if q.seq == 0 {
		panic("event: sequence counter wrapped; Reset the queue between runs")
	}
	s := q.alloc(fn, act, arg)
	if t-q.now < horizon {
		q.link(t, s)
	} else {
		q.push(key{at: t, seq: q.seq}, s)
	}
	if n := q.Len(); n > q.peak {
		q.peak = n
	}
}

// alloc places a payload in the side pool and returns its slot.
//
//dsi:hotpath
func (q *Queue) alloc(fn Func, act Action, arg any) int32 {
	if n := len(q.freeSlots); n > 0 {
		s := q.freeSlots[n-1]
		q.freeSlots = q.freeSlots[:n-1]
		q.pays[s] = payload{fn: fn, act: act, arg: arg}
		return s
	}
	q.pays = append(q.pays, payload{fn: fn, act: act, arg: arg})
	q.links = append(q.links, 0)
	return int32(len(q.pays) - 1)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a protocol timing bug, not a recoverable condition.
func (q *Queue) At(t Time, fn Func) {
	q.schedule(t, fn, nil, nil)
}

// After schedules fn to run d cycles from now.
func (q *Queue) After(d Time, fn Func) {
	if d < 0 {
		panic("event: negative delay")
	}
	q.At(q.now+d, fn)
}

// AtCall schedules act(arg) at absolute time t. This is the allocation-free
// path: act is a static function and arg is typically a pooled record, so
// nothing escapes per event.
//
//dsi:hotpath
func (q *Queue) AtCall(t Time, act Action, arg any) {
	q.typed++
	q.schedule(t, nil, act, arg)
}

// AfterCall schedules act(arg) d cycles from now (typed path).
//
//dsi:hotpath
func (q *Queue) AfterCall(d Time, act Action, arg any) {
	if d < 0 {
		panic("event: negative delay")
	}
	q.AtCall(q.now+d, act, arg)
}

// Step runs the single earliest pending event, advancing the clock to its
// time. It reports whether an event ran.
//
//dsi:hotpath
func (q *Queue) Step() bool {
	if q.wheelN == 0 {
		if len(q.keys) == 0 {
			return false
		}
		q.advance(q.keys[0].at)
	}
	b := q.nextBucket()
	if at := q.bucketTime(b); at != q.now {
		q.advance(at)
	}
	s := q.unlink(b)
	q.ran++
	// Copy the body and release the slot before dispatch: the event may
	// schedule (and the slot be reused) while it runs.
	p := q.pays[s]
	q.pays[s] = payload{}
	q.freeSlots = append(q.freeSlots, s)
	if p.fn != nil {
		p.fn()
	} else {
		p.act(p.arg)
	}
	return true
}

// Run executes events until the queue drains, returning the final time.
func (q *Queue) Run() Time {
	for q.Step() {
	}
	return q.now
}

// RunUntil executes events with time ≤ limit. Events scheduled beyond the
// limit remain queued. It reports whether the queue drained.
func (q *Queue) RunUntil(limit Time) bool {
	for {
		t, ok := q.NextAt()
		if !ok {
			return true
		}
		if t > limit {
			return false
		}
		q.Step()
	}
}

// RunSteps executes at most n events; it reports how many ran. Useful as a
// watchdog in tests that must terminate even if a protocol livelocks.
func (q *Queue) RunSteps(n uint64) uint64 {
	var i uint64
	for ; i < n; i++ {
		if !q.Step() {
			break
		}
	}
	return i
}

// --- timing wheel ------------------------------------------------------------

// advance moves the clock to t and migrates every overflow event now within
// the horizon into the wheel. The heap pops in (time, seq) order and every
// migrated event was scheduled before any event that can be linked directly
// at its time (that needs the clock within the horizon, which is only now
// reached), so appending to bucket tails keeps each bucket in seq order.
//
//dsi:hotpath
func (q *Queue) advance(t Time) {
	q.now = t
	for len(q.keys) > 0 && q.keys[0].at-t < horizon {
		at, s := q.pop()
		q.link(at, s)
	}
}

// bucketTime returns the time of the events in bucket b: the one time in
// [now, now+horizon) that maps to b.
//
//dsi:hotpath
func (q *Queue) bucketTime(b int) Time {
	return q.now + (Time(b)-q.now)&wheelMask
}

// nextBucket returns the earliest non-empty bucket: the first set occupancy
// bit at or after the clock's bucket, wrapping around the ring. The wheel
// must not be empty.
//
//dsi:hotpath
func (q *Queue) nextBucket() int {
	p := int(q.now & wheelMask)
	w := p >> 6
	if m := q.occ[w] >> (p & 63); m != 0 {
		return p + bits.TrailingZeros64(m)
	}
	// Later words first; failing those, the ring wraps to its lowest word
	// (which may be w itself, below p).
	sum := q.occSum &^ (2<<w - 1)
	if sum == 0 {
		sum = q.occSum
	}
	w = bits.TrailingZeros64(sum)
	return w<<6 + bits.TrailingZeros64(q.occ[w])
}

// link appends slot s to the bucket of time t.
//
//dsi:hotpath
func (q *Queue) link(t Time, s int32) {
	if q.tail == nil {
		q.tail = make([]int32, horizon)
	}
	b := int(t & wheelMask)
	if last := q.tail[b] - 1; last < 0 {
		q.links[s] = s
		q.occ[b>>6] |= 1 << (b & 63)
		q.occSum |= 1 << (b >> 6)
	} else {
		q.links[s] = q.links[last]
		q.links[last] = s
	}
	q.tail[b] = s + 1
	q.wheelN++
}

// unlink removes and returns the head slot of non-empty bucket b.
//
//dsi:hotpath
func (q *Queue) unlink(b int) int32 {
	last := q.tail[b] - 1
	h := q.links[last]
	if h == last {
		q.tail[b] = 0
		w := b >> 6
		q.occ[w] &^= 1 << (b & 63)
		if q.occ[w] == 0 {
			q.occSum &^= 1 << w
		}
	} else {
		q.links[last] = q.links[h]
	}
	q.wheelN--
	return h
}

// --- overflow 4-ary min-heap -------------------------------------------------
//
// A 4-ary layout halves the tree depth of the binary heap, trading slightly
// wider sift-down scans for fewer cache-missing levels — the classic d-ary
// tradeoff, and a consistent win for the simulator's push/pop-dominated
// access pattern. Ordering is the same (time, seq) total order the binary
// heap used; since it is total (seq is unique), heap shape cannot affect
// pop order and results stay bit-exact. The keys/slots lanes move together;
// payloads stay put. Only events due beyond the wheel's horizon live here,
// and they leave only by migration into the wheel (Queue.advance).

// before reports whether a orders strictly before b.
func before(a, b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

//dsi:hotpath
func (q *Queue) push(k key, s int32) {
	q.keys = append(q.keys, k)
	q.slots = append(q.slots, s)
	// Sift up: move the hole toward the root until the parent orders first.
	ks, sl := q.keys, q.slots
	i := len(ks) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !before(k, ks[p]) {
			break
		}
		ks[i], sl[i] = ks[p], sl[p]
		i = p
	}
	ks[i], sl[i] = k, s
}

// pop removes the minimum, returning its time and payload slot.
//
//dsi:hotpath
func (q *Queue) pop() (Time, int32) {
	ks, sl := q.keys, q.slots
	at := ks[0].at
	s := sl[0]
	n := len(ks) - 1
	lastK, lastS := ks[n], sl[n]
	q.keys, q.slots = ks[:n], sl[:n]
	if n > 0 {
		q.siftDown(lastK, lastS)
	}
	return at, s
}

// siftDown re-inserts the (k, s) pair starting from the root of the shrunken
// heap.
//
//dsi:hotpath
func (q *Queue) siftDown(k key, s int32) {
	ks, sl := q.keys, q.slots
	n := len(ks)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Select the least of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(ks[j], ks[m]) {
				m = j
			}
		}
		if !before(ks[m], k) {
			break
		}
		ks[i], sl[i] = ks[m], sl[m]
		i = m
	}
	ks[i], sl[i] = k, s
}

// Server models a resource that serves one item at a time (a cache
// controller, a directory controller, a network interface). Admit returns
// the interval during which the resource processes a request admitted now:
// requests queue FIFO behind whatever the server is already committed to.
type Server struct {
	freeAt Time
	busy   Time // total occupied cycles, for utilization stats
}

// Admit reserves the server for dur cycles starting no earlier than now,
// returning the start and completion times of the reservation.
//
//dsi:hotpath
func (s *Server) Admit(now Time, dur Time) (start, done Time) {
	if dur < 0 {
		panic("event: negative occupancy")
	}
	start = now
	if s.freeAt > start {
		start = s.freeAt
	}
	done = start + dur
	s.freeAt = done
	s.busy += dur
	return start, done
}

// FreeAt returns the earliest time a new admission could start service.
func (s *Server) FreeAt() Time { return s.freeAt }

// Reset returns the server to idle at time 0, for machine reuse.
func (s *Server) Reset() { s.freeAt, s.busy = 0, 0 }

// Busy returns the cumulative cycles the server has been occupied.
func (s *Server) Busy() Time { return s.busy }

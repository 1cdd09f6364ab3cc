package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFIFOWithinSameTime(t *testing.T) {
	var q Queue
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(5, func() { order = append(order, i) })
	}
	q.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (same-time events must run in insertion order)", i, v, i)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	var q Queue
	var order []Time
	for _, at := range []Time{30, 10, 20, 10, 0} {
		at := at
		q.At(at, func() { order = append(order, at) })
	}
	end := q.Run()
	want := []Time{0, 10, 10, 20, 30}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if end != 30 {
		t.Fatalf("final time = %d, want 30", end)
	}
}

func TestClockAdvancesDuringEvent(t *testing.T) {
	var q Queue
	var seen Time
	q.At(7, func() { seen = q.Now() })
	q.Run()
	if seen != 7 {
		t.Fatalf("Now() inside event = %d, want 7", seen)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var q Queue
	var hit Time
	q.At(10, func() {
		q.After(5, func() { hit = q.Now() })
	})
	q.Run()
	if hit != 15 {
		t.Fatalf("After fired at %d, want 15", hit)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var q Queue
	q.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		q.At(5, func() {})
	})
	q.Run()
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	var q Queue
	ran := 0
	q.At(5, func() { ran++ })
	q.At(10, func() { ran++ })
	q.At(15, func() { ran++ })
	if drained := q.RunUntil(10); drained {
		t.Fatal("RunUntil(10) reported drained with an event at 15 pending")
	}
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if q.Len() != 1 {
		t.Fatalf("pending = %d, want 1", q.Len())
	}
}

func TestRunStepsWatchdog(t *testing.T) {
	var q Queue
	// A self-perpetuating event chain must be stoppable.
	var rearm func()
	rearm = func() { q.After(1, rearm) }
	q.After(1, rearm)
	if n := q.RunSteps(100); n != 100 {
		t.Fatalf("RunSteps = %d, want 100", n)
	}
}

func TestServerSerializes(t *testing.T) {
	var s Server
	start, done := s.Admit(0, 3)
	if start != 0 || done != 3 {
		t.Fatalf("first admit = (%d,%d), want (0,3)", start, done)
	}
	// Admitted while busy: queues behind.
	start, done = s.Admit(1, 4)
	if start != 3 || done != 7 {
		t.Fatalf("second admit = (%d,%d), want (3,7)", start, done)
	}
	// Admitted after idle gap: starts immediately.
	start, done = s.Admit(100, 2)
	if start != 100 || done != 102 {
		t.Fatalf("third admit = (%d,%d), want (100,102)", start, done)
	}
	if s.Busy() != 9 {
		t.Fatalf("busy = %d, want 9", s.Busy())
	}
}

func TestServerZeroOccupancy(t *testing.T) {
	var s Server
	s.Admit(0, 5)
	start, done := s.Admit(0, 0)
	if start != 5 || done != 5 {
		t.Fatalf("zero-occupancy admit = (%d,%d), want (5,5)", start, done)
	}
}

// Property: for any admission sequence, service intervals never overlap and
// respect both arrival order and arrival times.
func TestServerNoOverlapProperty(t *testing.T) {
	f := func(arrivals []uint8, durs []uint8) bool {
		var s Server
		now := Time(0)
		prevDone := Time(0)
		n := len(arrivals)
		if len(durs) < n {
			n = len(durs)
		}
		for i := 0; i < n; i++ {
			now += Time(arrivals[i] % 16)
			d := Time(durs[i] % 8)
			start, done := s.Admit(now, d)
			if start < now || start < prevDone || done != start+d {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypedPathInterleavesWithClosures(t *testing.T) {
	var q Queue
	var order []int
	push := func(arg any) { order = append(order, *arg.(*int)) }
	vals := [4]int{0, 1, 2, 3}
	q.At(5, func() { order = append(order, vals[0]) })
	q.AtCall(5, push, &vals[1])
	q.At(5, func() { order = append(order, vals[2]) })
	q.AtCall(5, push, &vals[3])
	q.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want [0 1 2 3] (typed and closure events share one FIFO order)", order)
		}
	}
}

func TestAfterCallSchedulesRelative(t *testing.T) {
	var q Queue
	var hit Time
	q.AtCall(10, func(arg any) {
		arg.(*Queue).AfterCall(5, func(any) { hit = q.Now() }, nil)
	}, &q)
	q.Run()
	if hit != 15 {
		t.Fatalf("AfterCall fired at %d, want 15", hit)
	}
}

func TestStatsCounters(t *testing.T) {
	var q Queue
	q.At(1, func() {})
	q.AtCall(2, func(any) {}, nil)
	q.AtCall(3, func(any) {}, nil)
	if s := q.Stats(); s.PeakLen != 3 {
		t.Fatalf("PeakLen = %d, want 3", s.PeakLen)
	}
	q.Run()
	s := q.Stats()
	if s.Executed != 3 || s.Scheduled != 3 || s.Typed != 2 {
		t.Fatalf("Stats = %+v, want Executed=3 Scheduled=3 Typed=2", s)
	}
}

func TestReset(t *testing.T) {
	var q Queue
	q.At(1, func() {})
	q.At(2, func() { t.Error("event survived Reset") })
	q.Step()
	q.Reset()
	if q.Now() != 0 || q.Len() != 0 {
		t.Fatalf("after Reset: now=%d len=%d, want 0, 0", q.Now(), q.Len())
	}
	if s := q.Stats(); s != (Stats{}) {
		t.Fatalf("after Reset: Stats = %+v, want zero", s)
	}
	// The queue must be fully reusable with fresh ordering state.
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		q.At(5, func() { order = append(order, i) })
	}
	q.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("post-Reset order = %v, want insertion order", order)
		}
	}
}

func TestSeqWraparoundPanics(t *testing.T) {
	var q Queue
	q.seq = ^uint64(0) // next increment wraps to 0
	defer func() {
		if recover() == nil {
			t.Error("sequence wraparound did not panic")
		}
	}()
	q.At(1, func() {})
}

// fuzzDelay picks a schedule offset from now that exercises both tiers:
// short delays (the common wheel case), the horizon edges, anything up to
// three horizons, and points on a coarse absolute grid, so that events at one
// time are scheduled both while it is beyond the horizon (overflow heap, then
// migration) and once it is within it (direct wheel insert).
func fuzzDelay(rng *rand.Rand, now Time) Time {
	switch rng.Intn(5) {
	case 0:
		return Time(rng.Intn(50))
	case 1:
		return horizon - 1 + Time(rng.Intn(3))
	case 2:
		return Time(rng.Intn(3*horizon + 1))
	default:
		const grid = horizon / 4
		return (now/grid+1+Time(rng.Intn(12)))*grid - now
	}
}

// TestHeapOrderingFuzz drives the queue with random interleavings of
// schedules, steps and RunUntil calls, including schedules made by running
// events, and checks every pop sequence against a reference sort by (time,
// seq). Delays span three wheel horizons, so events move between the wheel
// and the overflow heap; NextAt is checked against the reference minimum
// before every RunUntil. One queue serves all trials and every other trial
// ends with events (overflow ones included) still pending, so Reset must
// discard them: a stale event that ran later would report the wrong trial.
// The public ordering properties below can't distinguish a correct queue from
// one that works only for monotone schedules.
func TestHeapOrderingFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type rec struct {
		trial    int
		at       Time
		seq      int
		overflow bool // scheduled at least horizon ahead
	}
	var q Queue
	var current, overflowOnlyPeeks, mixedTimes int
	for trial := 0; trial < 300; trial++ {
		q.Reset()
		current = trial
		var scheduled, popped []rec
		pending := map[int]Time{}
		n := 0
		var schedule func()
		schedule = func() {
			at := q.Now() + fuzzDelay(rng, q.Now())
			r := rec{trial, at, n, at-q.Now() >= horizon}
			n++
			scheduled = append(scheduled, r)
			pending[r.seq] = at
			q.At(at, func() {
				if r.trial != current {
					t.Fatalf("trial %d ran an event of trial %d (survived Reset)", current, r.trial)
				}
				if q.Now() != r.at {
					t.Fatalf("trial %d: event for %d ran at %d", trial, r.at, q.Now())
				}
				popped = append(popped, r)
				delete(pending, r.seq)
				if n < 800 && rng.Intn(4) == 0 {
					schedule()
				}
			})
		}
		for op := 0; op < 400; op++ {
			switch {
			case q.Len() > 0 && rng.Intn(3) == 0:
				q.Step() // pops the minimum and runs its closure
			case q.Len() > 0 && rng.Intn(8) == 0:
				want, found := Time(-1), false
				for _, at := range pending {
					if !found || at < want {
						want, found = at, true
					}
				}
				if got, ok := q.NextAt(); !ok || got != want {
					t.Fatalf("trial %d: NextAt = (%d, %v), reference minimum %d", trial, got, ok, want)
				}
				if q.wheelN == 0 {
					overflowOnlyPeeks++
				}
				limit := q.Now() + fuzzDelay(rng, q.Now())
				if drained := q.RunUntil(limit); drained != (q.Len() == 0) {
					t.Fatalf("trial %d: RunUntil(%d) = %v with %d pending", trial, limit, drained, q.Len())
				}
				if at, ok := q.NextAt(); ok && at <= limit {
					t.Fatalf("trial %d: RunUntil(%d) left an event at %d", trial, limit, at)
				}
			default:
				schedule()
			}
		}
		if trial%2 == 0 {
			q.Run()
			if _, ok := q.NextAt(); ok || q.Len() != 0 {
				t.Fatalf("trial %d: queue not empty after Run", trial)
			}
		}
		sort.Slice(scheduled, func(i, j int) bool {
			if scheduled[i].at != scheduled[j].at {
				return scheduled[i].at < scheduled[j].at
			}
			return scheduled[i].seq < scheduled[j].seq
		})
		if len(popped)+q.Len() != len(scheduled) {
			t.Fatalf("trial %d: popped %d + pending %d of %d events",
				trial, len(popped), q.Len(), len(scheduled))
		}
		for i := range popped {
			if popped[i] != scheduled[i] {
				t.Fatalf("trial %d: pop %d = %+v, reference sort has %+v",
					trial, i, popped[i], scheduled[i])
			}
		}
		paths := map[Time][2]bool{}
		for _, r := range popped {
			p := paths[r.at]
			if r.overflow {
				p[0] = true
			} else {
				p[1] = true
			}
			paths[r.at] = p
		}
		for _, p := range paths {
			if p[0] && p[1] {
				mixedTimes++
			}
		}
	}
	// The fuzz must actually reach the cases it exists for.
	if overflowOnlyPeeks == 0 || mixedTimes == 0 {
		t.Fatalf("coverage: %d NextAt peeks with only overflow events pending, %d times reached by both migration and direct insert",
			overflowOnlyPeeks, mixedTimes)
	}
}

// TestHeapSoAPayloadIntegrityFuzz targets the structure-of-arrays split: the
// heap lanes (keys/slots) move during sifts while payload bodies stay put in
// the side pool and slots are recycled across pops. Each scheduled event
// carries a unique payload identity, mixing typed and closure bodies; every
// pop must surface the body that was scheduled with its key, and the pool
// must not grow beyond the peak number of pending events (slot recycling).
func TestHeapSoAPayloadIntegrityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var q Queue
		type rec struct {
			at    Time
			seq   int
			typed bool
		}
		var scheduled, popped []rec
		ids := make([]rec, 0, 600)
		popID := func(arg any) { popped = append(popped, *arg.(*rec)) }
		n := 0
		for op := 0; op < 600; op++ {
			if q.Len() > 0 && rng.Intn(3) == 0 {
				q.Step()
				continue
			}
			at := q.Now() + Time(rng.Intn(40))
			r := rec{at: at, seq: n, typed: rng.Intn(2) == 0}
			n++
			scheduled = append(scheduled, r)
			ids = append(ids, r)
			id := &ids[len(ids)-1]
			if r.typed {
				q.AtCall(at, popID, id)
			} else {
				q.At(at, func() { popped = append(popped, *id) })
			}
		}
		peak := q.Stats().PeakLen
		if got := len(q.pays); got > peak {
			t.Fatalf("trial %d: payload pool has %d slots for peak %d pending (slots not recycled)",
				trial, got, peak)
		}
		q.Run()
		sort.Slice(scheduled, func(i, j int) bool {
			if scheduled[i].at != scheduled[j].at {
				return scheduled[i].at < scheduled[j].at
			}
			return scheduled[i].seq < scheduled[j].seq
		})
		if len(popped) != len(scheduled) {
			t.Fatalf("trial %d: popped %d of %d events", trial, len(popped), len(scheduled))
		}
		for i := range scheduled {
			if popped[i] != scheduled[i] {
				t.Fatalf("trial %d: pop %d delivered payload %+v, key order says %+v",
					trial, i, popped[i], scheduled[i])
			}
		}
	}
}

// TestNextAtAndLastSeq pins the accessors the batching and parallel layers
// build on: NextAt peeks the earliest pending time without running anything,
// and LastSeq advances exactly once per scheduled event.
func TestNextAtAndLastSeq(t *testing.T) {
	var q Queue
	if _, ok := q.NextAt(); ok {
		t.Fatal("NextAt on empty queue reported an event")
	}
	s0 := q.LastSeq()
	q.At(9, func() {})
	q.At(4, func() {})
	if q.LastSeq() != s0+2 {
		t.Fatalf("LastSeq = %d after two schedules from %d", q.LastSeq(), s0)
	}
	if at, ok := q.NextAt(); !ok || at != 4 {
		t.Fatalf("NextAt = (%d, %v), want (4, true)", at, ok)
	}
	q.Step()
	if at, ok := q.NextAt(); !ok || at != 9 {
		t.Fatalf("NextAt after one step = (%d, %v), want (9, true)", at, ok)
	}
}

// Property: events run in nondecreasing time order, and same-time events run
// in insertion order. The first half of the input is scheduled up front, the
// rest by the events as they run; delays reach three wheel horizons and hit
// its edges, so same-time events arrive both through the overflow heap and
// directly into the wheel.
func TestQueueOrderingProperty(t *testing.T) {
	delay := func(v uint16, now Time) Time {
		switch v % 4 {
		case 0:
			return Time(v>>2) % 32
		case 1:
			return horizon - 1 + Time(v>>2)%3
		case 2:
			return Time(v>>2) % (3*horizon + 1)
		default: // a coarse absolute grid: frequent same-time arrivals
			const grid = horizon / 4
			return (now/grid+1+Time(v>>2)%12)*grid - now
		}
	}
	f := func(delays []uint16) bool {
		var q Queue
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		seq := 0
		var schedule func(i int)
		schedule = func(i int) {
			r := rec{q.Now() + delay(delays[i], q.Now()), seq}
			seq++
			q.At(r.at, func() {
				got = append(got, r)
				if j := len(delays)/2 + len(got) - 1; j < len(delays) {
					schedule(j)
				}
			})
		}
		for i := 0; i < len(delays)/2; i++ {
			schedule(i)
		}
		q.Run()
		if len(got) != seq {
			return false
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

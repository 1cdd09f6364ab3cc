package netsim

import (
	"testing"
	"testing/quick"

	"dsisim/internal/event"
	"dsisim/internal/mem"
)

func newNet(t *testing.T, nodes int, lat event.Time) (*event.Queue, *Network, *[]Message) {
	t.Helper()
	q := &event.Queue{}
	n := New(q, Config{Nodes: nodes, Latency: lat})
	var got []Message
	for i := 0; i < nodes; i++ {
		n.SetHandler(i, func(m Message) { got = append(got, m) })
	}
	return q, n, &got
}

func TestDeliveryTiming(t *testing.T) {
	q, n, got := newNet(t, 2, 100)
	var at event.Time
	q.At(0, func() {
		at = n.Send(Message{Kind: GetS, Src: 0, Dst: 1, Addr: 32})
	})
	q.Run()
	// 3 cycles injection + 100 latency.
	if at != 103 {
		t.Fatalf("arrival = %d, want 103", at)
	}
	if len(*got) != 1 || (*got)[0].Kind != GetS {
		t.Fatalf("delivered = %v", *got)
	}
}

func TestDataMessagePaysBlockInjection(t *testing.T) {
	q, n, _ := newNet(t, 2, 100)
	var at event.Time
	q.At(0, func() {
		at = n.Send(Message{Kind: DataX, Src: 0, Dst: 1, Addr: 32})
	})
	q.Run()
	if at != 111 { // 3+8 + 100
		t.Fatalf("arrival = %d, want 111", at)
	}
}

func TestInjectionSerializesPerNI(t *testing.T) {
	q, n, got := newNet(t, 3, 100)
	var a1, a2 event.Time
	q.At(0, func() {
		a1 = n.Send(Message{Kind: GetS, Src: 0, Dst: 1, Addr: 32})
		a2 = n.Send(Message{Kind: GetS, Src: 0, Dst: 2, Addr: 64})
	})
	q.Run()
	if a1 != 103 || a2 != 106 {
		t.Fatalf("arrivals = %d,%d; want 103,106 (second queued behind first injection)", a1, a2)
	}
	if len(*got) != 2 {
		t.Fatalf("delivered %d messages", len(*got))
	}
}

func TestDistinctNIsDoNotContend(t *testing.T) {
	q, n, _ := newNet(t, 3, 100)
	var a1, a2 event.Time
	q.At(0, func() {
		a1 = n.Send(Message{Kind: GetS, Src: 0, Dst: 2, Addr: 32})
		a2 = n.Send(Message{Kind: GetS, Src: 1, Dst: 2, Addr: 64})
	})
	q.Run()
	if a1 != 103 || a2 != 103 {
		t.Fatalf("arrivals = %d,%d; want both 103", a1, a2)
	}
}

func TestLocalMessageBypassesNetwork(t *testing.T) {
	q, n, got := newNet(t, 2, 100)
	var at event.Time
	q.At(10, func() {
		at = n.Send(Message{Kind: GetX, Src: 1, Dst: 1, Addr: 32})
	})
	q.Run()
	if at != 10+LocalDelay {
		t.Fatalf("local arrival = %d, want %d", at, 10+LocalDelay)
	}
	if n.Counts().Total() != 0 {
		t.Fatal("local message counted as network traffic")
	}
	if len(*got) != 1 {
		t.Fatal("local message not delivered")
	}
}

func TestPairwiseFIFO(t *testing.T) {
	q, n, got := newNet(t, 2, 50)
	q.At(0, func() {
		n.Send(Message{Kind: WB, Src: 0, Dst: 1, Addr: 32})     // data: 11 cycles
		n.Send(Message{Kind: InvAck, Src: 0, Dst: 1, Addr: 64}) // 3 cycles, queued behind
	})
	q.Run()
	if len(*got) != 2 || (*got)[0].Kind != WB || (*got)[1].Kind != InvAck {
		t.Fatalf("delivery order broke FIFO: %v", *got)
	}
}

func TestCounts(t *testing.T) {
	q, n, _ := newNet(t, 2, 10)
	q.At(0, func() {
		n.Send(Message{Kind: Inv, Src: 0, Dst: 1})
		n.Send(Message{Kind: InvAck, Src: 1, Dst: 0})
		n.Send(Message{Kind: DataS, Src: 0, Dst: 1})
	})
	q.Run()
	c := n.Counts()
	if c.Total() != 3 {
		t.Fatalf("total = %d, want 3", c.Total())
	}
	if c.Invalidation() != 2 {
		t.Fatalf("invalidation = %d, want 2", c.Invalidation())
	}
	d := c.Sub(Counts{})
	if d.Total() != 3 {
		t.Fatal("Sub identity broken")
	}
}

func TestKindClassification(t *testing.T) {
	dataKinds := map[Kind]bool{InvAckData: true, RecallAck: true, DataS: true, DataX: true, WB: true, SInvWB: true}
	invKinds := map[Kind]bool{Inv: true, InvAck: true, InvAckData: true, Recall: true, RecallAck: true}
	for k := Kind(0); k < NumKinds; k++ {
		if k.HasData() != dataKinds[k] {
			t.Errorf("%v HasData = %v", k, k.HasData())
		}
		if k.IsInvalidation() != invKinds[k] {
			t.Errorf("%v IsInvalidation = %v", k, k.IsInvalidation())
		}
		if k.String() == "" {
			t.Errorf("kind %d unnamed", int(k))
		}
	}
}

func TestInFlightDrains(t *testing.T) {
	q, n, _ := newNet(t, 4, 100)
	q.At(0, func() {
		for i := 0; i < 10; i++ {
			n.Send(Message{Kind: GetS, Src: 0, Dst: 1 + i%3, Addr: mem.Addr(32 * i)})
		}
		if n.InFlight() != 10 {
			t.Errorf("in-flight = %d, want 10", n.InFlight())
		}
	})
	q.Run()
	if n.InFlight() != 0 {
		t.Fatalf("in-flight after drain = %d", n.InFlight())
	}
}

func TestMissingHandlerPanics(t *testing.T) {
	q := &event.Queue{}
	n := New(q, Config{Nodes: 2, Latency: 10})
	n.SetHandler(0, func(Message) {})
	q.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("send to handlerless node did not panic")
			}
		}()
		n.Send(Message{Kind: GetS, Src: 0, Dst: 1})
	})
	q.Run()
}

// Property: for any burst of same-source same-destination messages, delivery
// preserves send order (pairwise FIFO), regardless of kinds.
func TestPairwiseFIFOProperty(t *testing.T) {
	f := func(kinds []uint8) bool {
		if len(kinds) > 40 {
			kinds = kinds[:40]
		}
		q := &event.Queue{}
		n := New(q, Config{Nodes: 2, Latency: 7})
		var got []int
		n.SetHandler(1, func(m Message) { got = append(got, int(m.Ver)) })
		n.SetHandler(0, func(Message) {})
		q.At(0, func() {
			for i, kb := range kinds {
				k := Kind(int(kb) % int(NumKinds))
				n.Send(Message{Kind: k, Src: 0, Dst: 1, Ver: uint8(i)})
			}
		})
		q.Run()
		if len(got) != len(kinds) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedLocalBurst pins the delivery-chaining fast path: back-to-back
// local sends to one destination within a single event share an arrival time
// and consecutive sequences, so they coalesce onto one queued event — and
// still deliver in send order at the right time.
func TestBatchedLocalBurst(t *testing.T) {
	q, n, got := newNet(t, 2, 100)
	q.At(0, func() {
		for i := 0; i < 5; i++ {
			n.Send(Message{Kind: SInvNotify, Src: 0, Dst: 0, Ver: uint8(i)})
		}
	})
	q.Run()
	if len(*got) != 5 {
		t.Fatalf("delivered %d of 5", len(*got))
	}
	for i, m := range *got {
		if int(m.Ver) != i {
			t.Fatalf("delivery %d carries Ver %d (order broken)", i, m.Ver)
		}
	}
	if n.Batched() != 4 {
		t.Fatalf("Batched = %d, want 4 (one queued event, four chained)", n.Batched())
	}
	if n.InFlight() != 0 {
		t.Fatalf("inflight = %d after drain", n.InFlight())
	}
}

// TestBatchingRequiresAdjacency: a foreign event scheduled between two
// same-(time, dst) sends makes them non-adjacent in execution order, so the
// second must NOT chain onto the first — global order would change.
func TestBatchingRequiresAdjacency(t *testing.T) {
	q, n, _ := newNet(t, 2, 100)
	var order []string
	n.SetHandler(0, func(m Message) { order = append(order, "msg") })
	q.At(0, func() {
		n.Send(Message{Kind: SInvNotify, Src: 0, Dst: 0})
		q.At(1, func() { order = append(order, "between") })
		n.Send(Message{Kind: SInvNotify, Src: 0, Dst: 0})
	})
	q.Run()
	if n.Batched() != 0 {
		t.Fatalf("Batched = %d, want 0 (an event was scheduled in between)", n.Batched())
	}
	want := []string{"msg", "between", "msg"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestBatchingDifferentDestinationsNotChained: same arrival time, different
// destination must keep separate heap entries.
func TestBatchingDifferentDestinationsNotChained(t *testing.T) {
	q, n, got := newNet(t, 3, 100)
	q.At(0, func() {
		n.Send(Message{Kind: SInvNotify, Src: 0, Dst: 0})
		n.Send(Message{Kind: SInvNotify, Src: 1, Dst: 1})
	})
	q.Run()
	if n.Batched() != 0 {
		t.Fatalf("Batched = %d, want 0 (destinations differ)", n.Batched())
	}
	if len(*got) != 2 {
		t.Fatalf("delivered %d of 2", len(*got))
	}
}

// BenchmarkBatchDelivery measures the burst-delivery path the chaining
// optimization targets: each iteration schedules a burst of local
// notifications (the self-invalidation pattern at synchronization points)
// and drains them. The batch rides one queued event instead of eight.
func BenchmarkBatchDelivery(b *testing.B) {
	q := &event.Queue{}
	n := New(q, Config{Nodes: 1, Latency: 100})
	sink := 0
	n.SetHandler(0, func(m Message) { sink++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.At(q.Now(), func() {
			for j := 0; j < 8; j++ {
				n.Send(Message{Kind: SInvNotify, Src: 0, Dst: 0})
			}
		})
		q.Run()
	}
	if sink != 8*b.N {
		b.Fatalf("delivered %d, want %d", sink, 8*b.N)
	}
}

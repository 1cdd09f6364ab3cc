package check

import (
	"strings"
	"testing"

	"dsisim/internal/cache"
	"dsisim/internal/directory"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/proto"
)

// build wires a quiesced 3-node system whose state the tests then corrupt.
func build(t *testing.T) ([]*proto.CacheCtrl, []*proto.DirCtrl) {
	t.Helper()
	q := &event.Queue{}
	layout := mem.NewLayout(3)
	net := netsim.New(q, netsim.Config{Nodes: 3, Latency: 10})
	env := &proto.Env{Q: q, Net: net, Layout: layout, CheckFail: func(string, ...any) {}}
	var ccs []*proto.CacheCtrl
	var dcs []*proto.DirCtrl
	for i := 0; i < 3; i++ {
		cc := proto.NewCacheCtrl(env, i, proto.Config{}, cache.Config{SizeBytes: 16 * mem.BlockSize, Assoc: 4})
		dc := proto.NewDirCtrl(env, i, proto.Config{})
		net.SetHandler(i, func(m netsim.Message) {
			switch m.Kind {
			case netsim.Inv, netsim.Recall, netsim.DataS, netsim.DataX, netsim.AckX, netsim.FinalAck:
				cc.Handle(&m)
			default:
				dc.Handle(&m)
			}
		})
		ccs = append(ccs, cc)
		dcs = append(dcs, dc)
	}
	// Legitimate traffic: node 0 reads a block homed at node 1, node 2
	// writes another.
	q.At(0, func() { ccs[0].Read(mem.Addr(1*mem.BlockSize), func(*proto.Result) {}) })
	q.At(0, func() {
		ccs[2].Write(mem.Addr(2*mem.BlockSize), proto.Store{Writer: 2, Seq: 1}, func(*proto.Result) {})
	})
	q.Run()
	return ccs, dcs
}

func TestAuditCleanSystem(t *testing.T) {
	ccs, dcs := build(t)
	if errs := Audit(ccs, dcs, 0); len(errs) != 0 {
		t.Fatalf("clean system failed audit: %v", errs)
	}
}

func TestAuditRejectsInFlight(t *testing.T) {
	ccs, dcs := build(t)
	if errs := Audit(ccs, dcs, 3); len(errs) == 0 {
		t.Fatal("audit accepted a non-quiesced system")
	}
}

func expectViolation(t *testing.T, ccs []*proto.CacheCtrl, dcs []*proto.DirCtrl, substr string) {
	t.Helper()
	errs := Audit(ccs, dcs, 0)
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return
		}
	}
	t.Fatalf("audit missed violation %q; got %v", substr, errs)
}

func TestAuditDetectsPhantomSharer(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(1 * mem.BlockSize)
	e, _ := dcs[1].Dir().Peek(a)
	e.Sharers = e.Sharers.Add(2) // node 2 holds nothing
	expectViolation(t, ccs, dcs, "tracked copies")
}

func TestAuditDetectsUntrackedCopy(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(1 * mem.BlockSize)
	// Node 2 conjures a copy the directory does not know about.
	ccs[2].Cache().Install(a, cache.Fill{State: cache.Shared})
	expectViolation(t, ccs, dcs, "tracked copies")
}

func TestAuditDetectsDoubleWriter(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(2 * mem.BlockSize)
	ccs[0].Cache().Install(a, cache.Fill{State: cache.Exclusive})
	expectViolation(t, ccs, dcs, "multiple writers")
}

func TestAuditDetectsStaleSharedValue(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(1 * mem.BlockSize)
	f, ok := ccs[0].Cache().Peek(a)
	if !ok {
		t.Fatal("setup: node 0 lost its copy")
	}
	f.Data.Seq = 999
	expectViolation(t, ccs, dcs, "differs from memory")
}

func TestAuditDetectsWritableTearOff(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(2 * mem.BlockSize)
	// The legitimate owner's copy becomes (illegally) tear-off.
	f, ok := ccs[2].Cache().Peek(a)
	if !ok {
		t.Fatal("setup: owner lost its copy")
	}
	f.TearOff = true
	expectViolation(t, ccs, dcs, "writable tear-off")
}

func TestAuditDetectsIdleWithCopies(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(2 * mem.BlockSize)
	e, _ := dcs[2].Dir().Peek(a)
	e.State = directory.Idle
	expectViolation(t, ccs, dcs, "tracked copies")
}

func TestAuditDetectsWrongOwner(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(2 * mem.BlockSize)
	e, _ := dcs[2].Dir().Peek(a)
	e.Owner = 1
	expectViolation(t, ccs, dcs, "owner")
}

func TestAuditIgnoresTearOffStaleness(t *testing.T) {
	ccs, dcs := build(t)
	a := mem.Addr(1 * mem.BlockSize)
	// A stale untracked tear-off copy at node 2 is legal.
	ccs[2].Cache().Install(a, cache.Fill{State: cache.Shared, SI: true, TearOff: true,
		Data: mem.Value{Writer: 9, Seq: 9}})
	if errs := Audit(ccs, dcs, 0); len(errs) != 0 {
		t.Fatalf("legal tear-off staleness flagged: %v", errs)
	}
}

func TestCrossCheckOutcomes(t *testing.T) {
	if err := CrossCheckOutcomes("block", []uint64{1, 2, 3}, []uint64{1, 2, 3}); err != nil {
		t.Fatalf("matching outcomes flagged: %v", err)
	}
	err := CrossCheckOutcomes("block", []uint64{1, 9, 3}, []uint64{1, 2, 3})
	if err == nil {
		t.Fatal("mismatch not flagged")
	}
	if !strings.Contains(err.Error(), "block 1") {
		t.Fatalf("mismatch error does not name the slot: %v", err)
	}
	if err := CrossCheckOutcomes("block", []uint64{1}, []uint64{1, 2}); err == nil {
		t.Fatal("length mismatch not flagged")
	}
}

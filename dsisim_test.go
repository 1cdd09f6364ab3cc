package dsisim

import (
	"errors"
	"strings"
	"testing"
)

func testCfg(wl string, p Protocol) Config {
	return Config{Workload: wl, Protocol: p, Processors: 8, Scale: ScaleTest}
}

func TestRunAllProtocolsOnAllWorkloads(t *testing.T) {
	for _, wl := range Workloads() {
		for _, p := range Protocols() {
			res, err := Run(testCfg(wl, p))
			if err != nil {
				t.Fatalf("%s/%s: %v", wl, p, err)
			}
			if res.ExecTime <= 0 {
				t.Fatalf("%s/%s: exec time %d", wl, p, res.ExecTime)
			}
		}
	}
}

// TestWorkloadsAcrossProcessorCounts runs every workload at test scale under V
// on processor counts from 1 to 64, non-powers of two included. At 32 and 64
// processors the 16-row ocean test grid gives some processors no rows at all.
func TestWorkloadsAcrossProcessorCounts(t *testing.T) {
	for _, wl := range Workloads() {
		for _, n := range []int{1, 2, 3, 5, 8, 16, 32, 64} {
			cfg := Config{Workload: wl, Protocol: V, Processors: n, Scale: ScaleTest}
			res, err := Run(cfg)
			if err != nil {
				t.Errorf("%s/%dp: %v", wl, n, err)
				continue
			}
			if res.ExecTime <= 0 {
				t.Errorf("%s/%dp: exec time %d", wl, n, res.ExecTime)
			}
		}
	}
}

func TestUnknownProtocol(t *testing.T) {
	if _, err := Run(testCfg("em3d", Protocol("bogus"))); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestBadMachineConfigRefused pins that machine parameters describing no
// machine come back from Run and RunProgram as ErrBadConfig instead of
// panicking inside machine assembly, and that the smallest legal cache
// still runs.
func TestBadMachineConfigRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		bad  bool
	}{
		{"negative processors", Config{Processors: -1}, true},
		{"too many processors", Config{Processors: 65}, true},
		{"cache not whole sets", Config{CacheBytes: 1000}, true},
		{"3-way default cache", Config{CacheAssoc: 3}, true},
		{"negative latency", Config{NetworkLatency: -5}, true},
		{"one direct-mapped block", Config{CacheBytes: BlockSize, CacheAssoc: 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workload, cfg.Scale, cfg.Protocol = "em3d", ScaleTest, V
			if cfg.Processors == 0 {
				cfg.Processors = 4
			}
			_, err := Run(cfg)
			_, perr := RunProgram(cfg, &pingPong{})
			if tc.bad {
				for _, e := range []error{err, perr} {
					if !errors.Is(e, ErrBadConfig) {
						t.Errorf("error %v, want ErrBadConfig", e)
					}
				}
				return
			}
			if err != nil || perr != nil {
				t.Fatalf("valid config refused: Run %v, RunProgram %v", err, perr)
			}
		})
	}
	// The cached path refuses too: a bad config never reaches the machine
	// and, failing, is never stored.
	cfg := testCfg("em3d", V)
	cfg.CacheAssoc, cfg.Cache = 3, NewResultCache(1<<20)
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("cached run: error %v, want ErrBadConfig", err)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Run(testCfg("bogus", SC)); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestPaperWorkloadsAreRegistered(t *testing.T) {
	all := strings.Join(Workloads(), " ")
	for _, w := range PaperWorkloads() {
		if !strings.Contains(all, w) {
			t.Fatalf("paper workload %s missing from %s", w, all)
		}
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	res, err := Run(Config{Workload: "prodcons", Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	// 32 processors by default.
	if len(res.PerProc) != 32 {
		t.Fatalf("default processors = %d, want 32", len(res.PerProc))
	}
}

func TestRunProgramCustom(t *testing.T) {
	prog := &pingPong{}
	res, err := RunProgram(Config{Protocol: V, Processors: 2}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Barriers == 0 {
		t.Fatal("custom program ran no barriers")
	}
}

// pingPong is a minimal custom Program exercising the public API surface.
type pingPong struct {
	data Region
}

func (p *pingPong) Name() string        { return "pingpong" }
func (p *pingPong) WarmupBarriers() int { return 0 }
func (p *pingPong) Setup(m *Machine) {
	p.data = m.Layout().AllocInterleaved("pp", BlockSize)
}
func (p *pingPong) Kernel(pr *Proc) {
	for i := 0; i < 4; i++ {
		if i%2 == pr.ID() {
			pr.WriteWord(p.data.Addr(0), uint64(i+1))
		}
		pr.Barrier()
		v := pr.Read(p.data.Addr(0))
		pr.Assert(v.Word == uint64(i+1), "round %d word %d", i, v.Word)
		pr.Barrier()
	}
}

// The headline claims, checked at test scale so `go test` stays fast; the
// full-scale numbers live in EXPERIMENTS.md and the benchmarks.
func TestDSIReducesInvalidationTrafficOnSparse(t *testing.T) {
	sc, err := Run(Config{Workload: "sparse", Protocol: SC, Processors: 16, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Run(Config{Workload: "sparse", Protocol: V, Processors: 16, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if v.Messages.Invalidation() >= sc.Messages.Invalidation() {
		t.Fatalf("V did not reduce invalidations: %d vs %d",
			v.Messages.Invalidation(), sc.Messages.Invalidation())
	}
	if v.ExecTime >= sc.ExecTime {
		t.Fatalf("V did not speed up sparse: %d vs %d", v.ExecTime, sc.ExecTime)
	}
}

func TestTearOffEliminatesMessages(t *testing.T) {
	w, err := Run(Config{Workload: "sparse", Protocol: W, Processors: 16, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	wdsi, err := Run(Config{Workload: "sparse", Protocol: WDSI, Processors: 16, Scale: ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if wdsi.Messages.Total() >= w.Messages.Total() {
		t.Fatalf("tear-off did not cut traffic: %d vs %d", wdsi.Messages.Total(), w.Messages.Total())
	}
}

func TestResultsAreDeterministic(t *testing.T) {
	a, err := Run(testCfg("barnes", WDSI))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testCfg("barnes", WDSI))
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime || a.Messages != b.Messages {
		t.Fatal("same config, different results")
	}
}

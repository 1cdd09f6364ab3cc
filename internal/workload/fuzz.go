package workload

// The seeded random-litmus fuzzer. GenLitmus derives a small random program
// — read/write/lock-increment interleavings over a handful of blocks,
// rounds separated by barriers — deterministically from one seed. RunLitmus
// executes the spec on a real machine under a chosen protocol and fault
// plan; the kernel asserts every read against the reference model's allowed
// value set, the machine's quiesce-time check.Audit validates the coherence
// metadata, and check.CrossCheckOutcomes compares the observed final memory
// against the reference interleaving's prediction. Fuzz drives the whole
// protocol × fault-plan matrix over N generated programs, and on failure
// minimizes the spec by greedy op-deletion and persists a replayable JSON
// spec to disk ("Mending Fences" shows self-invalidation bugs are exactly
// the kind only this style of randomized litmus exploration finds).
//
// The reference model is deliberately conservative about weak consistency:
// a read of a block written in the same round (by any processor, writes are
// unique per round×block by construction) may observe either the round's
// previous value or its new value; a read of a block not written this round
// must observe the last value published by an earlier barrier. These are
// exactly the guarantees every simulated protocol — SC, WC's write buffer,
// tear-off self-invalidation, versions/states DSI — must preserve.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"dsisim/internal/check"
	"dsisim/internal/core"
	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
	"dsisim/internal/obs"
	"dsisim/internal/proto"
	"dsisim/internal/rng"
)

// LitmusKind is a litmus operation kind.
type LitmusKind int

const (
	// LitmusRead reads a block and asserts the reference model's allowed set.
	LitmusRead LitmusKind = iota
	// LitmusWrite writes a unique value to a block (at most one writer per
	// block per round, so outcomes stay predictable under weak models).
	LitmusWrite
	// LitmusLockInc increments the shared counter under the global lock.
	LitmusLockInc
)

// String returns the op-kind name.
func (k LitmusKind) String() string {
	switch k {
	case LitmusRead:
		return "read"
	case LitmusWrite:
		return "write"
	case LitmusLockInc:
		return "lockinc"
	}
	return fmt.Sprintf("LitmusKind(%d)", int(k))
}

// LitmusOp is one operation of a litmus program.
type LitmusOp struct {
	Proc  int        `json:"proc"`
	Round int        `json:"round"`
	Kind  LitmusKind `json:"kind"`
	Block int        `json:"block"` // unused for lockinc
	Value uint64     `json:"value"` // writes only: the unique value stored
}

// LitmusSpec is a replayable litmus program: the seed it was generated from
// plus the explicit op list (so minimized specs survive generator changes).
type LitmusSpec struct {
	Seed   uint64     `json:"seed"`
	Procs  int        `json:"procs"`
	Blocks int        `json:"blocks"`
	Rounds int        `json:"rounds"`
	Ops    []LitmusOp `json:"ops"`
}

// GenLitmus derives a litmus program from a seed: 2–4 processors, 2–5
// blocks, 1–3 barrier-separated rounds, up to 4 ops per processor per
// round, with at most one write per (round, block) and globally unique
// write values.
func GenLitmus(seed uint64) *LitmusSpec {
	r := rng.New(seed)
	s := &LitmusSpec{
		Seed:   seed,
		Procs:  2 + r.Intn(3),
		Blocks: 2 + r.Intn(4),
		Rounds: 1 + r.Intn(3),
	}
	nextVal := uint64(1)
	written := make([]bool, s.Blocks)
	for t := 0; t < s.Rounds; t++ {
		for b := range written {
			written[b] = false
		}
		for q := 0; q < s.Procs; q++ {
			nops := r.Intn(5)
			for i := 0; i < nops; i++ {
				op := LitmusOp{Proc: q, Round: t}
				switch r.Intn(4) {
				case 0:
					op.Kind = LitmusLockInc
				case 1:
					op.Kind = LitmusWrite
					op.Block = r.Intn(s.Blocks)
					if written[op.Block] {
						op.Kind = LitmusRead // block already has this round's writer
					} else {
						written[op.Block] = true
						op.Value = nextVal
						nextVal++
					}
				default:
					op.Kind = LitmusRead
					op.Block = r.Intn(s.Blocks)
				}
				s.Ops = append(s.Ops, op)
			}
		}
	}
	return s
}

// litmusOutcome is the reference model's prediction for a spec: the final
// value of every block, the final counter, and the allowed value set for
// every read op (indexed by the op's position in Spec.Ops).
type litmusOutcome struct {
	final   []uint64    // blocks then counter
	allowed [][2]uint64 // indexed by op position in Spec.Ops; {low, high} for read ops
}

// referenceOutcome executes the spec on the sequentially-consistent
// reference interleaving (program order within a round, rounds in order,
// all of a round's writes published by its barrier).
func referenceOutcome(s *LitmusSpec) litmusOutcome {
	out := litmusOutcome{
		final:   make([]uint64, s.Blocks+1),
		allowed: make([][2]uint64, len(s.Ops)),
	}
	cur := make([]uint64, s.Blocks)     // value published by the last barrier
	prev := make([]uint64, s.Blocks)    // value before this round's write
	roundNew := make([]int64, s.Blocks) // this round's written value, -1 = none
	var counter uint64
	for t := 0; t < s.Rounds; t++ {
		for b := 0; b < s.Blocks; b++ {
			prev[b] = cur[b]
			roundNew[b] = -1
		}
		// Pass 1: the round's writes. Processors run concurrently within a
		// round, so a read races with the round's write regardless of where
		// the two ops sit in the spec's op list.
		for i := range s.Ops {
			op := &s.Ops[i]
			if op.Round != t {
				continue
			}
			switch op.Kind {
			case LitmusWrite:
				roundNew[op.Block] = int64(op.Value)
				cur[op.Block] = op.Value
			case LitmusLockInc:
				counter++
			case LitmusRead:
				// Reads are resolved in pass 2.
			}
		}
		// Pass 2: the round's reads, against the full write set.
		for i := range s.Ops {
			op := &s.Ops[i]
			if op.Round != t || op.Kind != LitmusRead {
				continue
			}
			if nv := roundNew[op.Block]; nv >= 0 {
				// Racing with this round's write: either value is legal.
				out.allowed[i] = [2]uint64{prev[op.Block], uint64(nv)}
			} else {
				out.allowed[i] = [2]uint64{prev[op.Block], prev[op.Block]}
			}
		}
	}
	copy(out.final, cur)
	out.final[s.Blocks] = counter
	return out
}

// litmusProgram runs a LitmusSpec as a machine.Program.
type litmusProgram struct {
	spec *LitmusSpec
	ref  litmusOutcome

	data Array
	ctr  Array
	lk   Locks

	perProc [][]int  // proc -> indices into spec.Ops, program order
	got     []uint64 // observed finals, written by proc 0 after the last barrier

	// breakWrites is the test canary: drop all writes to block 0 while the
	// reference model keeps them, so the outcome cross-check must fire.
	breakWrites bool
}

func newLitmusProgram(s *LitmusSpec) *litmusProgram {
	prog := &litmusProgram{
		spec:    s,
		ref:     referenceOutcome(s),
		perProc: make([][]int, s.Procs),
		got:     make([]uint64, s.Blocks+1),
	}
	for i := range s.Ops {
		q := s.Ops[i].Proc
		prog.perProc[q] = append(prog.perProc[q], i)
	}
	// Hand-written (loaded) specs may list ops out of round order; the
	// kernel replays each processor's ops round by round.
	for q := range prog.perProc {
		idx := prog.perProc[q]
		sort.SliceStable(idx, func(a, b int) bool { return s.Ops[idx[a]].Round < s.Ops[idx[b]].Round })
	}
	return prog
}

// Name implements Program.
func (w *litmusProgram) Name() string { return fmt.Sprintf("litmus-%x", w.spec.Seed) }

// WarmupBarriers implements Program: litmus programs measure nothing, so
// everything is "measured" (statistics are irrelevant here).
func (w *litmusProgram) WarmupBarriers() int { return 0 }

// Setup implements Program.
func (w *litmusProgram) Setup(m *machine.Machine) {
	w.data = NewArrayInterleaved(m.Layout(), "litmus.data", w.spec.Blocks*4)
	w.ctr = NewArrayInterleaved(m.Layout(), "litmus.ctr", 4)
	w.lk = NewLocks(m.Layout(), "litmus.lock", 1)
}

// Kernel implements Program. The per-op dispatch loop is the fuzzer's
// simulation hot path: every generated program funnels through it under
// every protocol x fault-plan cell.
//
//dsi:hotpath
func (w *litmusProgram) Kernel(p *Proc) {
	ops := w.perProc[p.ID()]
	k := 0
	for t := 0; t < w.spec.Rounds; t++ {
		for ; k < len(ops) && w.spec.Ops[ops[k]].Round == t; k++ {
			i := ops[k]
			op := &w.spec.Ops[i]
			switch op.Kind {
			case LitmusWrite:
				if w.breakWrites && op.Block == 0 {
					break // canary: silently lose the write
				}
				p.WriteWord(w.data.At(op.Block*4), op.Value)
			case LitmusLockInc:
				p.Lock(w.lk.Addr(0))
				v := p.Read(w.ctr.At(0))
				p.WriteWord(w.ctr.At(0), v.Word+1)
				p.Unlock(w.lk.Addr(0))
			case LitmusRead:
				a := w.ref.allowed[i]
				v := p.Read(w.data.At(op.Block * 4))
				if v.Word != a[0] && v.Word != a[1] {
					p.Failf("litmus: op %d round %d block %d read %d, allowed {%d, %d}",
						i, t, op.Block, v.Word, a[0], a[1])
				}
			}
		}
		p.Barrier()
	}
	if p.ID() == 0 {
		for b := 0; b < w.spec.Blocks; b++ {
			w.got[b] = p.Read(w.data.At(b * 4)).Word
		}
		w.got[w.spec.Blocks] = p.Read(w.ctr.At(0)).Word
	}
}

// FuzzProtocol is one protocol under fuzz: a name plus the machine
// configuration fragment that selects it. (The experiments package has a
// richer Label type; it cannot be imported here without a cycle.)
type FuzzProtocol struct {
	Name        string
	Consistency proto.Consistency
	Policy      core.Policy
}

// FuzzProtocols returns the protocols every litmus program is run under:
// the base protocols and the three main DSI variants (ISSUE 7).
func FuzzProtocols() []FuzzProtocol {
	return []FuzzProtocol{
		{Name: "SC", Consistency: proto.SC},
		{Name: "W", Consistency: proto.WC},
		{Name: "S", Consistency: proto.SC,
			Policy: core.Policy{Identifier: core.States{}, UpgradeExemption: true}},
		{Name: "V", Consistency: proto.SC,
			Policy: core.Policy{Identifier: core.Versions{}, UpgradeExemption: true}},
		{Name: "W+DSI", Consistency: proto.WC,
			Policy: core.Policy{Identifier: core.Versions{}, TearOff: true}},
	}
}

// FuzzFaultPlan is one fault plan of the fuzz matrix. A nil Config means
// fault-free. Non-nil plans get a per-spec seed at run time so injected
// chaos is replayable from the spec alone.
type FuzzFaultPlan struct {
	Name   string
	Config *faultinj.Config
}

// FuzzFaultPlans returns the fault plans every litmus program is run under:
// clean, lossy (drop+dup+delay), and reorder-heavy delay.
func FuzzFaultPlans() []FuzzFaultPlan {
	return []FuzzFaultPlan{
		{Name: "none"},
		{Name: "lossy", Config: &faultinj.Config{Drop: 0.02, Dup: 0.01, Delay: 0.05}},
		{Name: "jitter", Config: &faultinj.Config{Delay: 0.2, Jitter: 64}},
	}
}

// runLitmus executes the spec under one protocol × fault-plan cell and
// returns the machine result plus the first failure: a kernel assert or
// audit error recorded in the result, or an outcome cross-check mismatch.
func runLitmus(prog *litmusProgram, pr FuzzProtocol, plan FuzzFaultPlan, sink *obs.Sink) (machine.Result, error) {
	cfg := machine.Config{
		Processors:  prog.spec.Procs,
		Consistency: pr.Consistency,
		Policy:      pr.Policy,
		Seed:        prog.spec.Seed | 1,
		Sink:        sink,
	}
	if plan.Config != nil {
		fc := *plan.Config
		fc.Seed = prog.spec.Seed ^ 0xfa17 // replayable per-spec fault stream
		cfg.Faults = &fc
	}
	res := machine.New(cfg).Run(prog)
	if res.Failed() {
		return res, fmt.Errorf("%s/%s: %s", pr.Name, plan.Name, res.Errors[0])
	}
	return res, check.CrossCheckOutcomes("block", prog.got, prog.ref.final)
}

// RunLitmus executes the spec under one protocol × fault-plan cell.
func RunLitmus(s *LitmusSpec, pr FuzzProtocol, plan FuzzFaultPlan) error {
	_, err := runLitmus(newLitmusProgram(s), pr, plan, nil)
	return err
}

// RunLitmusObserved is RunLitmus with a coherence-event sink attached, for
// consumers that need the run's event stream (the protomodel transition-
// coverage cross-check folds it against the static transition table).
func RunLitmusObserved(s *LitmusSpec, pr FuzzProtocol, plan FuzzFaultPlan, sink *obs.Sink) error {
	_, err := runLitmus(newLitmusProgram(s), pr, plan, sink)
	return err
}

// LitmusRun bundles the optional knobs of one litmus execution beyond the
// spec itself.
type LitmusRun struct {
	// Canary enables the broken-protocol write-dropping canary: the executed
	// kernel silently loses writes to block 0 while the reference model keeps
	// them, so the outcome cross-check must fail. It exists so detection
	// pipelines (the fuzzer's and the soak farm's) can prove, in tests, that
	// a real protocol bug would be caught, minimized, and persisted.
	Canary bool
	// Sink, if set, receives the run's coherence-event stream.
	Sink *obs.Sink
}

// RunLitmusOpts executes the spec under one protocol × fault-plan cell with
// the extra knobs of o, returning the kernel's event count and simulated
// cycles alongside the verdict. Both extras are deterministic per cell —
// the soak engine records them in its journal, where every byte must be
// reproducible across a kill/resume.
func RunLitmusOpts(s *LitmusSpec, pr FuzzProtocol, plan FuzzFaultPlan, o LitmusRun) (events uint64, cycles int64, err error) {
	prog := newLitmusProgram(s)
	prog.breakWrites = o.Canary
	res, err := runLitmus(prog, pr, plan, o.Sink)
	return res.Kernel.Events, int64(res.TotalTime), err
}

// MinimizeLitmus greedily deletes ops while fails still reports failure,
// iterating to a fixpoint: the returned spec fails, but removing any single
// op from it no longer does.
func MinimizeLitmus(s *LitmusSpec, fails func(*LitmusSpec) bool) *LitmusSpec {
	cur := *s
	cur.Ops = append([]LitmusOp(nil), s.Ops...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Ops); i++ {
			cand := cur
			cand.Ops = append(append([]LitmusOp(nil), cur.Ops[:i]...), cur.Ops[i+1:]...)
			if fails(&cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	return &cur
}

// MinimizeFaultConfig greedily shrinks a failing fault plan while fails
// still reports failure: scripted rules are dropped one at a time to a
// fixpoint, then each probabilistic knob (drop, dup, delay, the per-kind
// and per-link overrides) is zeroed if the failure survives without it.
// The returned config still fails, but removing any single rule — or any
// one remaining knob — no longer does. A nil config (fault-free cell)
// returns nil: there is nothing to shrink.
func MinimizeFaultConfig(fc *faultinj.Config, fails func(*faultinj.Config) bool) *faultinj.Config {
	if fc == nil {
		return nil
	}
	cur := *fc
	cur.Rules = append([]faultinj.Rule(nil), fc.Rules...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Rules); i++ {
			cand := cur
			cand.Rules = append(append([]faultinj.Rule(nil), cur.Rules[:i]...), cur.Rules[i+1:]...)
			if fails(&cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	try := func(mutate func(*faultinj.Config)) {
		cand := cur
		mutate(&cand)
		if fails(&cand) {
			cur = cand
		}
	}
	if cur.Drop != 0 {
		try(func(c *faultinj.Config) { c.Drop = 0 })
	}
	if cur.Dup != 0 {
		try(func(c *faultinj.Config) { c.Dup = 0 })
	}
	if cur.Delay != 0 {
		try(func(c *faultinj.Config) { c.Delay = 0 })
	}
	if cur.DropByKind != nil {
		try(func(c *faultinj.Config) { c.DropByKind = nil })
	}
	if cur.DropByLink != nil {
		try(func(c *faultinj.Config) { c.DropByLink = nil })
	}
	return &cur
}

// MinimizeLitmusFaults jointly shrinks a failing (spec, fault plan) pair to
// a replayable repro. Fault-plan rules are dropped before ops: a scripted
// rule counts occurrences of a message shape, so a superfluous rule can pin
// ops in place — deleting an op shifts the occurrence stream, the rule
// stops firing, the failure vanishes, and op-deletion keeps the op. With
// the noise rules gone first, op-deletion shrinks further (the minimizer
// test pins a case where rules-first finds a strictly smaller repro than
// op-deletion alone). The two passes alternate to a joint fixpoint. fc may
// be nil for a fault-free cell; the returned pair still fails.
func MinimizeLitmusFaults(s *LitmusSpec, fc *faultinj.Config, fails func(*LitmusSpec, *faultinj.Config) bool) (*LitmusSpec, *faultinj.Config) {
	curS := s
	curF := fc
	for changed := true; changed; {
		changed = false
		nf := MinimizeFaultConfig(curF, func(c *faultinj.Config) bool { return fails(curS, c) })
		if !reflect.DeepEqual(nf, curF) {
			curF = nf
			changed = true
		}
		ns := MinimizeLitmus(curS, func(c *LitmusSpec) bool { return fails(c, curF) })
		if len(ns.Ops) != len(curS.Ops) {
			changed = true
		}
		curS = ns
	}
	return curS, curF
}

// SaveLitmus persists a replayable spec as JSON.
func SaveLitmus(s *LitmusSpec, path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadLitmus reads a spec persisted by SaveLitmus.
func LoadLitmus(path string) (*LitmusSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := new(LitmusSpec)
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Procs < 1 || s.Blocks < 1 || s.Rounds < 1 {
		return nil, fmt.Errorf("%s: spec needs at least one proc, block, and round", path)
	}
	for i, op := range s.Ops {
		if op.Proc < 0 || op.Proc >= s.Procs || op.Round < 0 || op.Round >= s.Rounds ||
			op.Block < 0 || op.Block >= s.Blocks {
			return nil, fmt.Errorf("%s: op %d out of range", path, i)
		}
	}
	return s, nil
}

// FuzzFailure records one failing protocol × fault-plan cell: the failing
// program's seed, the first error, and where the minimized replayable spec
// was persisted (empty if OutDir was unset).
type FuzzFailure struct {
	Protocol string
	Plan     string
	Seed     uint64
	Err      string
	MinOps   int
	Path     string
}

// FuzzReport summarizes a Fuzz campaign.
type FuzzReport struct {
	Programs int
	Runs     int
	Failures []FuzzFailure
}

// FuzzOptions configures a Fuzz campaign.
type FuzzOptions struct {
	// OutDir, if set, receives one minimized replayable JSON spec per
	// failing cell.
	OutDir string
	// Log, if set, receives one progress line per program.
	Log func(format string, args ...any)
	// Protocols and FaultPlans override the default matrices (nil = all).
	Protocols  []FuzzProtocol
	FaultPlans []FuzzFaultPlan

	// breakWrites enables the broken-protocol canary (tests only): the
	// executed kernel silently drops writes to block 0 while the reference
	// model keeps them, so the cross-check must detect every affected spec.
	breakWrites bool
}

// Fuzz generates n litmus programs from seed and runs each under every
// protocol × fault-plan combination. Each failing cell is minimized and
// (when OutDir is set) persisted for replay via `dsisim -replay`.
func Fuzz(n int, seed uint64, opt FuzzOptions) (*FuzzReport, error) {
	protos := opt.Protocols
	if protos == nil {
		protos = FuzzProtocols()
	}
	plans := opt.FaultPlans
	if plans == nil {
		plans = FuzzFaultPlans()
	}
	rep := &FuzzReport{}
	seeds := rng.New(seed)
	for i := 0; i < n; i++ {
		specSeed := seeds.Uint64()
		spec := GenLitmus(specSeed)
		rep.Programs++
		for _, pr := range protos {
			for _, plan := range plans {
				rep.Runs++
				prog := newLitmusProgram(spec)
				prog.breakWrites = opt.breakWrites
				_, err := runLitmus(prog, pr, plan, nil)
				if err == nil {
					continue
				}
				fail := FuzzFailure{Protocol: pr.Name, Plan: plan.Name, Seed: specSeed, Err: err.Error()}
				min := MinimizeLitmus(spec, func(c *LitmusSpec) bool {
					p2 := newLitmusProgram(c)
					p2.breakWrites = opt.breakWrites
					_, ferr := runLitmus(p2, pr, plan, nil)
					return ferr != nil
				})
				fail.MinOps = len(min.Ops)
				if opt.OutDir != "" {
					if mkErr := os.MkdirAll(opt.OutDir, 0o755); mkErr != nil {
						return rep, mkErr
					}
					name := fmt.Sprintf("litmus-%016x-%s-%s.json", specSeed,
						sanitizeName(pr.Name), sanitizeName(plan.Name))
					path := filepath.Join(opt.OutDir, name)
					if saveErr := SaveLitmus(min, path); saveErr != nil {
						return rep, saveErr
					}
					fail.Path = path
				}
				rep.Failures = append(rep.Failures, fail)
			}
		}
		if opt.Log != nil {
			opt.Log("fuzz: program %d/%d (seed %016x): %d ops, %d failures so far",
				i+1, n, specSeed, len(spec.Ops), len(rep.Failures))
		}
	}
	return rep, nil
}

// sanitizeName makes a protocol/plan name filesystem-safe ("W+DSI" ->
// "W-DSI").
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '-'
	}, s)
}

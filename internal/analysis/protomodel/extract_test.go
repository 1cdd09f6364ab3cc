package protomodel

import (
	"os"
	"path/filepath"
	"testing"

	"dsisim/internal/analysis"
)

// loadProto loads the real proto package through the export-data loader.
func loadProto(t *testing.T) *analysis.Package {
	t.Helper()
	ld := analysis.NewLoader("../../..")
	pkgs, err := ld.Load("./internal/proto")
	if err != nil {
		t.Fatalf("loading proto: %v", err)
	}
	for _, p := range pkgs {
		if p.Path == ProtoPackage {
			return p
		}
	}
	t.Fatalf("proto package not among %d loaded packages", len(pkgs))
	return nil
}

// TestExtractProtoClean extracts the model from the real protocol sources and
// requires a finding-free run: every (controller, trigger, state) pair is
// handled, waived, or infeasible, with no dead arms or stale waivers.
func TestExtractProtoClean(t *testing.T) {
	p := loadProto(t)
	model, probs := ExtractPackage(p)
	for _, pr := range probs {
		t.Errorf("%s: %s", p.Fset.Position(pr.Pos), pr.Msg)
	}
	if model == nil {
		t.Fatal("no model extracted")
	}
	if got := len(model.Controllers); got != 2 {
		t.Fatalf("controllers = %d, want 2", got)
	}
}

// TestExtractModelShape checks structural invariants of the extracted model:
// full (trigger, state) coverage per controller and well-formed transitions.
func TestExtractModelShape(t *testing.T) {
	p := loadProto(t)
	model, _ := ExtractPackage(p)
	if model == nil {
		t.Fatal("no model extracted")
	}
	if len(model.Kinds) == 0 {
		t.Fatal("empty kind vocabulary")
	}
	kinds := make(map[string]bool, len(model.Kinds))
	for _, k := range model.Kinds {
		kinds[k] = true
	}
	for _, c := range model.Controllers {
		if c.Name != "dir" && c.Name != "cache" {
			t.Errorf("unexpected controller %q", c.Name)
		}
		states := make(map[string]bool, len(c.States))
		for _, s := range c.States {
			states[s] = true
		}
		seen := make(map[[2]string]bool)
		var handled int
		for _, tr := range c.Transitions {
			key := [2]string{tr.Trigger, tr.State}
			if seen[key] {
				t.Errorf("%s: duplicate transition (%s, %s)", c.Name, tr.Trigger, tr.State)
			}
			seen[key] = true
			if !states[tr.State] {
				t.Errorf("%s: transition state %q not in vocabulary", c.Name, tr.State)
			}
			for _, n := range tr.Next {
				if !states[n] {
					t.Errorf("%s: (%s, %s) next state %q not in vocabulary", c.Name, tr.Trigger, tr.State, n)
				}
			}
			for _, s := range tr.Sends {
				if !kinds[s] {
					t.Errorf("%s: (%s, %s) sends unknown kind %q", c.Name, tr.Trigger, tr.State, s)
				}
			}
			if tr.Kind == Handled {
				handled++
			}
			if tr.Kind == Waived && tr.Reason == ReasonNone {
				t.Errorf("%s: (%s, %s) waived without a reason", c.Name, tr.Trigger, tr.State)
			}
		}
		// Every message kind must appear for every state.
		for _, kn := range model.Kinds {
			for _, s := range c.States {
				if !seen[[2]string{kn, s}] {
					t.Errorf("%s: missing transition (%s, %s)", c.Name, kn, s)
				}
			}
		}
		if handled == 0 {
			t.Errorf("%s: no handled transitions at all", c.Name)
		}
	}
}

// TestGoldenStable verifies the committed golden matches a fresh extraction,
// so docs/protomodel.json cannot drift from the sources.
func TestGoldenStable(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "..", "docs", "protomodel.json"))
	if err != nil {
		t.Fatalf("reading golden (regenerate with dsivet -run protomodel -model docs/protomodel.json): %v", err)
	}
	p := loadProto(t)
	model, probs := ExtractPackage(p)
	if model == nil {
		t.Fatalf("no model extracted (%d problems)", len(probs))
	}
	fresh, err := model.Render()
	if err != nil {
		t.Fatalf("rendering: %v", err)
	}
	if string(fresh) != string(golden) {
		t.Fatalf("docs/protomodel.json is stale: regenerate with `go run ./cmd/dsivet -run protomodel -model docs/protomodel.json ./...`")
	}
	// The golden must round-trip through Parse.
	parsed, err := Parse(golden)
	if err != nil {
		t.Fatalf("parsing golden: %v", err)
	}
	if parsed.Controller("dir") == nil || parsed.Controller("cache") == nil {
		t.Fatal("parsed golden missing a controller table")
	}
}

// TestPointerLiteralSendsRecorded pins that sends built as pointer literals —
// dc.send(&netsim.Message{Kind: …}), the shape every controller send helper
// takes — record their kinds. An evaluator that treats &T{…} as unknown
// drops these kind sets silently, leaving handled transitions that appear
// to send nothing.
func TestPointerLiteralSendsRecorded(t *testing.T) {
	p := loadProto(t)
	model, _ := ExtractPackage(p)
	if model == nil {
		t.Fatal("no model extracted")
	}
	for _, tc := range []struct {
		ctrl, trigger, state string
		want                 []string
	}{
		// processRead: the Recall to the owner, sent while openTxn records
		// the transaction built by newTxn(&txn{…}).
		{"dir", "GetS", "Exclusive", []string{"Recall"}},
		// processRead's immediate grant from home memory.
		{"dir", "GetS", "Idle", []string{"DataS"}},
		// onInv's acknowledgments.
		{"cache", "Inv", "Shared", []string{"InvAck"}},
		{"cache", "Inv", "Exclusive", []string{"InvAckData"}},
	} {
		c := model.Controller(tc.ctrl)
		if c == nil {
			t.Fatalf("no %s controller", tc.ctrl)
		}
		tr := c.Lookup(tc.trigger, tc.state)
		if tr == nil {
			t.Fatalf("%s: no transition (%s, %s)", tc.ctrl, tc.trigger, tc.state)
		}
		sends := make(map[string]bool, len(tr.Sends))
		for _, s := range tr.Sends {
			sends[s] = true
		}
		for _, k := range tc.want {
			if !sends[k] {
				t.Errorf("%s (%s, %s): sends %v, missing %s", tc.ctrl, tc.trigger, tc.state, tr.Sends, k)
			}
		}
	}
}

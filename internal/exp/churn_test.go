package exp

import (
	"strings"
	"testing"
)

// TestRunChurnRebalancerImproves runs a small churn and checks the
// rebalanced run actually migrates, every committed move pays for
// itself, and both the mean over the operations and the drained end
// state beat the bare run's — the Eq. (10) claim the benchmark exists to
// measure — and that a second run reports the same numbers, since the
// rounds run between the operations, not beside them.
func TestRunChurnRebalancerImproves(t *testing.T) {
	cfg := ChurnConfig{
		Hosts:    16,
		Ops:      40,
		Guests:   12,
		Active:   6,
		Seed:     3,
		Every:    2,
		MaxMoves: 8,
	}
	r := RunChurn(cfg)
	if r.Moves == 0 {
		t.Fatal("rebalancer committed no moves during churn")
	}
	if r.Rounds == 0 {
		t.Fatal("no committing rounds recorded")
	}
	if r.ImprovementPerMove <= 0 {
		t.Fatalf("ImprovementPerMove = %g, want > 0", r.ImprovementPerMove)
	}
	if r.ObjectiveMeanReb >= r.ObjectiveMeanBase {
		t.Fatalf("mean objective over the operations %g not below bare %g", r.ObjectiveMeanReb, r.ObjectiveMeanBase)
	}
	if r.ObjectiveFinalReb >= r.ObjectiveFinalBase {
		t.Fatalf("drained objective %g not below bare %g", r.ObjectiveFinalReb, r.ObjectiveFinalBase)
	}
	if r.OpP50Base > r.OpP99Base || r.OpP50Reb > r.OpP99Reb {
		t.Fatalf("percentiles out of order: base %g/%g reb %g/%g",
			r.OpP50Base, r.OpP99Base, r.OpP50Reb, r.OpP99Reb)
	}
	again := RunChurn(cfg)
	again.OpP50Base, again.OpP99Base, again.OpP50Reb, again.OpP99Reb = r.OpP50Base, r.OpP99Base, r.OpP50Reb, r.OpP99Reb
	if again != r {
		t.Fatalf("a second run differs beyond its latencies:\n first  %+v\n second %+v", r, again)
	}
	out := r.String()
	for _, want := range []string{"Churn benchmark", "objective improvement per migration", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

// TestCompareDocsChurnGate: the churn block's counts and objective
// statistics gate, its latencies do not, and it gates only against a
// baseline that carries it.
func TestCompareDocsChurnGate(t *testing.T) {
	res := ChurnResult{Ops: 40, Moves: 120, Rounds: 20, ImprovementPerMove: 3.5,
		ObjectiveMeanBase: 300, ObjectiveMeanReb: 280, ObjectiveFinalBase: 310, ObjectiveFinalReb: 270,
		OpP50Base: 1e-4, OpP99Base: 2e-4, OpP50Reb: 2e-4, OpP99Reb: 8e-4}
	base := JSONDocument{Hosts: 16, Seed: 3, Churn: &res}

	slower := res
	slower.OpP50Reb, slower.OpP99Reb = 10*res.OpP50Reb, 10*res.OpP99Reb
	rep := CompareDocs(base, JSONDocument{Hosts: 16, Seed: 3, Churn: &slower}, 0.5)
	if !rep.OK() || len(rep.Advisory) == 0 {
		t.Fatalf("a slower machine must pass with an advisory line: problems %v, advisory %v", rep.Problems, rep.Advisory)
	}
	for name, drift := range map[string]func(*ChurnResult){
		"moves":                func(r *ChurnResult) { r.Moves++ },
		"aborted":              func(r *ChurnResult) { r.Aborted++ },
		"rebalanced mean":      func(r *ChurnResult) { r.ObjectiveMeanReb *= 1.01 },
		"improvement per move": func(r *ChurnResult) { r.ImprovementPerMove *= 0.9 },
	} {
		cur := res
		drift(&cur)
		if CompareDocs(base, JSONDocument{Hosts: 16, Seed: 3, Churn: &cur}, 0.5).OK() {
			t.Errorf("%s drift passed the gate", name)
		}
	}
	without := JSONDocument{Hosts: 16, Seed: 3}
	if CompareDocs(base, without, 0.5).OK() {
		t.Error("dropped churn block passed the gate")
	}
	if rep := CompareDocs(without, base, 0.5); !rep.OK() {
		t.Errorf("new churn block against an old baseline drifted: %v", rep.Problems)
	}
}

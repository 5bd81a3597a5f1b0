package exp

import (
	"bytes"
	"strings"
	"testing"
)

// sweepDoc runs the small sweep and round-trips it through the JSON
// encoding, as bench-compare consumes it.
func sweepDoc(t *testing.T) JSONDocument {
	t.Helper()
	res := RunSweep(smallConfig())
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadJSONDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestCompareDocsSelfIsClean(t *testing.T) {
	doc := sweepDoc(t)
	rep := CompareDocs(doc, doc, 0.5)
	if !rep.OK() {
		t.Fatalf("self-comparison drifted: %v", rep.Problems)
	}
	if !strings.Contains(rep.String(), "metrics match") {
		t.Fatalf("pass report missing pass line:\n%s", rep)
	}
}

func TestCompareDocsFlagsDrift(t *testing.T) {
	base := sweepDoc(t)
	cur := sweepDoc(t)

	// Objective drift beyond the threshold gates. Perturb a series that
	// has a nonzero objective — a series whose runs all failed carries
	// mean 0, which no multiplicative drift can move.
	drifted := -1
	for i := range cur.Series {
		if cur.Series[i].ObjectiveMean != 0 {
			drifted = i
			break
		}
	}
	if drifted < 0 {
		t.Fatal("no series with a nonzero objective mean")
	}
	cur.Series[drifted].ObjectiveMean *= 1.02
	rep := CompareDocs(base, cur, 0.5)
	if rep.OK() {
		t.Fatal("2% objective drift passed a 0.5% threshold")
	}
	if CompareDocs(base, cur, 5).OK() != true {
		t.Fatal("2% objective drift failed a 5% threshold")
	}

	// Valid-count changes always gate.
	cur = sweepDoc(t)
	cur.Series[0].Valid--
	if CompareDocs(base, cur, 100).OK() {
		t.Fatal("valid-count change passed")
	}

	// Mapping-time changes never gate, only inform.
	cur = sweepDoc(t)
	cur.Series[0].MapSecondsMean *= 10
	rep = CompareDocs(base, cur, 0.5)
	if !rep.OK() {
		t.Fatalf("timing-only change gated: %v", rep.Problems)
	}
	if len(rep.Timing) == 0 {
		t.Fatal("timing deltas missing from the report")
	}

	// Different sweep configurations are incomparable.
	cur = sweepDoc(t)
	cur.Seed++
	if CompareDocs(base, cur, 100).OK() {
		t.Fatal("seed mismatch passed")
	}

	// A missing series gates.
	cur = sweepDoc(t)
	cur.Series = cur.Series[1:]
	if CompareDocs(base, cur, 100).OK() {
		t.Fatal("missing series passed")
	}
}

// TestCompareDocsGapGate: the gap block's counts and ratios gate, and
// only against a baseline that carries it.
func TestCompareDocsGapGate(t *testing.T) {
	gap := RunGap(GapConfig{Instances: 4, Hosts: 3, Guests: 5, Seed: 2}).JSON()
	base := JSONDocument{Hosts: 16, Seed: 3, Gap: gap}
	if rep := CompareDocs(base, base, 0.5); !rep.OK() {
		t.Fatalf("a gap block drifted from itself: %v", rep.Problems)
	}
	for name, drift := range map[string]func(*GapJSON){
		"instances":    func(g *GapJSON) { g.Instances++ },
		"HMN optimal":  func(g *GapJSON) { g.HMN.Optimal++ },
		"HMN+ median":  func(g *GapJSON) { g.HMNPlus.RatioMedian *= 1.01 },
		"GA worst":     func(g *GapJSON) { g.GA.RatioMax *= 0.99 },
		"HMN mean":     func(g *GapJSON) { g.HMN.RatioMean *= 1.01 },
		"GA optimal":   func(g *GapJSON) { g.GA.Optimal-- },
		"HMN+ worst":   func(g *GapJSON) { g.HMNPlus.RatioMax *= 1.01 },
		"HMN median":   func(g *GapJSON) { g.HMN.RatioMedian *= 0.99 },
		"GA mean":      func(g *GapJSON) { g.GA.RatioMean *= 1.01 },
		"HMN+ optimal": func(g *GapJSON) { g.HMNPlus.Optimal++ },
		"HMN worst":    func(g *GapJSON) { g.HMN.RatioMax *= 1.01 },
		"GA median":    func(g *GapJSON) { g.GA.RatioMedian *= 1.01 },
		"HMN+ mean":    func(g *GapJSON) { g.HMNPlus.RatioMean *= 0.99 },
	} {
		cur := *gap
		drift(&cur)
		if CompareDocs(base, JSONDocument{Hosts: 16, Seed: 3, Gap: &cur}, 0.5).OK() {
			t.Errorf("%s drift passed the gate", name)
		}
	}
	without := JSONDocument{Hosts: 16, Seed: 3}
	if CompareDocs(base, without, 0.5).OK() {
		t.Error("dropped gap block passed the gate")
	}
	if rep := CompareDocs(without, base, 0.5); !rep.OK() {
		t.Errorf("new gap block against an old baseline drifted: %v", rep.Problems)
	}
}

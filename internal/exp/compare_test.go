package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// eachLeaf calls visit on every tagged field under v (addressable), in
// declaration order, and fails t on a leaf without a gate tag: every
// field of a committed result is declared once.
func eachLeaf(t *testing.T, at string, v reflect.Value, visit func(at, gate string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			eachLeaf(t, at, v.Elem(), visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachLeaf(t, fmt.Sprintf("%s[%d]", at, i), v.Index(i), visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if gate := f.Tag.Get("gate"); gate != "" {
				visit(at+"."+f.Name, gate, v.Field(i))
			} else {
				eachLeaf(t, at+"."+f.Name, v.Field(i), visit)
			}
		}
	default:
		t.Errorf("%s has no gate tag", at)
	}
}

// copyDoc round-trips doc through its JSON encoding, as hmncompare
// reads a document.
func copyDoc(t *testing.T, doc JSONDocument) JSONDocument {
	t.Helper()
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// gateFixture is a document carrying every block: a small sweep, a
// churn, a gap, a federation and a reservation run.
func gateFixture(t *testing.T) JSONDocument {
	t.Helper()
	cfg := smallConfig()
	cfg.Scenarios = cfg.Scenarios[:1]
	cfg.Reps = 1
	cfg.Heuristics = []string{"HMN", "R"}
	doc := RunSweep(cfg).JSON()
	churn := RunChurn(ChurnConfig{Hosts: 16, Ops: 12, Guests: 8, Active: 4, Seed: 3})
	fed := runFederation(1, fedTestOps)
	res := RunReservations(ReservationConfig{Instances: 1, Hosts: 12, Guests: 40, Seed: 3})
	doc.Churn, doc.Federation, doc.Reservations = &churn, &fed, &res
	doc.Gap = RunGap(GapConfig{Instances: 3, Hosts: 3, Guests: 5, Seed: 2}).JSON()
	v := reflect.ValueOf(doc)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); (f.Kind() == reflect.Pointer || f.Kind() == reflect.Slice) && f.IsZero() {
			t.Fatalf("fixture lacks block %s", v.Type().Field(i).Name)
		}
	}
	return copyDoc(t, doc)
}

// nthLeaf returns the n-th tagged field of doc and its gate.
func nthLeaf(t *testing.T, doc *JSONDocument, n int) (at, gate string, f reflect.Value) {
	k := 0
	eachLeaf(t, "doc", reflect.ValueOf(doc).Elem(), func(a, g string, v reflect.Value) {
		if k == n {
			at, gate, f = a, g, v
		}
		k++
	})
	return at, gate, f
}

func TestCompareDocsSelfIsClean(t *testing.T) {
	doc := gateFixture(t)
	rep := CompareDocs(doc, doc, 0)
	if !rep.OK() {
		t.Fatalf("self-comparison drifted: %v", rep.Problems)
	}
	if !strings.Contains(rep.String(), "metrics match") || len(rep.Advisory) == 0 {
		t.Fatalf("pass report missing its pass line or advisory lines:\n%s", rep)
	}
}

// TestCompareDocsGatesEveryField perturbs every tagged field of every
// block of a document, one at a time: keys, counts and digests fail at
// any threshold, a moment fails only beyond the threshold, and an
// advisory field never fails.
func TestCompareDocsGatesEveryField(t *testing.T) {
	fixture := gateFixture(t)
	leaves := map[string]int{}
	eachLeaf(t, "doc", reflect.ValueOf(&fixture).Elem(), func(_, gate string, _ reflect.Value) { leaves[gate]++ })
	n := 0
	for gate, k := range leaves {
		switch gate {
		case "key", "count", "digest", "moment", "advisory":
		default:
			t.Errorf("%d fields carry the unknown gate %q", k, gate)
		}
		n += k
	}
	t.Logf("%d tagged fields by gate: %v", n, leaves)
	for i := 0; i < n; i++ {
		base, cur := copyDoc(t, fixture), copyDoc(t, fixture)
		at, gate, b := nthLeaf(t, &base, i)
		_, _, c := nthLeaf(t, &cur, i)
		switch c.Kind() {
		case reflect.Int, reflect.Int64:
			c.SetInt(c.Int() + 1)
		case reflect.Bool:
			c.SetBool(!c.Bool())
		case reflect.String:
			c.SetString(c.String() + "x")
		case reflect.Slice:
			c.Set(reflect.Append(c, reflect.ValueOf("x")))
		case reflect.Float64:
			if b.Float() == 0 { // a relative threshold has no scale at zero
				b.SetFloat(1)
			}
			c.SetFloat(b.Float() * 1.01)
			if gate == "advisory" {
				c.SetFloat(b.Float()*10 + 1)
			}
		default:
			t.Fatalf("%s: cannot perturb a %s", at, c.Kind())
		}
		pass := func(threshold float64) bool { return CompareDocs(base, cur, threshold).OK() }
		switch gate {
		case "key", "count", "digest":
			if pass(0) || pass(0.5) || pass(1e9) {
				t.Errorf("%s (%s) moved and passed a threshold", at, gate)
			}
		case "moment":
			if pass(0) || pass(0.5) || !pass(5) {
				t.Errorf("%s (moment) moved 1%%: passed at 0 or 0.5%% = %v/%v, at 5%% = %v", at, pass(0), pass(0.5), pass(5))
			}
		case "advisory":
			if !pass(0) {
				t.Errorf("%s (advisory) gated: %v", at, CompareDocs(base, cur, 0).Problems)
			}
		}
	}

	// A block or row the baseline carries must be in the current run; a
	// block only the current run carries gates nothing.
	v := reflect.ValueOf(&fixture).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if v.Type().Field(i).Tag.Get("gate") != "" {
			continue
		}
		without := copyDoc(t, fixture)
		f := reflect.ValueOf(&without).Elem().Field(i)
		f.Set(reflect.Zero(f.Type()))
		if CompareDocs(fixture, without, 1e9).OK() {
			t.Errorf("dropping %s passed the gate", name)
		}
		if rep := CompareDocs(without, fixture, 0); !rep.OK() {
			t.Errorf("adding %s to a baseline without it gated: %v", name, rep.Problems)
		}
	}
	fewer := copyDoc(t, fixture)
	fewer.Series = fewer.Series[1:]
	if CompareDocs(fixture, fewer, 1e9).OK() {
		t.Error("a missing series passed the gate")
	}
	if CompareDocs(fewer, fixture, 1e9).OK() {
		t.Error("an extra series passed the gate")
	}
}

// sweepDoc runs the small sweep and round-trips it through the JSON
// encoding, as bench-compare consumes it.
func sweepDoc(t *testing.T) JSONDocument {
	t.Helper()
	return copyDoc(t, RunSweep(smallConfig()).JSON())
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
	cur = copyDoc(t, base)
	cur.Series[0].MapSecondsMean *= 10
	rep = CompareDocs(base, cur, 0.5)
	if !rep.OK() {
		t.Fatalf("timing-only change gated: %v", rep.Problems)
	}
	// One summary line per block: the series block names the one row
	// that moved and its largest move; the runs block moved nowhere.
	k, _ := rowKey(reflect.ValueOf(cur.Series[0]))
	want := []string{
		fmt.Sprintf("advisory: series: 1 of %d rows moved, most map_seconds_mean %.4g -> %.4g (+900.0%%) at series[%s]",
			len(cur.Series), base.Series[0].MapSecondsMean, cur.Series[0].MapSecondsMean, k),
		fmt.Sprintf("advisory: runs: 0 of %d rows moved", len(cur.Runs)),
	}
	if !reflect.DeepEqual(rep.Advisory, want) {
		t.Fatalf("advisory summary:\n%s\nwant:\n%s", strings.Join(rep.Advisory, "\n"), strings.Join(want, "\n"))
	}
	cur.Runs[0].MapSeconds *= 2
	cur.Runs[1].MapSeconds *= 0.5
	rep = CompareDocs(base, cur, 0.5)
	k, _ = rowKey(reflect.ValueOf(cur.Runs[0]))
	if got, want := rep.Advisory[1], fmt.Sprintf("advisory: runs: 2 of %d rows moved, most map_seconds %.4g -> %.4g (+100.0%%) at runs[%s]",
		len(cur.Runs), base.Runs[0].MapSeconds, cur.Runs[0].MapSeconds, k); got != want {
		t.Fatalf("advisory summary %q, want %q", got, want)
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

// TestCompareDocsExtraRowsInKeyOrder: rows only the current document
// has are listed in key order, whatever order the per-key map hands
// them out in. Eight extra rows, fifty comparisons: Go's map order
// varies between them, so without the key sort some report comes out
// shuffled.
func TestCompareDocsExtraRowsInKeyOrder(t *testing.T) {
	base := JSONDocument{Federation: &FederationResult{Runs: []FederationRun{{Shards: 1}}}}
	cur := JSONDocument{Federation: &FederationResult{}}
	var want []string
	for s := 9; s >= 1; s-- {
		cur.Federation.Runs = append(cur.Federation.Runs, FederationRun{Shards: s})
	}
	for s := 2; s <= 9; s++ {
		want = append(want, fmt.Sprintf("federation.runs[%d / 0 / 0]: present in the current run but missing from the baseline", s))
	}
	for call := 0; call < 50; call++ {
		if got := CompareDocs(base, cur, 0).Problems; !reflect.DeepEqual(got, want) {
			t.Fatalf("comparison %d listed:\n%s\nwant key order:\n%s", call, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
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

package exp

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Hosts = 20
	cfg.Reps = 2
	cfg.MaxTries = 30
	cfg.Scenarios = QuickScenarios()[:2] // 2.5:1 and 10:1 high-level
	return cfg
}

func TestScenarioLabel(t *testing.T) {
	s := Scenario{Ratio: 2.5, Density: 0.015, Class: HighLevel}
	if s.Label() != "2.5:1 0.015" {
		t.Fatalf("Label = %q", s.Label())
	}
	s = Scenario{Ratio: 50, Density: 0.01, Class: LowLevel}
	if s.Label() != "50:1 0.01" {
		t.Fatalf("Label = %q", s.Label())
	}
}

func TestScenarioGuests(t *testing.T) {
	s := Scenario{Ratio: 2.5}
	if s.Guests(40) != 100 {
		t.Fatalf("Guests(40) = %d, want 100", s.Guests(40))
	}
	if (Scenario{Ratio: 50}).Guests(40) != 2000 {
		t.Fatal("50:1 on 40 hosts must be 2000 guests")
	}
}

func TestScenarioParamsPickClass(t *testing.T) {
	hl := Scenario{Ratio: 5, Density: 0.02, Class: HighLevel}.Params(40)
	if hl.MemMin != 128 {
		t.Fatal("high-level scenario must use high-level params")
	}
	ll := Scenario{Ratio: 20, Density: 0.01, Class: LowLevel}.Params(40)
	if ll.MemMin != 19 {
		t.Fatal("low-level scenario must use low-level params")
	}
}

func TestPaperScenariosShape(t *testing.T) {
	scs := PaperScenarios()
	if len(scs) != 16 {
		t.Fatalf("paper has 16 scenario rows, got %d", len(scs))
	}
	high, low := 0, 0
	for _, s := range scs {
		if s.Class == HighLevel {
			high++
		} else {
			low++
		}
	}
	if high != 12 || low != 4 {
		t.Fatalf("want 12 high-level + 4 low-level, got %d + %d", high, low)
	}
}

func TestTorusDims(t *testing.T) {
	cases := []struct{ n, rows, cols int }{
		{40, 8, 5}, {16, 4, 4}, {20, 5, 4}, {7, 7, 1}, {1, 1, 1},
	}
	for _, c := range cases {
		r, co := torusDims(c.n)
		if r*co != c.n {
			t.Fatalf("torusDims(%d) = %dx%d does not multiply back", c.n, r, co)
		}
		if r != c.rows || co != c.cols {
			t.Fatalf("torusDims(%d) = %dx%d, want %dx%d", c.n, r, co, c.rows, c.cols)
		}
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := int64(0); i < 50; i++ {
		for j := int64(0); j < 4; j++ {
			s := deriveSeed(1, i, j, 0)
			if s < 0 {
				t.Fatal("derived seeds must be non-negative")
			}
			if seen[s] {
				t.Fatalf("seed collision at (%d,%d)", i, j)
			}
			seen[s] = true
		}
	}
	if deriveSeed(1, 2, 3, 4) != deriveSeed(1, 2, 3, 4) {
		t.Fatal("deriveSeed must be deterministic")
	}
}

func TestRunSweepShape(t *testing.T) {
	cfg := smallConfig()
	res := RunSweep(cfg)
	want := len(cfg.Scenarios) * cfg.Reps * len(cfg.Topologies) * len(cfg.Heuristics)
	if len(res.Runs) != want {
		t.Fatalf("got %d runs, want %d", len(res.Runs), want)
	}
	for _, run := range res.Runs {
		if run.OK && run.Objective <= 0 {
			t.Fatalf("successful run with non-positive objective: %+v", run)
		}
		if run.OK && run.ExpSeconds <= 0 {
			t.Fatalf("successful run with non-positive experiment time: %+v", run)
		}
		if !run.OK && run.Err == "" {
			t.Fatalf("failed run without an error message: %+v", run)
		}
		if run.Guests == 0 || run.Links == 0 {
			t.Fatalf("run lost its instance shape: %+v", run)
		}
	}
}

func TestRunSweepDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.Reps = 1
	a := RunSweep(cfg)
	b := RunSweep(cfg)
	if len(a.Runs) != len(b.Runs) {
		t.Fatal("run counts differ")
	}
	for i := range a.Runs {
		ra, rb := a.Runs[i], b.Runs[i]
		if ra.OK != rb.OK || ra.Objective != rb.Objective || ra.ExpSeconds != rb.ExpSeconds {
			t.Fatalf("sweep not deterministic at %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestRunSweepParallelMatchesSerial(t *testing.T) {
	cfg := smallConfig()
	cfg.Reps = 1
	cfg.Workers = 1
	serial := RunSweep(cfg)
	cfg.Workers = 8
	parallel := RunSweep(cfg)
	for i := range serial.Runs {
		if serial.Runs[i].Objective != parallel.Runs[i].Objective {
			t.Fatal("worker count changed results")
		}
	}
}

func TestTableRenderers(t *testing.T) {
	cfg := smallConfig()
	cfg.Reps = 1
	res := RunSweep(cfg)

	t2 := res.Table2()
	if !strings.Contains(t2, "Failures") || !strings.Contains(t2, "2.5:1 0.015") {
		t.Fatalf("Table2 missing pieces:\n%s", t2)
	}
	if !strings.Contains(t2, "2-D Torus") || !strings.Contains(t2, "Switched") {
		t.Fatalf("Table2 missing topology headers:\n%s", t2)
	}
	t3 := res.Table3()
	if !strings.Contains(t3, "execution time") {
		t.Fatalf("Table3 header wrong:\n%s", t3)
	}
	mt := res.MappingTimeTable()
	if !strings.Contains(mt, "Mapping wall time") {
		t.Fatalf("MappingTimeTable header wrong:\n%s", mt)
	}
	f1 := res.Figure1Table(Torus)
	if !strings.Contains(f1, "Figure 1") {
		t.Fatalf("Figure1Table header wrong:\n%s", f1)
	}
	if len(res.Figure1(Torus)) == 0 {
		t.Fatal("Figure1 series empty")
	}
}

func TestFigure1SortedByMappedLinks(t *testing.T) {
	cfg := smallConfig()
	res := RunSweep(cfg)
	pts := res.Figure1(Torus)
	for i := 1; i < len(pts); i++ {
		if pts[i].MappedLinks < pts[i-1].MappedLinks {
			t.Fatal("Figure1 points not sorted by mapped links")
		}
	}
	for _, p := range pts {
		if p.Runs == 0 || p.MeanSeconds < 0 {
			t.Fatalf("bad Figure1 point: %+v", p)
		}
		if p.NetworkShare < 0 || p.NetworkShare > 1 {
			t.Fatalf("network share out of range: %+v", p)
		}
	}
}

// TestFigure1TiesInLabelOrder: scenarios that map the same number of
// links keep label order, whatever order the per-label map hands them
// out in. Eight tied scenarios, fifty calls: Go's map order varies
// between calls, so without the label sort some call comes out
// shuffled.
func TestFigure1TiesInLabelOrder(t *testing.T) {
	var res Results
	var want []string
	for r := 1; r <= 8; r++ {
		sc := Scenario{Ratio: float64(r), Density: 0.1, Class: HighLevel}
		want = append(want, sc.Label())
		res.Runs = append(res.Runs, Run{Scenario: sc, Topology: Torus, Heuristic: "HMN",
			OK: true, MapSeconds: 0.01, Links: 9, InterHostLinks: 5})
	}
	for call := 0; call < 50; call++ {
		var got []string
		for _, p := range res.Figure1(Torus) {
			got = append(got, p.Scenario.Label())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: tied Figure 1 rows in order %q, want label order %q", call, got, want)
		}
	}
}

func TestCorrelationByClass(t *testing.T) {
	cfg := smallConfig()
	cfg.Scenarios = QuickScenarios() // both classes
	cfg.Reps = 2
	res := RunSweep(cfg)
	byClass := res.CorrelationByClass()
	if _, ok := byClass[HighLevel]; !ok {
		t.Fatal("high-level correlation missing")
	}
	if _, ok := byClass[LowLevel]; !ok {
		t.Fatal("low-level correlation missing")
	}
	for class, r := range byClass {
		if r < -1 || r > 1 {
			t.Fatalf("%v correlation out of range: %v", class, r)
		}
	}
}

func TestCorrelationByScenario(t *testing.T) {
	cfg := smallConfig()
	cfg.Reps = 3
	res := RunSweep(cfg)
	byScenario := res.CorrelationByScenario()
	for _, sc := range cfg.Scenarios {
		if _, ok := byScenario[sc.Label()]; !ok {
			// Scenarios whose every run failed have no entry; at least
			// the easy 2.5:1 row must be present.
			if sc.Ratio == 2.5 {
				t.Fatalf("scenario %s missing from correlation map", sc.Label())
			}
		}
	}
	for l, r := range byScenario {
		if r < -1 || r > 1 {
			t.Fatalf("scenario %s correlation out of range: %v", l, r)
		}
	}
}

func TestClassAndTopologyStrings(t *testing.T) {
	if HighLevel.String() != "high-level" || LowLevel.String() != "low-level" {
		t.Fatal("class strings wrong")
	}
	if Torus.String() != "2-D Torus" || Switched.String() != "Switched" {
		t.Fatal("topology strings wrong")
	}
}

func TestFailureCount(t *testing.T) {
	cfg := smallConfig()
	res := RunSweep(cfg)
	total := 0
	for _, topo := range cfg.Topologies {
		for _, h := range cfg.Heuristics {
			total += res.FailureCount(topo, h)
		}
	}
	failures := 0
	for _, run := range res.Runs {
		if !run.OK {
			failures++
		}
	}
	if total != failures {
		t.Fatalf("FailureCount total %d != raw failures %d", total, failures)
	}
}

func TestTable1Render(t *testing.T) {
	s := Table1(40)
	for _, want := range []string{"2-D Torus", "1Gbps", "87-175kbps", "0.5-1Mbps", "1000-3000MIPS", "19-38MIPS"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, s)
		}
	}
}

func TestRunSweepDefaultsFilledIn(t *testing.T) {
	res := RunSweep(Config{Hosts: 10, Reps: 1, Scenarios: QuickScenarios()[:1], Workers: 2,
		Heuristics: []string{"HMN"}})
	if len(res.Runs) != 2 { // 1 scenario x 1 rep x 2 topologies x 1 heuristic
		t.Fatalf("got %d runs, want 2", len(res.Runs))
	}
}

func TestWriteCSV(t *testing.T) {
	cfg := smallConfig()
	cfg.Reps = 1
	res := RunSweep(cfg)
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(res.Runs)+1 {
		t.Fatalf("CSV has %d rows, want %d runs + header", len(rows), len(res.Runs))
	}
	header := rows[0]
	if header[0] != "scenario" || header[len(header)-1] != "error" {
		t.Fatalf("header wrong: %v", header)
	}
	for i, row := range rows[1:] {
		if len(row) != len(header) {
			t.Fatalf("row %d has %d fields, want %d", i, len(row), len(header))
		}
		if row[7] == "true" && row[8] == "" {
			t.Fatalf("successful run without objective: %v", row)
		}
		if row[7] == "false" && row[len(row)-1] == "" {
			t.Fatalf("failed run without error text: %v", row)
		}
	}
}

func TestRunGap(t *testing.T) {
	g := RunGap(GapConfig{Instances: 6, Hosts: 3, Guests: 5, Seed: 2})
	if g.Instances+g.Infeasible+g.HMNMissed != 6 {
		t.Fatalf("instances unaccounted for: %+v", g)
	}
	for _, r := range g.Ratios {
		if r < 1-1e-9 {
			t.Fatalf("HMN beat the exact optimum: ratio %v", r)
		}
	}
	for _, d := range g.AbsGaps {
		if d < -1e-9 {
			t.Fatalf("negative absolute gap %v", d)
		}
	}
	if g.Instances > 0 {
		if j := g.JSON().HMN; j.RatioMean < 1 || j.RatioMax < j.RatioMedian {
			t.Fatalf("ratio summary inconsistent: %+v", g)
		}
		if !strings.Contains(g.String(), "Optimality gap") {
			t.Fatal("String render broken")
		}
	}
}

func TestRunGapDefaults(t *testing.T) {
	g := RunGap(GapConfig{Instances: 2})
	if g.Instances+g.Infeasible+g.HMNMissed != 2 {
		t.Fatalf("defaults broken: %+v", g)
	}
}

func TestRunReservations(t *testing.T) {
	r := RunReservations(ReservationConfig{Instances: 2, Hosts: 12, Guests: 40, Seed: 3})
	if r.Instances != 2 {
		t.Fatalf("instances = %d", r.Instances)
	}
	// Eq. 9 certificate: valid mappings keep fair shares at or above the
	// reserved rates.
	if r.HMNMinRateRatio < 1 || r.RAMinRateRatio < 1 {
		t.Fatalf("fair-share ratio below 1 for a valid mapping: %+v", r)
	}
	// Reserved transfers are paced at exactly the emulated rate (1s +
	// latency); best-effort consumes idle capacity and finishes earlier.
	if r.HMNBestEffort >= r.HMNReserved {
		t.Fatalf("best-effort should finish before the paced reserved transfers: %+v", r)
	}
	if !strings.Contains(r.String(), "reservation ablation") {
		t.Fatal("String render broken")
	}
}

// TestHeuristicSubsetReproducesItsCells: a sweep of a subset of the
// heuristics, listed in another order, gives those heuristics' runs and
// series exactly as the full sweep does.
func TestHeuristicSubsetReproducesItsCells(t *testing.T) {
	cfg := smallConfig()
	cfg.Reps = 1
	full := RunSweep(cfg).JSON()
	cfg.Heuristics = []string{"RA", "HMN"}
	sub := RunSweep(cfg).JSON()

	fullRuns := map[string]JSONRun{}
	for _, r := range full.Runs {
		k, _ := rowKey(reflect.ValueOf(r))
		fullRuns[k] = r
	}
	for _, r := range sub.Runs {
		k, _ := rowKey(reflect.ValueOf(r))
		f := fullRuns[k]
		if f.OK != r.OK || f.Err != r.Err || f.Objective != r.Objective || f.ExpSeconds != r.ExpSeconds || f.InterHostLinks != r.InterHostLinks {
			t.Errorf("run %s: subset %+v, full sweep %+v", k, r, f)
		}
	}
	fullSeries := map[string]JSONSeries{}
	for _, s := range full.Series {
		k, _ := rowKey(reflect.ValueOf(s))
		fullSeries[k] = s
	}
	if len(sub.Series) == 0 {
		t.Fatal("the subset sweep has no series")
	}
	for _, s := range sub.Series {
		k, _ := rowKey(reflect.ValueOf(s))
		f := fullSeries[k]
		if f.PlacementDigest != s.PlacementDigest || f.Valid != s.Valid || f.ObjectiveMean != s.ObjectiveMean {
			t.Errorf("series %s: subset digest %s valid %d, full sweep %s valid %d", k, s.PlacementDigest, s.Valid, f.PlacementDigest, f.Valid)
		}
	}
}

package exp

import (
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_seed1.json from the paper matrix")

// paperGolden holds every deterministic field of the paper matrix's
// series at seed 1 and 3 reps: per (scenario, topology, heuristic) the
// run and valid counts, the Eq. (10) mean and spread, the Table 3 mean
// and the placement digest. Advisory fields and the per-run rows are
// left out; the digests cover every run.
const paperGolden = "testdata/paper_seed1.json"

// TestGoldenPaperTables runs the paper's Tables 2/3 matrix at 3 reps and
// compares it with the committed golden through CompareDocs at
// threshold 0, so any changed placement, route or failure fails it; its
// subtests assert the shapes the paper argues from on the same sweep.
// After a deliberate change, rewrite the golden with
//
//	go test -run '^TestGoldenPaperTables$' ./internal/exp -update
func TestGoldenPaperTables(t *testing.T) {
	if testing.Short() {
		t.Skip("the paper matrix takes seconds")
	}
	if raceEnabled {
		t.Skip("the paper matrix takes minutes under the race detector")
	}
	cfg := DefaultConfig()
	cfg.Reps = 3
	res := RunSweep(cfg)
	doc := res.JSON()

	golden := doc
	golden.Runs = nil
	golden.Series = append([]JSONSeries(nil), doc.Series...)
	eachLeaf(t, "doc", reflect.ValueOf(&golden).Elem(), func(_, gate string, f reflect.Value) {
		if gate == "advisory" {
			f.SetFloat(0)
		}
	})
	if *update {
		f, err := os.Create(paperGolden)
		if err != nil {
			t.Fatal(err)
		}
		if err := golden.Write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	base, err := ReadJSONDocument(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep := CompareDocs(base, golden, 0); !rep.OK() {
		t.Fatalf("the paper matrix moved from %s (rewrite it with -update only for a deliberate change):\n%s",
			paperGolden, strings.Join(rep.Problems, "\n"))
	}

	type cell struct{ scenario, topology string }
	series := map[cell]map[string]JSONSeries{}
	for _, s := range doc.Series {
		c := cell{s.Scenario, s.Topology}
		if series[c] == nil {
			series[c] = map[string]JSONSeries{}
		}
		series[c][s.Heuristic] = s
	}

	// Table 2: HMN's Eq. (10) mean is the lowest of the four in every row
	// it maps. Each mean is over the runs its own heuristic mapped, so two
	// means can average different instances, and this holds only at seed 1
	// with 3 reps: at seed 2, HS reads 352.63 against HMN's 353.22 on the
	// torus at 2.5:1 0.02, and at seed 1 with 30 reps RA reads 570.82
	// against 577.75 at 10:1 0.02, where HMN maps about 4 of 30 instances
	// and RA about 7. hmn_lowest_objective_paired is the comparison that
	// holds across seeds.
	t.Run("hmn_lowest_objective", func(t *testing.T) {
		for c, row := range series {
			hmn := row["HMN"]
			if hmn.Valid == 0 {
				continue
			}
			for h, s := range row {
				if s.Valid > 0 && s.ObjectiveMean < hmn.ObjectiveMean {
					t.Errorf("%s / %s: %s mean %.2f below HMN's %.2f", c.scenario, c.topology, h, s.ObjectiveMean, hmn.ObjectiveMean)
				}
			}
		}
	})

	// Table 2, paired: over the instances (scenario, topology, rep) that
	// both HMN and another heuristic mapped, HMN's Eq. (10) mean is the
	// lower of the two in every row.
	t.Run("hmn_lowest_objective_paired", func(t *testing.T) {
		type instance struct {
			scenario, topology string
			rep                int
		}
		type pair struct {
			scenario, topology, heuristic string
		}
		hmn := map[instance]float64{}
		for _, r := range doc.Runs {
			if r.OK && r.Heuristic == "HMN" {
				hmn[instance{r.Scenario, r.Topology, r.Rep}] = r.Objective
			}
		}
		type sums struct {
			hmn, other float64
			n          int
		}
		paired := map[pair]*sums{}
		for _, r := range doc.Runs {
			h, ok := hmn[instance{r.Scenario, r.Topology, r.Rep}]
			if !r.OK || !ok || r.Heuristic == "HMN" {
				continue
			}
			p := pair{r.Scenario, r.Topology, r.Heuristic}
			if paired[p] == nil {
				paired[p] = &sums{}
			}
			paired[p].hmn += h
			paired[p].other += r.Objective
			paired[p].n++
		}
		if len(paired) == 0 {
			t.Fatal("no instance was mapped by HMN and another heuristic")
		}
		for p, s := range paired {
			if s.other < s.hmn {
				t.Errorf("%s / %s over %d paired runs: %s mean %.2f below HMN's %.2f",
					p.scenario, p.topology, s.n, p.heuristic, s.other/float64(s.n), s.hmn/float64(s.n))
			}
		}
	})

	// Table 2's failure row on the torus: HMN fails fewer runs than the
	// two mappers that route without A*Prune's budget checks.
	t.Run("torus_failures", func(t *testing.T) {
		failures := map[string]int{}
		for c, row := range series {
			if c.topology == Torus.String() {
				for h, s := range row {
					failures[h] += s.Runs - s.Valid
				}
			}
		}
		if failures["HMN"] >= failures["R"] || failures["HMN"] >= failures["HS"] {
			t.Errorf("torus failures %v: HMN must fail fewer runs than R and HS", failures)
		}
	})

	// §5.2: the objective predicts the emulated experiment's makespan.
	// The pooled r reads 0.32 on this sweep (the paper reports 0.7).
	t.Run("correlation_floor", func(t *testing.T) {
		if r := res.Correlation(); r < 0.25 {
			t.Errorf("pooled objective/makespan r = %.3f, want >= 0.25", r)
		}
	})

	// Figure 1: Networking takes a larger share of HMN's mapping time on
	// the torus, where A*Prune searches, than on the switched cluster.
	t.Run("networking_share", func(t *testing.T) {
		var torus, switched []float64
		for _, s := range doc.Series {
			switch {
			case s.Heuristic != "HMN":
			case s.Topology == Torus.String():
				torus = append(torus, s.NetworkingShare)
			default:
				switched = append(switched, s.NetworkingShare)
			}
		}
		if mt, ms := stats.Mean(torus), stats.Mean(switched); mt <= ms {
			t.Errorf("HMN networking share torus %.3f, switched %.3f: want torus higher", mt, ms)
		}
	})
}

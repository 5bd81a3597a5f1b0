package exp

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestWriteJSON(t *testing.T) {
	cfg := smallConfig()
	cfg.Reps = 1
	res := RunSweep(cfg)

	var buf bytes.Buffer
	if err := res.JSON().Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc JSONDocument
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}

	if doc.Hosts != cfg.Hosts || doc.Seed != cfg.Seed {
		t.Fatalf("config echo wrong: hosts=%d seed=%d", doc.Hosts, doc.Seed)
	}
	if len(doc.Runs) != len(res.Runs) {
		t.Fatalf("JSON has %d runs, want %d", len(doc.Runs), len(res.Runs))
	}
	wantSeries := len(cfg.Scenarios) * len(cfg.Topologies) * len(cfg.Heuristics)
	if len(doc.Series) != wantSeries {
		t.Fatalf("JSON has %d series, want %d", len(doc.Series), wantSeries)
	}

	perSeries := cfg.Reps
	for _, s := range doc.Series {
		if s.Scenario == "" {
			t.Fatalf("series %s/%s has no scenario key", s.Topology, s.Heuristic)
		}
		if s.Runs != perSeries {
			t.Fatalf("series %s/%s has %d runs, want %d", s.Topology, s.Heuristic, s.Runs, perSeries)
		}
		if s.Valid > s.Runs || s.Valid < 0 {
			t.Fatalf("series %s/%s: valid=%d of %d", s.Topology, s.Heuristic, s.Valid, s.Runs)
		}
		if s.MapSecondsP50 > s.MapSecondsP90 || s.MapSecondsP90 > s.MapSecondsP99 {
			t.Fatalf("series %s/%s: percentiles not monotonic: p50=%v p90=%v p99=%v",
				s.Topology, s.Heuristic, s.MapSecondsP50, s.MapSecondsP90, s.MapSecondsP99)
		}
		if s.MapSecondsP99 > s.MapSecondsMax {
			t.Fatalf("series %s/%s: p99 %v exceeds max %v", s.Topology, s.Heuristic, s.MapSecondsP99, s.MapSecondsMax)
		}
		// HMN series, and only they, break the mapping time down by stage.
		staged := s.HostingSecondsMean + s.MigrationSecondsMean + s.NetworkingSecondsMean
		switch {
		case s.Heuristic != "HMN" && (staged != 0 || s.NetworkingShare != 0):
			t.Fatalf("series %s/%s carries stage times", s.Topology, s.Heuristic)
		case s.Heuristic == "HMN" && (s.HostingSecondsMean <= 0 || staged > s.MapSecondsMean ||
			s.NetworkingShare != s.NetworkingSecondsMean/s.MapSecondsMean):
			t.Fatalf("series %s/HMN: stage means %v + %v + %v of %v, share %v", s.Topology,
				s.HostingSecondsMean, s.MigrationSecondsMean, s.NetworkingSecondsMean, s.MapSecondsMean, s.NetworkingShare)
		}
	}

	// The per-run rows must echo the deterministic sweep order and carry
	// either an objective (ok) or an error string (failed).
	for i, r := range doc.Runs {
		if r.Scenario != res.Runs[i].Scenario.Label() {
			t.Fatalf("run %d: scenario %q, want %q", i, r.Scenario, res.Runs[i].Scenario.Label())
		}
		if !r.OK && r.Err == "" {
			t.Fatalf("run %d failed without error text", i)
		}
	}
}

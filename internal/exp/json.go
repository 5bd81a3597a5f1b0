package exp

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/stats"
)

// This file renders a sweep as machine-readable JSON for the perf
// trajectory (the committed BENCH_*.json files) and for external
// tooling: the full per-run matrix plus, per (topology, heuristic)
// series, aggregated success rates, objective statistics and
// mapping-time percentiles.

// JSONRun is one run in the JSON document — Run with the scenario
// flattened into its label and coordinates.
type JSONRun struct {
	Scenario  string  `json:"scenario"`
	Ratio     float64 `json:"ratio"`
	Density   float64 `json:"density"`
	Class     string  `json:"class"`
	Topology  string  `json:"topology"`
	Heuristic string  `json:"heuristic"`
	Rep       int     `json:"rep"`

	OK         bool    `json:"ok"`
	Err        string  `json:"err,omitempty"`
	Objective  float64 `json:"objective"`
	MapSeconds float64 `json:"map_seconds"`
	ExpSeconds float64 `json:"exp_seconds"`

	Guests         int `json:"guests"`
	Links          int `json:"links"`
	InterHostLinks int `json:"inter_host_links"`
}

// JSONSeries aggregates every run of one (scenario, topology, heuristic)
// triple. Keying series by scenario keeps the drift gate sharp on a
// mixed-size matrix: a regression confined to the 10k-guest row cannot
// hide inside an aggregate over every ratio.
type JSONSeries struct {
	Scenario  string `json:"scenario"`
	Topology  string `json:"topology"`
	Heuristic string `json:"heuristic"`
	Runs      int    `json:"runs"`
	Valid     int    `json:"valid"`

	ObjectiveMean float64 `json:"objective_mean"`
	ObjectiveStd  float64 `json:"objective_stddev"`

	// Mapping-time percentiles in seconds, over every run of the series
	// (failed attempts cost wall time too, so they are included).
	MapSecondsP50  float64 `json:"map_seconds_p50"`
	MapSecondsP90  float64 `json:"map_seconds_p90"`
	MapSecondsP99  float64 `json:"map_seconds_p99"`
	MapSecondsMean float64 `json:"map_seconds_mean"`
	MapSecondsMax  float64 `json:"map_seconds_max"`

	// Stage times in seconds, HMN series only (the baselines have no
	// stages): the means of the three times core.StageStats took over the
	// same runs, and Networking's share of the mean mapping time — the
	// ratio Figure 1 plots, from the struct the CSV prints. Timing, like
	// map_seconds: advisory in comparisons.
	HostingSecondsMean    float64 `json:"hosting_seconds_mean,omitempty"`
	MigrationSecondsMean  float64 `json:"migration_seconds_mean,omitempty"`
	NetworkingSecondsMean float64 `json:"networking_seconds_mean,omitempty"`
	NetworkingShare       float64 `json:"networking_share,omitempty"`
}

// JSONDocument is the top-level structure WriteJSON emits.
type JSONDocument struct {
	Hosts      int          `json:"hosts"`
	Reps       int          `json:"reps"`
	Seed       int64        `json:"seed"`
	MaxTries   int          `json:"max_tries"`
	Topologies []string     `json:"topologies"`
	Heuristics []string     `json:"heuristics"`
	Series     []JSONSeries `json:"series"`
	Runs       []JSONRun    `json:"runs"`
	// Federation holds the sharded aggregate-throughput comparison when
	// the bench ran with -shards. Committed baselines without the block
	// stay valid: CompareDocs gates it only when the baseline carries it.
	Federation *FederationResult `json:"federation,omitempty"`
	// Churn holds the admission churn, bare vs rebalanced, when the bench
	// ran with -churn; gated like Federation, only against a baseline that
	// carries it.
	Churn *ChurnResult `json:"churn,omitempty"`
	// Gap holds the optimality gap against the exact solver when the
	// bench ran with -gap; gated like Churn.
	Gap *GapJSON `json:"gap,omitempty"`
}

// JSON assembles the document for a sweep. Runs keep the deterministic
// order RunSweep established; series are sorted by (topology, heuristic).
func (r *Results) JSON() JSONDocument {
	doc := JSONDocument{
		Hosts:    r.Config.Hosts,
		Reps:     r.Config.Reps,
		Seed:     r.Config.Seed,
		MaxTries: r.Config.MaxTries,
		Churn:    r.Churn,
		Gap:      r.Gap,
	}
	for _, t := range r.Config.Topologies {
		doc.Topologies = append(doc.Topologies, t.String())
	}
	doc.Heuristics = append(doc.Heuristics, r.Config.Heuristics...)

	type seriesKey struct {
		scen string
		topo Topology
		heur string
	}
	type seriesAcc struct {
		objectives []float64
		mapTimes   []float64
		valid      int
		// Stage times, summed over the runs (zero for the baselines).
		hosting, migration, networking float64
	}
	acc := make(map[seriesKey]*seriesAcc)
	var keys []seriesKey
	for _, run := range r.Runs {
		doc.Runs = append(doc.Runs, JSONRun{
			Scenario:       run.Scenario.Label(),
			Ratio:          run.Scenario.Ratio,
			Density:        run.Scenario.Density,
			Class:          run.Scenario.Class.String(),
			Topology:       run.Topology.String(),
			Heuristic:      run.Heuristic,
			Rep:            run.Rep,
			OK:             run.OK,
			Err:            run.Err,
			Objective:      run.Objective,
			MapSeconds:     run.MapSeconds,
			ExpSeconds:     run.ExpSeconds,
			Guests:         run.Guests,
			Links:          run.Links,
			InterHostLinks: run.InterHostLinks,
		})
		k := seriesKey{run.Scenario.Label(), run.Topology, run.Heuristic}
		a := acc[k]
		if a == nil {
			a = &seriesAcc{}
			acc[k] = a
			keys = append(keys, k)
		}
		a.mapTimes = append(a.mapTimes, run.MapSeconds)
		a.hosting += run.Stages.HostingSeconds
		a.migration += run.Stages.MigrationSeconds
		a.networking += run.Stages.NetworkingSeconds
		if run.OK {
			a.valid++
			a.objectives = append(a.objectives, run.Objective)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].scen != keys[j].scen {
			return keys[i].scen < keys[j].scen
		}
		if keys[i].topo != keys[j].topo {
			return keys[i].topo < keys[j].topo
		}
		return keys[i].heur < keys[j].heur
	})
	for _, k := range keys {
		a := acc[k]
		n := float64(len(a.mapTimes))
		mapMean, netMean, share := stats.Mean(a.mapTimes), a.networking/n, 0.0
		if mapMean > 0 {
			share = netMean / mapMean
		}
		doc.Series = append(doc.Series, JSONSeries{
			Scenario:       k.scen,
			Topology:       k.topo.String(),
			Heuristic:      k.heur,
			Runs:           len(a.mapTimes),
			Valid:          a.valid,
			ObjectiveMean:  stats.Mean(a.objectives),
			ObjectiveStd:   stats.SampleStdDev(a.objectives),
			MapSecondsP50:  stats.Percentile(a.mapTimes, 50),
			MapSecondsP90:  stats.Percentile(a.mapTimes, 90),
			MapSecondsP99:  stats.Percentile(a.mapTimes, 99),
			MapSecondsMean: mapMean,
			MapSecondsMax:  stats.Max(a.mapTimes),

			HostingSecondsMean:    a.hosting / n,
			MigrationSecondsMean:  a.migration / n,
			NetworkingSecondsMean: netMean,
			NetworkingShare:       share,
		})
	}
	return doc
}

// WriteJSON renders the sweep as an indented JSON document.
func (r *Results) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.JSON())
}

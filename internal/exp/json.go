package exp

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/stats"
)

// This file renders a sweep as machine-readable JSON for the perf
// trajectory (the committed BENCH_*.json files) and for external
// tooling: the full per-run matrix plus, per (topology, heuristic)
// series, aggregated success rates, objective statistics and
// mapping-time percentiles.
//
// Every field of a committed result carries a gate tag beside its json
// tag, the one place that says how CompareDocs treats it:
//
//	key       identifies the row (or, on the document, the experiment);
//	          rows pair by their keys, and documents whose keys differ
//	          are not compared at all
//	count     an integer, flag or label that must not move
//	digest    a placement hash that must not move
//	moment    a float statistic of seeded runs: within the threshold
//	advisory  a wall-clock reading, summed up per block, never gating
//
// A field without a tag is a block: a struct, a pointer to one (absent
// from a document that did not run it) or a slice of rows.

// JSONRun is one run in the JSON document — Run with the scenario
// flattened into its label and coordinates.
type JSONRun struct {
	Scenario  string  `json:"scenario" gate:"key"`
	Ratio     float64 `json:"ratio" gate:"key"`
	Density   float64 `json:"density" gate:"key"`
	Class     string  `json:"class" gate:"key"`
	Topology  string  `json:"topology" gate:"key"`
	Heuristic string  `json:"heuristic" gate:"key"`
	Rep       int     `json:"rep" gate:"key"`

	OK         bool    `json:"ok" gate:"count"`
	Err        string  `json:"err,omitempty" gate:"count"`
	Objective  float64 `json:"objective" gate:"moment"`
	MapSeconds float64 `json:"map_seconds" gate:"advisory"`
	ExpSeconds float64 `json:"exp_seconds" gate:"moment"`

	Guests         int `json:"guests" gate:"count"`
	Links          int `json:"links" gate:"count"`
	InterHostLinks int `json:"inter_host_links" gate:"count"`
}

// JSONSeries aggregates every run of one (scenario, topology, heuristic)
// triple. Keying series by scenario keeps the drift gate sharp on a
// mixed-size matrix: a regression confined to the 10k-guest row cannot
// hide inside an aggregate over every ratio.
type JSONSeries struct {
	Scenario  string `json:"scenario" gate:"key"`
	Topology  string `json:"topology" gate:"key"`
	Heuristic string `json:"heuristic" gate:"key"`
	Runs      int    `json:"runs" gate:"count"`
	Valid     int    `json:"valid" gate:"count"`

	ObjectiveMean float64 `json:"objective_mean" gate:"moment"`
	ObjectiveStd  float64 `json:"objective_stddev" gate:"moment"`
	// ExpSecondsMean is the Table 3 cell: the mean simulated makespan
	// over the valid runs.
	ExpSecondsMean float64 `json:"exp_seconds_mean" gate:"moment"`
	// PlacementDigest folds every run's placements and routed edges (a
	// failed run's error text) in run order; see Run.Digest.
	PlacementDigest string `json:"placement_digest" gate:"digest"`

	// Mapping-time percentiles in seconds, over every run of the series
	// (failed attempts cost wall time too, so they are included).
	MapSecondsP50  float64 `json:"map_seconds_p50,omitempty" gate:"advisory"`
	MapSecondsP90  float64 `json:"map_seconds_p90,omitempty" gate:"advisory"`
	MapSecondsP99  float64 `json:"map_seconds_p99,omitempty" gate:"advisory"`
	MapSecondsMean float64 `json:"map_seconds_mean,omitempty" gate:"advisory"`
	MapSecondsMax  float64 `json:"map_seconds_max,omitempty" gate:"advisory"`

	// Stage times in seconds, HMN series only (the baselines have no
	// stages): the means of the three times core.StageStats took over the
	// same runs, and Networking's share of the mean mapping time — the
	// ratio Figure 1 plots, from the struct the CSV prints.
	HostingSecondsMean    float64 `json:"hosting_seconds_mean,omitempty" gate:"advisory"`
	MigrationSecondsMean  float64 `json:"migration_seconds_mean,omitempty" gate:"advisory"`
	NetworkingSecondsMean float64 `json:"networking_seconds_mean,omitempty" gate:"advisory"`
	NetworkingShare       float64 `json:"networking_share,omitempty" gate:"advisory"`
}

// JSONDocument is the one document hmnbench writes: the sweep's
// configuration, series and runs when it ran a sweep, and one block per
// other experiment it ran. A block the baseline does not carry gates
// nothing, so adding an experiment keeps older baselines valid.
type JSONDocument struct {
	Hosts      int          `json:"hosts" gate:"key"`
	Reps       int          `json:"reps" gate:"key"`
	Seed       int64        `json:"seed" gate:"key"`
	MaxTries   int          `json:"max_tries" gate:"key"`
	Topologies []string     `json:"topologies" gate:"key"`
	Heuristics []string     `json:"heuristics" gate:"key"`
	Series     []JSONSeries `json:"series"`
	Runs       []JSONRun    `json:"runs,omitempty"`
	// Federation holds one host pool as one cluster, four shards and
	// four shards with split admission (-federation).
	Federation *FederationResult `json:"federation,omitempty"`
	// Churn holds the admission churn, bare vs rebalanced (-churn).
	Churn *ChurnResult `json:"churn,omitempty"`
	// Gap holds the optimality gap against the exact solver (-gap).
	Gap *GapJSON `json:"gap,omitempty"`
	// Reservations holds the bandwidth-reservation ablation
	// (-reservations).
	Reservations *ReservationResult `json:"reservations,omitempty"`
}

// JSON assembles the document for a sweep. Runs keep the deterministic
// order RunSweep established; series are sorted by (scenario, topology,
// heuristic).
func (r *Results) JSON() JSONDocument {
	doc := JSONDocument{
		Hosts:    r.Config.Hosts,
		Reps:     r.Config.Reps,
		Seed:     r.Config.Seed,
		MaxTries: r.Config.MaxTries,
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
		objectives, expTimes, mapTimes []float64
		valid                          int
		digest                         []byte
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
		a.digest = binary.LittleEndian.AppendUint64(a.digest, run.Digest)
		a.hosting += run.Stages.HostingSeconds
		a.migration += run.Stages.MigrationSeconds
		a.networking += run.Stages.NetworkingSeconds
		if run.OK {
			a.valid++
			a.objectives = append(a.objectives, run.Objective)
			a.expTimes = append(a.expTimes, run.ExpSeconds)
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
		h := fnv.New64a()
		h.Write(a.digest)
		doc.Series = append(doc.Series, JSONSeries{
			Scenario:        k.scen,
			Topology:        k.topo.String(),
			Heuristic:       k.heur,
			Runs:            len(a.mapTimes),
			Valid:           a.valid,
			ObjectiveMean:   stats.Mean(a.objectives),
			ObjectiveStd:    stats.SampleStdDev(a.objectives),
			ExpSecondsMean:  stats.Mean(a.expTimes),
			PlacementDigest: fmt.Sprintf("%016x", h.Sum64()),
			MapSecondsP50:   stats.Percentile(a.mapTimes, 50),
			MapSecondsP90:   stats.Percentile(a.mapTimes, 90),
			MapSecondsP99:   stats.Percentile(a.mapTimes, 99),
			MapSecondsMean:  mapMean,
			MapSecondsMax:   stats.Max(a.mapTimes),

			HostingSecondsMean:    a.hosting / n,
			MigrationSecondsMean:  a.migration / n,
			NetworkingSecondsMean: netMean,
			NetworkingShare:       share,
		})
	}
	return doc
}

// Write renders the document as indented JSON.
func (d JSONDocument) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
	"repro/internal/workload"
)

// cellKey aggregates runs into table cells.
type cellKey struct {
	label     string
	topo      Topology
	heuristic string
}

type cell struct {
	objective  stats.Welford
	expSeconds stats.Welford
	mapSeconds stats.Welford
	interLinks stats.Welford
}

func (r *Results) cells() map[cellKey]*cell {
	out := map[cellKey]*cell{}
	for _, run := range r.Runs {
		k := cellKey{run.Scenario.Label(), run.Topology, run.Heuristic}
		c := out[k]
		if c == nil {
			c = &cell{}
			out[k] = c
		}
		if !run.OK {
			continue
		}
		c.objective.Add(run.Objective)
		c.expSeconds.Add(run.ExpSeconds)
		c.mapSeconds.Add(run.MapSeconds)
		c.interLinks.Add(float64(run.InterHostLinks))
	}
	return out
}

// scenarioLabels returns the configured scenarios in table order
// (high-level block first, then low-level, as the paper separates them).
func (r *Results) scenarioLabels() []Scenario {
	seen := map[string]bool{}
	var out []Scenario
	for _, sc := range r.Config.Scenarios {
		if !seen[sc.Label()] {
			seen[sc.Label()] = true
			out = append(out, sc)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		if out[i].Density != out[j].Density {
			return out[i].Density < out[j].Density
		}
		return out[i].Ratio < out[j].Ratio
	})
	return out
}

func (r *Results) renderMetricTable(title string, metric func(*cell) float64, format string) string {
	cells := r.cells()
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)

	heur := r.Config.Heuristics
	topos := r.Config.Topologies

	// Header.
	fmt.Fprintf(&b, "%-14s", "")
	for _, topo := range topos {
		fmt.Fprintf(&b, "| %-*s", 10*len(heur)-1, topo.String())
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-14s", "scenario")
	for range topos {
		b.WriteString("| ")
		for _, h := range heur {
			fmt.Fprintf(&b, "%-9s", h)
		}
	}
	b.WriteString("\n")

	lastClass := Class(-1)
	for _, sc := range r.scenarioLabels() {
		if lastClass != Class(-1) && sc.Class != lastClass {
			b.WriteString(strings.Repeat("-", 14+len(topos)*(2+9*len(heur))) + "\n")
		}
		lastClass = sc.Class
		fmt.Fprintf(&b, "%-14s", sc.Label())
		for _, topo := range topos {
			b.WriteString("| ")
			for _, h := range heur {
				c := cells[cellKey{sc.Label(), topo, h}]
				if c == nil || c.objective.N() == 0 {
					fmt.Fprintf(&b, "%-9s", "-")
					continue
				}
				fmt.Fprintf(&b, format, metric(c))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table2 renders the objective-function table with the total failure
// count per heuristic and cluster — the reproduction of the paper's
// Table 2. Cells are the mean objective over the successful repetitions;
// "-" marks scenarios where every repetition failed (the paper prints the
// same dash).
func (r *Results) Table2() string {
	out := r.renderMetricTable(
		"Table 2. Objective function and failures.",
		func(c *cell) float64 { return c.objective.Mean() },
		"%-9.1f",
	)
	var b strings.Builder
	b.WriteString(out)
	fmt.Fprintf(&b, "%-14s", "Failures")
	for _, topo := range r.Config.Topologies {
		b.WriteString("| ")
		for _, h := range r.Config.Heuristics {
			fmt.Fprintf(&b, "%-9d", r.FailureCount(topo, h))
		}
	}
	b.WriteString("\n")
	return b.String()
}

// Table3 renders the emulated-experiment execution time table — the
// reproduction of the paper's Table 3 ("Simulation time (seconds)").
func (r *Results) Table3() string {
	return r.renderMetricTable(
		"Table 3. Emulated experiment execution time (seconds).",
		func(c *cell) float64 { return c.expSeconds.Mean() },
		"%-9.3f",
	)
}

// MappingTimeTable renders the mean wall time each heuristic spent
// computing its mapping — the quantity §5.2 discusses alongside Figure 1
// ("the time to perform the mapping").
func (r *Results) MappingTimeTable() string {
	return r.renderMetricTable(
		"Mapping wall time (seconds).",
		func(c *cell) float64 { return c.mapSeconds.Mean() },
		"%-9.4f",
	)
}

// Figure1Point is one point of the Figure 1 series: HMN mapping time as a
// function of the number of virtual links actually routed.
type Figure1Point struct {
	Scenario     Scenario
	Links        float64 // mean virtual links in the environment
	MappedLinks  float64 // mean inter-host links actually routed
	MeanSeconds  float64
	StdDev       float64 // sample std-dev across repetitions
	NetworkShare float64 // fraction of mapping time spent in Networking
	Runs         int
}

// Figure1 extracts the Figure 1 series for the given topology: per
// scenario, the mean and standard deviation of HMN's mapping wall time
// against the mean number of virtual links mapped, sorted by link count.
// Failed runs are excluded (their partial times are not comparable).
func (r *Results) Figure1(topo Topology) []Figure1Point {
	type acc struct {
		sc      Scenario
		links   stats.Welford
		mapped  stats.Welford
		seconds []float64
		netSecs stats.Welford
		totSecs stats.Welford
	}
	byLabel := map[string]*acc{}
	for _, run := range r.Runs {
		if run.Heuristic != "HMN" || run.Topology != topo || !run.OK {
			continue
		}
		a := byLabel[run.Scenario.Label()]
		if a == nil {
			a = &acc{sc: run.Scenario}
			byLabel[run.Scenario.Label()] = a
		}
		a.links.Add(float64(run.Links))
		a.mapped.Add(float64(run.InterHostLinks))
		a.seconds = append(a.seconds, run.MapSeconds)
		a.netSecs.Add(run.Stages.NetworkingSeconds)
		a.totSecs.Add(run.MapSeconds)
	}
	// Emit in sorted label order: the final sort below breaks ties by
	// the order points were appended, so building out from a map range
	// would leak iteration order into the table when two scenarios map
	// the same number of links.
	labels := make([]string, 0, len(byLabel))
	for label := range byLabel {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	out := make([]Figure1Point, 0, len(labels))
	for _, label := range labels {
		a := byLabel[label]
		p := Figure1Point{
			Scenario:    a.sc,
			Links:       a.links.Mean(),
			MappedLinks: a.mapped.Mean(),
			MeanSeconds: stats.Mean(a.seconds),
			StdDev:      stats.SampleStdDev(a.seconds),
			Runs:        len(a.seconds),
		}
		if a.totSecs.Mean() > 0 {
			p.NetworkShare = a.netSecs.Mean() / a.totSecs.Mean()
		}
		out = append(out, p)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].MappedLinks < out[j].MappedLinks })
	return out
}

// Figure1Table renders the Figure 1 series as text.
func (r *Results) Figure1Table(topo Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1. HMN mapping time vs virtual links mapped (%s cluster).\n", topo)
	fmt.Fprintf(&b, "%-14s %10s %12s %12s %12s %10s\n",
		"scenario", "links", "mapped", "mean (s)", "stddev (s)", "net share")
	for _, p := range r.Figure1(topo) {
		fmt.Fprintf(&b, "%-14s %10.1f %12.1f %12.4f %12.4f %9.0f%%\n",
			p.Scenario.Label(), p.Links, p.MappedLinks, p.MeanSeconds, p.StdDev, 100*p.NetworkShare)
	}
	return b.String()
}

// Correlation returns the pooled Pearson correlation between the
// objective function and the emulated experiment's execution time across
// all successful runs — the §5.2 analysis (the paper reports 0.7).
func (r *Results) Correlation() float64 {
	var objs, times []float64
	for _, run := range r.Runs {
		if run.OK {
			objs = append(objs, run.Objective)
			times = append(times, run.ExpSeconds)
		}
	}
	return stats.Pearson(objs, times)
}

// CorrelationByClass returns the §5.2 correlation computed within each
// workload class. Pooling the two classes together mixes instances whose
// absolute scales differ (tiny low-level VMs produce small objective
// values at long makespans), which deflates the pooled coefficient; the
// within-class values are the comparable ones.
func (r *Results) CorrelationByClass() map[Class]float64 {
	objs := map[Class][]float64{}
	times := map[Class][]float64{}
	for _, run := range r.Runs {
		if run.OK {
			objs[run.Scenario.Class] = append(objs[run.Scenario.Class], run.Objective)
			times[run.Scenario.Class] = append(times[run.Scenario.Class], run.ExpSeconds)
		}
	}
	out := map[Class]float64{}
	for class := range objs {
		out[class] = stats.Pearson(objs[class], times[class])
	}
	return out
}

// CorrelationByScenario returns the §5.2 correlation within each
// scenario row (pooled over heuristics and repetitions), the most
// controlled view: every point shares the same workload distribution and
// differs only in mapping quality.
func (r *Results) CorrelationByScenario() map[string]float64 {
	objs := map[string][]float64{}
	times := map[string][]float64{}
	for _, run := range r.Runs {
		if run.OK {
			l := run.Scenario.Label()
			objs[l] = append(objs[l], run.Objective)
			times[l] = append(times[l], run.ExpSeconds)
		}
	}
	out := map[string]float64{}
	for l := range objs {
		out[l] = stats.Pearson(objs[l], times[l])
	}
	return out
}

// FailureCount returns the total failures for a heuristic on a topology.
func (r *Results) FailureCount(topo Topology, heuristic string) int {
	count := 0
	for _, run := range r.Runs {
		if run.Topology == topo && run.Heuristic == heuristic && !run.OK {
			count++
		}
	}
	return count
}

// Table1 renders the experiment setup exactly as Table 1 of the paper
// summarises it.
func Table1(hosts int) string {
	cp := workload.PaperClusterParams()
	cp.Hosts = hosts
	low := workload.LowLevelParams(0, 0.01)
	high := workload.HighLevelParams(0, 0)
	var b strings.Builder
	b.WriteString("Table 1. Summary of simulation setup.\n")
	fmt.Fprintf(&b, "%-11s %-24s %-22s %-22s\n", "", "Physical environment", "Low-level workload", "High-level workload")
	fmt.Fprintf(&b, "%-11s %-24s %-22s %-22s\n", "topology", "2-D Torus, Switched", "graph, density 0.01", "graph, density 0.015-0.025")
	fmt.Fprintf(&b, "%-11s %-24s %-22s %-22s\n", "bandwidth",
		fmt.Sprintf("%gGbps", workload.PhysLinkBW/1000),
		fmt.Sprintf("%g-%gkbps", low.BWMin*1000, low.BWMax*1000),
		fmt.Sprintf("%g-%gMbps", high.BWMin, high.BWMax))
	fmt.Fprintf(&b, "%-11s %-24s %-22s %-22s\n", "latency",
		fmt.Sprintf("%gms", workload.PhysLinkLat),
		fmt.Sprintf("%g-%gms", low.LatMin, low.LatMax),
		fmt.Sprintf("%g-%gms", high.LatMin, high.LatMax))
	fmt.Fprintf(&b, "%-11s %-24d %-22s %-22s\n", "nodes", cp.Hosts,
		fmt.Sprintf("%d-%d", 20*cp.Hosts, 50*cp.Hosts),
		fmt.Sprintf("%d-%d", int(2.5*float64(cp.Hosts)), 10*cp.Hosts))
	fmt.Fprintf(&b, "%-11s %-24s %-22s %-22s\n", "memory",
		fmt.Sprintf("%d-%dGB", cp.MemMin/1024, cp.MemMax/1024),
		fmt.Sprintf("%d-%dMB", low.MemMin, low.MemMax),
		fmt.Sprintf("%d-%dMB", high.MemMin, high.MemMax))
	fmt.Fprintf(&b, "%-11s %-24s %-22s %-22s\n", "storage",
		fmt.Sprintf("%g-%gTB", cp.StorMin/1000, cp.StorMax/1000),
		fmt.Sprintf("%g-%gGB", low.StorMin, low.StorMax),
		fmt.Sprintf("%g-%gGB", high.StorMin, high.StorMax))
	fmt.Fprintf(&b, "%-11s %-24s %-22s %-22s\n", "CPU",
		fmt.Sprintf("%g-%gMIPS", cp.ProcMin, cp.ProcMax),
		fmt.Sprintf("%g-%gMIPS", low.ProcMin, low.ProcMax),
		fmt.Sprintf("%g-%gMIPS", high.ProcMin, high.ProcMax))
	return b.String()
}

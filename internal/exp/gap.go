package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ga"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// GapConfig parameterises the optimality-gap experiment: HMN versus the
// exact branch-and-bound solver on instances small enough to solve to
// optimality. This experiment has no counterpart in the paper (which
// compares only against weaker heuristics); it quantifies how much
// objective the heuristic leaves on the table.
type GapConfig struct {
	Instances int   // default 30
	Hosts     int   // default 5
	Guests    int   // default 8
	Seed      int64 // default 1
	// Workers bounds concurrent instances; 0 means GOMAXPROCS. Any value
	// produces the same result: instances are seeded by index and merged
	// in index order.
	Workers int
}

// GapResult aggregates the experiment.
type GapResult struct {
	Instances  int       // instances where both HMN and exact succeeded
	Infeasible int       // instances both proved/declared infeasible
	HMNMissed  int       // instances exact solved but HMN failed
	Optimal    int       // instances where HMN hit the exact optimum
	Ratios     []float64 // HMN objective / optimal objective, per instance
	AbsGaps    []float64 // HMN objective - optimal objective (MIPS)
	Optima     []float64 // the optimal objectives, for scale

	// The same statistics for the ScopeAllHosts migration variant
	// ("HMN+"), the §6 extension the gap motivates.
	OptimalPlus int
	RatiosPlus  []float64

	// The same statistics for the memetic GA mapper (internal/ga) —
	// the related-work approach of the paper's reference [9].
	OptimalGA int
	RatiosGA  []float64
}

// GapJSON is the gap experiment's block of the JSON document: every
// field is a pure function of the seed and the instance count.
type GapJSON struct {
	Instances int       `json:"instances" gate:"count"`
	HMN       GapRatios `json:"hmn"`
	HMNPlus   GapRatios `json:"hmn_plus"`
	GA        GapRatios `json:"ga"`
}

// GapRatios is one heuristic's objective against the optimum over the
// solved instances: how often it hit the optimum, and the mean, median
// and worst ratio.
type GapRatios struct {
	Optimal     int     `json:"optimal" gate:"count"`
	RatioMean   float64 `json:"ratio_mean" gate:"moment"`
	RatioMedian float64 `json:"ratio_median" gate:"moment"`
	RatioMax    float64 `json:"ratio_max" gate:"moment"`
}

func gapRatios(optimal int, ratios []float64) GapRatios {
	return GapRatios{Optimal: optimal, RatioMean: stats.Mean(ratios),
		RatioMedian: stats.Percentile(ratios, 50), RatioMax: stats.Max(ratios)}
}

// JSON summarises the result for the JSON document.
func (g GapResult) JSON() *GapJSON {
	return &GapJSON{
		Instances: g.Instances,
		HMN:       gapRatios(g.Optimal, g.Ratios),
		HMNPlus:   gapRatios(g.OptimalPlus, g.RatiosPlus),
		GA:        gapRatios(g.OptimalGA, g.RatiosGA),
	}
}

// String renders the result for the CLI.
func (g GapResult) String() string {
	var b strings.Builder
	j := g.JSON()
	fmt.Fprintf(&b, "Optimality gap: HMN vs exact branch-and-bound on %d solved instances\n", g.Instances)
	fmt.Fprintf(&b, "  HMN optimal on %d/%d; objective ratio mean %.3f, median %.3f, worst %.3f\n",
		g.Optimal, g.Instances, j.HMN.RatioMean, j.HMN.RatioMedian, j.HMN.RatioMax)
	fmt.Fprintf(&b, "  absolute gap mean %.1f MIPS against optima averaging %.1f MIPS\n",
		stats.Mean(g.AbsGaps), stats.Mean(g.Optima))
	if len(g.RatiosPlus) > 0 {
		fmt.Fprintf(&b, "  HMN+ (all-hosts migration): optimal on %d/%d, ratio mean %.3f, worst %.3f\n",
			g.OptimalPlus, len(g.RatiosPlus), j.HMNPlus.RatioMean, j.HMNPlus.RatioMax)
	}
	if len(g.RatiosGA) > 0 {
		fmt.Fprintf(&b, "  memetic GA: optimal on %d/%d, ratio mean %.3f, worst %.3f\n",
			g.OptimalGA, len(g.RatiosGA), j.GA.RatioMean, j.GA.RatioMax)
	}
	if g.HMNMissed > 0 || g.Infeasible > 0 {
		fmt.Fprintf(&b, "  (%d instances infeasible for both, %d solved exactly but missed by HMN)\n",
			g.Infeasible, g.HMNMissed)
	}
	return b.String()
}

// RunGap draws random tiny instances (heterogeneous ring clusters,
// mid-weight guests) and solves each with HMN and with the exact solver
// under identical greedy routing semantics.
func RunGap(cfg GapConfig) GapResult {
	if cfg.Instances <= 0 {
		cfg.Instances = 30
	}
	if cfg.Hosts <= 0 {
		cfg.Hosts = 5
	}
	if cfg.Guests <= 0 {
		cfg.Guests = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	// Instances run across the worker pool; each derives its generator
	// stream from (Seed, index) alone and fills only its own slot, and the
	// slots are folded into the aggregate in index order afterwards, so
	// the result is the same for any worker count.
	outcomes := make([]gapOutcome, cfg.Instances)
	forEachIndexed(cfg.Instances, cfg.Workers, func(i int) {
		outcomes[i] = gapInstance(cfg, i)
	})

	var out GapResult
	for _, oc := range outcomes {
		switch oc.kind {
		case gapInfeasible:
			out.Infeasible++
		case gapMissed:
			out.HMNMissed++
		default:
			out.Instances++
			out.Ratios = append(out.Ratios, oc.ratio)
			out.AbsGaps = append(out.AbsGaps, oc.absGap)
			out.Optima = append(out.Optima, oc.optimum)
			if oc.optimal {
				out.Optimal++
			}
			if oc.gaOK {
				out.RatiosGA = append(out.RatiosGA, oc.gaRatio)
				if oc.gaOptimal {
					out.OptimalGA++
				}
			}
			if oc.plusOK {
				out.RatiosPlus = append(out.RatiosPlus, oc.plusRatio)
				if oc.plusOptimal {
					out.OptimalPlus++
				}
			}
		}
	}
	sort.Float64s(out.Ratios)
	return out
}

// gapOutcome is one instance's contribution to a GapResult.
type gapOutcome struct {
	kind    int // gapSolved / gapInfeasible / gapMissed
	ratio   float64
	absGap  float64
	optimum float64
	optimal bool

	gaOK, gaOptimal     bool
	gaRatio             float64
	plusOK, plusOptimal bool
	plusRatio           float64
}

const (
	gapSolved = iota
	gapInfeasible
	gapMissed
)

// gapStream tags the gap experiment's seed derivations so its instances
// share no stream with any other experiment family.
const gapStream = 0x6A70

// gapInstance draws and solves one tiny instance.
func gapInstance(cfg GapConfig, i int) gapOutcome {
	c, env := gapTestbed(cfg, i)
	res, exErr := exact.Solve(c, env, exact.Options{})
	m, hmnErr := (&core.HMN{}).Map(c, env)
	switch {
	case exErr != nil && hmnErr != nil:
		return gapOutcome{kind: gapInfeasible}
	case exErr == nil && hmnErr != nil:
		return gapOutcome{kind: gapMissed}
	case exErr == nil && hmnErr == nil:
		oc := gapOutcome{kind: gapSolved, optimum: res.Objective}
		hmnObj := m.Objective(cluster.VMMOverhead{})
		oc.ratio = 1.0
		if res.Objective > 0 {
			oc.ratio = hmnObj / res.Objective
		}
		oc.absGap = hmnObj - res.Objective
		oc.optimal = hmnObj <= res.Objective+1e-9
		// The memetic GA on the same instance.
		if mg, err := (&ga.Mapper{Rand: rand.New(rand.NewSource(cfg.Seed + int64(i)))}).Map(c, env); err == nil {
			gaObj := mg.Objective(cluster.VMMOverhead{})
			oc.gaOK = true
			oc.gaRatio = 1.0
			if res.Objective > 0 {
				oc.gaRatio = gaObj / res.Objective
			}
			oc.gaOptimal = gaObj <= res.Objective+1e-9
		}
		// The widened-migration variant on the same instance.
		if mp, err := (&core.HMN{Scope: core.ScopeAllHosts}).Map(c, env); err == nil {
			plusObj := mp.Objective(cluster.VMMOverhead{})
			oc.plusOK = true
			oc.plusRatio = 1.0
			if res.Objective > 0 {
				oc.plusRatio = plusObj / res.Objective
			}
			oc.plusOptimal = plusObj <= res.Objective+1e-9
		}
		return oc
	default:
		// HMN found a mapping where the exact solver failed: only
		// possible on a budget trip, which tiny instances never hit.
		panic("exp: exact solver failed where HMN succeeded: " + exErr.Error())
	}
}

// gapTestbed draws tiny instance i: a heterogeneous ring cluster and
// mid-weight guests. Everything random is derived from (cfg.Seed, i),
// never from a stream shared across instances, so instances are
// independent of execution order.
func gapTestbed(cfg GapConfig, i int) (*cluster.Cluster, *virtual.Env) {
	rng := rand.New(rand.NewSource(deriveSeed(cfg.Seed, gapStream, int64(i))))
	specs := workload.GenerateHosts(workload.ClusterParams{
		Hosts:   cfg.Hosts,
		ProcMin: 1000, ProcMax: 3000,
		MemMin: 1024, MemMax: 3072,
		StorMin: 1000, StorMax: 3000,
	}, rng)
	c, err := topology.Ring(specs, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		panic(err) // Hosts >= 3 enforced by defaults
	}
	env := workload.GenerateEnv(workload.VirtualParams{
		Guests:  cfg.Guests,
		Density: 0.3,
		ProcMin: 100, ProcMax: 400,
		MemMin: 256, MemMax: 1024,
		StorMin: 100, StorMax: 400,
		BWMin: 0.5, BWMax: 2,
		LatMin: 20, LatMax: 60,
	}, rng)
	return c, env
}

package exp

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ChurnConfig parameterises the admission-under-rebalancing benchmark:
// a long tenant churn (map a fresh environment, release the oldest once
// the pool is full) runs twice on identical clusters — once bare, once
// with a rebalancing round after every Every-th operation. The
// comparison quantifies both sides of the rebalancer's bargain: how much
// of the Eq. (10) objective the moves claw back after releases punch
// holes in the packing, and what the rounds cost per operation. The
// rounds run on the submitting goroutine, between operations, so every
// number but the latencies is a pure function of the seed.
type ChurnConfig struct {
	Hosts  int   // cluster size; default 40
	Ops    int   // churn operations; default 200
	Guests int   // guests per environment; default 20
	Active int   // live tenants the churn sustains; default 10
	Seed   int64 // default 1
	// Every is the rebalancing cadence in operations: one round after
	// every Every-th; default 2.
	Every int
	// MaxMoves caps guest moves per round; default 8.
	MaxMoves int
}

// ChurnResult aggregates both churn runs. Everything but the four
// latencies repeats exactly from the seed.
type ChurnResult struct {
	Ops    int `json:"ops" gate:"count"`
	Failed int `json:"failed" gate:"count"`
	// Moves and Rounds count the rebalancer's committed migrations and
	// its committing rounds during the churn (the final drain included),
	// Aborted the scored moves it skipped because their links could not
	// be re-routed.
	Moves   int `json:"moves" gate:"count"`
	Rounds  int `json:"rounds" gate:"count"`
	Aborted int `json:"aborted" gate:"count"`
	// ImprovementPerMove is the realized Eq. (10) objective drop per
	// committed guest move, averaged over every commit.
	ImprovementPerMove float64 `json:"improvement_per_move" gate:"moment"`
	// Objective trajectories: the mean over per-op samples and the final
	// value, bare vs rebalanced (the rebalanced run is drained to a local
	// optimum after the churn ends).
	ObjectiveMeanBase  float64 `json:"objective_mean_bare" gate:"moment"`
	ObjectiveMeanReb   float64 `json:"objective_mean_rebalanced" gate:"moment"`
	ObjectiveFinalBase float64 `json:"objective_final_bare" gate:"moment"`
	ObjectiveFinalReb  float64 `json:"objective_final_rebalanced" gate:"moment"`
	// Latency percentiles of one operation — the admission plus, when one
	// is due, the round behind it — in seconds, bare vs rebalanced.
	OpP50Base float64 `json:"op_p50_seconds_bare" gate:"advisory"`
	OpP99Base float64 `json:"op_p99_seconds_bare" gate:"advisory"`
	OpP50Reb  float64 `json:"op_p50_seconds_rebalanced" gate:"advisory"`
	OpP99Reb  float64 `json:"op_p99_seconds_rebalanced" gate:"advisory"`
}

// String renders the result for the CLI.
func (r ChurnResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Churn benchmark: %d ops (%d infeasible), rebalancer committed %d moves in %d rounds (%d scored moves skipped)\n",
		r.Ops, r.Failed, r.Moves, r.Rounds, r.Aborted)
	fmt.Fprintf(&b, "  Eq. (10) objective      bare      rebalanced\n")
	fmt.Fprintf(&b, "    mean over ops     %9.2f   %11.2f\n", r.ObjectiveMeanBase, r.ObjectiveMeanReb)
	fmt.Fprintf(&b, "    final             %9.2f   %11.2f\n", r.ObjectiveFinalBase, r.ObjectiveFinalReb)
	fmt.Fprintf(&b, "  objective improvement per migration: %.3f\n", r.ImprovementPerMove)
	fmt.Fprintf(&b, "  operation latency (ms)  bare      rebalanced\n")
	fmt.Fprintf(&b, "    p50               %9.3f   %11.3f\n", 1e3*r.OpP50Base, 1e3*r.OpP50Reb)
	fmt.Fprintf(&b, "    p99               %9.3f   %11.3f\n", 1e3*r.OpP99Base, 1e3*r.OpP99Reb)
	if r.OpP99Base > 0 {
		fmt.Fprintf(&b, "    p99 ratio         %9.2fx\n", r.OpP99Reb/r.OpP99Base)
	}
	return b.String()
}

// churnStream tags the churn benchmark's seed derivations so its
// instances share no stream with any other experiment family.
const churnStream = 0x4348

// RunChurn executes the benchmark: one bare run, one rebalanced run,
// identical schedules.
func RunChurn(cfg ChurnConfig) ChurnResult {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 40
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 200
	}
	if cfg.Guests <= 0 {
		cfg.Guests = 20
	}
	if cfg.Active <= 0 {
		cfg.Active = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Every <= 0 {
		cfg.Every = 2
	}
	if cfg.MaxMoves == 0 {
		cfg.MaxMoves = 8
	}

	base := churnRun(cfg, false)
	reb := churnRun(cfg, true)

	r := ChurnResult{
		Ops:                cfg.Ops,
		Failed:             base.failed,
		Moves:              reb.moves,
		Rounds:             reb.rounds,
		Aborted:            reb.aborted,
		ObjectiveMeanBase:  stats.Mean(base.objectives),
		ObjectiveMeanReb:   stats.Mean(reb.objectives),
		ObjectiveFinalBase: base.final,
		ObjectiveFinalReb:  reb.final,
		OpP50Base:          stats.Percentile(base.opSecs, 50),
		OpP99Base:          stats.Percentile(base.opSecs, 99),
		OpP50Reb:           stats.Percentile(reb.opSecs, 50),
		OpP99Reb:           stats.Percentile(reb.opSecs, 99),
	}
	if reb.moves > 0 {
		r.ImprovementPerMove = reb.improvement / float64(reb.moves)
	}
	return r
}

// churnOutcome is one run's raw measurements.
type churnOutcome struct {
	opSecs      []float64
	objectives  []float64
	final       float64
	failed      int
	moves       int
	rounds      int
	aborted     int
	improvement float64
}

// churnRun plays the deterministic churn schedule on a fresh session.
// The schedule is a pure function of cfg.Seed: environment i comes from
// (Seed, churnStream, i) and the release order is FIFO, so both runs
// submit the same tenants in the same order; the rebalanced one runs a
// round behind every cfg.Every-th operation.
func churnRun(cfg ChurnConfig, rebalanced bool) churnOutcome {
	specs := workload.GenerateHosts(clusterParams(cfg.Hosts),
		rand.New(rand.NewSource(deriveSeed(cfg.Seed, churnStream))))
	c, err := buildCluster(specs, Torus, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		panic(err)
	}
	s, err := core.NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		panic(err)
	}

	var out churnOutcome
	round := func(maxMoves int) {
		res := s.Rebalance(maxMoves)
		out.moves += res.Moves
		out.aborted += res.Skipped
		out.improvement += res.Gain
		if res.Moves > 0 {
			out.rounds++
		}
	}

	for i := 0; i < cfg.Ops; i++ {
		env := workload.GenerateEnv(workload.HighLevelParams(cfg.Guests, 0.02),
			rand.New(rand.NewSource(deriveSeed(cfg.Seed, churnStream, int64(i)))))
		start := time.Now() //hmn:wallclock
		_, _, err := s.MapTagged(env, fmt.Sprintf("e%d", i))
		if err != nil {
			if !errors.Is(err, core.ErrNoHostFits) && !errors.Is(err, core.ErrNoPath) {
				panic(err)
			}
			out.failed++
		}
		for s.Active() > cfg.Active {
			if err := s.Release(s.Export().Active[0].M); err != nil {
				panic(err)
			}
		}
		if rebalanced && (i+1)%cfg.Every == 0 {
			round(cfg.MaxMoves)
		}
		out.opSecs = append(out.opSecs, time.Since(start).Seconds()) //hmn:wallclock
		out.objectives = append(out.objectives, s.ObjectiveStdDev())
	}

	if rebalanced {
		// Drain to a local optimum so the final objective is the best the
		// descent can make of the end state, not where the last capped
		// round happened to stop.
		round(0)
	}
	out.final = s.ObjectiveStdDev()
	return out
}

package exp

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// HeuristicNames lists the four mappers of the evaluation in table order.
var HeuristicNames = []string{"HMN", "R", "RA", "HS"}

// Config parameterises a sweep. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// Hosts is the cluster size (the paper uses 40).
	Hosts int
	// Reps is the number of repetitions per scenario (the paper uses 30).
	Reps int
	// Seed derives every random stream of the sweep; a sweep is fully
	// reproducible from its Config.
	Seed int64
	// Overhead is the VMM overhead applied by every mapper.
	Overhead cluster.VMMOverhead
	// MaxTries is the retry budget of the random baselines. The paper
	// uses 100000; the default here is 300, which preserves every
	// qualitative failure pattern at a tractable cost (see
	// EXPERIMENTS.md for the sensitivity discussion).
	MaxTries int
	// Workers bounds the number of concurrent repetitions; 0 means
	// GOMAXPROCS.
	Workers int
	// Scenarios and Topologies select the matrix (defaults: the paper's).
	Scenarios  []Scenario
	Topologies []Topology
	// Heuristics selects mappers by name (subset of HeuristicNames).
	Heuristics []string
	// Experiment parameterises the emulated experiment of Table 3.
	Experiment sim.ExperimentConfig
}

// DefaultConfig returns the paper's full evaluation setup (with the retry
// budget reduced per the Config.MaxTries note).
func DefaultConfig() Config {
	return Config{
		Hosts:      40,
		Reps:       30,
		Seed:       1,
		MaxTries:   300,
		Scenarios:  PaperScenarios(),
		Topologies: []Topology{Torus, Switched},
		Heuristics: append([]string(nil), HeuristicNames...),
		// The compute phase dominates the emulated experiment so that its
		// makespan tracks per-host CPU load — the quantity Table 3
		// differentiates; a transfer floor as long as the tasks would
		// flatten every row to the (constant) reserved-bandwidth
		// transfer time.
		Experiment: sim.ExperimentConfig{BaseSeconds: 2, TransferSeconds: 0.05},
	}
}

// Run is one (scenario, topology, heuristic, repetition) outcome.
type Run struct {
	Scenario  Scenario
	Topology  Topology
	Heuristic string
	Rep       int

	OK         bool    // a valid mapping was found
	Err        string  // failure description when !OK
	Objective  float64 // Eq. 10 value (valid runs only)
	MapSeconds float64 // wall time of the mapping attempt
	ExpSeconds float64 // simulated experiment makespan (valid runs only)

	Guests         int
	Links          int
	InterHostLinks int // links actually routed over physical paths

	Stages core.StageStats // populated for HMN only
	// Digest is FNV-64a over the mapping's placements and routed edges,
	// or over the error text of a failed run (digestMapping).
	Digest uint64
}

// Results is the outcome of a sweep.
type Results struct {
	Config Config
	Runs   []Run
}

// Run executes the sweep described by cfg. Repetitions execute in
// parallel (bounded by cfg.Workers); results are deterministic for a
// given Config because every random stream is derived from Seed and the
// run coordinates, never from scheduling order.
func RunSweep(cfg Config) *Results {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 40
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	if cfg.MaxTries <= 0 {
		cfg.MaxTries = 300
	}
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = PaperScenarios()
	}
	if len(cfg.Topologies) == 0 {
		cfg.Topologies = []Topology{Torus, Switched}
	}
	if len(cfg.Heuristics) == 0 {
		cfg.Heuristics = append([]string(nil), HeuristicNames...)
	}
	if cfg.Experiment.BaseSeconds == 0 && cfg.Experiment.TransferSeconds == 0 {
		cfg.Experiment = DefaultConfig().Experiment
	}
	// One replication job per (scenario, rep); each writes only its own
	// slot and seeds every stream from its coordinates, so any worker
	// count yields the same outcome set (see forEachIndexed).
	type job struct {
		scenario int
		rep      int
	}
	jobs := make([]job, 0, len(cfg.Scenarios)*cfg.Reps)
	for si := range cfg.Scenarios {
		for rep := 0; rep < cfg.Reps; rep++ {
			jobs = append(jobs, job{si, rep})
		}
	}
	slots := make([][]Run, len(jobs))
	forEachIndexed(len(jobs), cfg.Workers, func(i int) {
		slots[i] = runOne(cfg, jobs[i].scenario, jobs[i].rep)
	})
	var runs []Run
	for _, rs := range slots {
		runs = append(runs, rs...)
	}

	// Deterministic order regardless of scheduling.
	sort.Slice(runs, func(i, j int) bool {
		a, b := runs[i], runs[j]
		if a.Scenario.Label() != b.Scenario.Label() {
			return a.Scenario.Label() < b.Scenario.Label()
		}
		if a.Rep != b.Rep {
			return a.Rep < b.Rep
		}
		if a.Topology != b.Topology {
			return a.Topology < b.Topology
		}
		return a.Heuristic < b.Heuristic
	})
	return &Results{Config: cfg, Runs: runs}
}

// runOne executes every (topology, heuristic) pair for one scenario
// repetition, sharing the same generated hosts and virtual environment —
// per §5.1 "the cluster topology has been built with the same set of
// hosts", and sharing the environment makes the heuristic comparison
// paired.
func runOne(cfg Config, si, rep int) []Run {
	sc := cfg.Scenarios[si]
	hosts := sc.HostsFor(cfg.Hosts)
	genSeed := deriveSeed(cfg.Seed, int64(si), int64(rep), 0)
	rng := rand.New(rand.NewSource(genSeed))
	specs := workload.GenerateHosts(clusterParams(hosts), rng)
	env := workload.GenerateEnv(sc.Params(hosts), rng)

	var out []Run
	for _, topo := range cfg.Topologies {
		c, err := buildCluster(specs, topo, sc.LinkBWFor(workload.PhysLinkBW), sc.LinkLatFor(workload.PhysLinkLat))
		if err != nil {
			panic(fmt.Sprintf("exp: cannot build %v cluster: %v", topo, err))
		}
		for _, name := range cfg.Heuristics {
			// A mapper's seed follows its name, not its place in the
			// list, so a subset of the heuristics reproduces their cells
			// of the full sweep.
			hi := slices.Index(HeuristicNames, name)
			mapperSeed := deriveSeed(cfg.Seed, int64(si), int64(rep), int64(100+hi+int(topo)*10))
			out = append(out, execute(cfg, sc, topo, name, rep, c, env, mapperSeed))
		}
	}
	return out
}

func clusterParams(hosts int) workload.ClusterParams {
	p := workload.PaperClusterParams()
	p.Hosts = hosts
	return p
}

// buildCluster assembles the physical cluster for a topology. The torus
// uses the most square factorisation of the host count. linkBW and
// linkLat are the physical interconnect parameters
// (workload.PhysLinkBW/PhysLinkLat for the paper's fabric).
func buildCluster(specs []topology.HostSpec, topo Topology, linkBW, linkLat float64) (*cluster.Cluster, error) {
	switch topo {
	case Switched:
		return topology.Switched(specs, workload.SwitchPorts, linkBW, linkLat)
	default:
		rows, cols := torusDims(len(specs))
		return topology.Torus2D(specs, rows, cols, linkBW, linkLat)
	}
}

// torusDims factors n into the most square rows x cols grid.
func torusDims(n int) (rows, cols int) {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return n / best, best
}

// execute runs one mapper on one prepared instance.
func execute(cfg Config, sc Scenario, topo Topology, name string, rep int, c *cluster.Cluster, env *virtual.Env, seed int64) Run {
	r := Run{
		Scenario:  sc,
		Topology:  topo,
		Heuristic: name,
		Rep:       rep,
		Guests:    env.NumGuests(),
		Links:     env.NumLinks(),
	}

	expCfg := cfg.Experiment
	expCfg.Overhead = cfg.Overhead

	var (
		m   *mapping.Mapping
		err error
	)
	start := time.Now() //hmn:wallclock
	if name == "HMN" {
		m, r.Stages, err = (&core.HMN{Overhead: cfg.Overhead}).MapWithStats(c, env)
	} else {
		m, err = newBaseline(name, cfg, seed).Map(c, env)
	}
	r.MapSeconds = time.Since(start).Seconds() //hmn:wallclock
	h := fnv.New64a()
	digestMapping(h, m, err)
	r.Digest = h.Sum64()
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.OK = true
	r.Objective = m.Objective(cfg.Overhead)
	r.InterHostLinks = m.Summarize(cfg.Overhead).InterHostLinks
	r.ExpSeconds = sim.RunExperiment(m, expCfg).Makespan
	return r
}

// digestMapping hashes m's placement and every path's edges, each as
// four little-endian bytes, with a separator (-1) before each path so
// trivial paths count too; a failed mapping hashes its error text
// instead.
func digestMapping(h hash.Hash64, m *mapping.Mapping, err error) {
	if err != nil {
		h.Write([]byte(err.Error()))
		return
	}
	var buf []byte
	for _, n := range m.GuestHost {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	}
	for _, p := range m.LinkPath {
		buf = binary.LittleEndian.AppendUint32(buf, ^uint32(0))
		for _, e := range p.Edges {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
		}
	}
	h.Write(buf)
}

func newBaseline(name string, cfg Config, seed int64) core.Mapper {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "R":
		return &baseline.Random{Overhead: cfg.Overhead, MaxTries: cfg.MaxTries, Rand: rng}
	case "RA":
		return &baseline.Random{Overhead: cfg.Overhead, MaxTries: cfg.MaxTries, Rand: rng, UseAStar: true}
	case "HS":
		return &baseline.HostingSearch{Overhead: cfg.Overhead, MaxTries: cfg.MaxTries, Rand: rng}
	default:
		panic(fmt.Sprintf("exp: unknown heuristic %q", name))
	}
}

// deriveSeed mixes the sweep seed with run coordinates into an
// independent stream seed (splitmix64-style finaliser).
func deriveSeed(parts ...int64) int64 {
	var z uint64 = 0x9E3779B97F4A7C15
	for _, p := range parts {
		z ^= uint64(p) + 0x9E3779B97F4A7C15 + (z << 6) + (z >> 2)
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 31
	}
	return int64(z >> 1) // keep it positive
}

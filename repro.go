// Package repro is the public API of the HMN reproduction — a Go library
// for mapping virtual machines and virtual links onto emulation testbeds,
// after "A Heuristic for Mapping Virtual Machines and Links in Emulation
// Testbeds" (Calheiros, Buyya, De Rose — ICPP 2009).
//
// The library solves the combined placement-and-routing problem of the
// paper: assign every guest (virtual machine) of a virtual environment to
// a host of a physical cluster without exceeding any host's memory or
// storage, route every virtual link between guests over a loop-free
// physical path without exceeding any physical link's bandwidth or the
// virtual link's latency budget, and balance the residual CPU across
// hosts (the heuristic's objective).
//
// # Quick start
//
//	hosts := repro.GenerateHosts(repro.PaperClusterParams(), rng)
//	cl, _ := repro.Torus2D(hosts, 8, 5, 1000, 5)
//	env := repro.GenerateEnv(repro.HighLevelParams(100, 0.02), rng)
//	m, err := repro.NewHMN().Map(cl, env)
//	// m.GuestHost[g] is guest g's host; m.LinkPath[l] is link l's path.
//
// Alongside the HMN heuristic the package exposes the paper's three
// baselines (NewRandom, NewRandomAStar, NewHostingSearch), a CloudSim-like
// discrete-event simulator for executing emulated experiments on a
// mapping (RunExperiment), and the full evaluation harness that
// regenerates every table and figure of the paper (RunSweep and the
// renderers on Results).
package repro

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/exact"
	"repro/internal/exp"
	"repro/internal/ga"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/viz"
	"repro/internal/workload"
)

// Physical environment types.
type (
	// Cluster is a physical cluster: a network graph plus the subset of
	// nodes that are hosts.
	Cluster = cluster.Cluster
	// Host is one workstation with CPU (MIPS), memory (MB) and storage
	// (GB) capacities.
	Host = cluster.Host
	// VMMOverhead is the per-host resource share consumed by the virtual
	// machine monitor, deducted before mapping.
	VMMOverhead = cluster.VMMOverhead
	// Ledger tracks residual host and link resources during mapping.
	Ledger = cluster.Ledger
	// HostSpec describes one host for the topology builders.
	HostSpec = topology.HostSpec
	// NodeID identifies a node (host or switch) of the cluster graph.
	NodeID = graph.NodeID
	// Path is a physical route: node sequence plus traversed edges.
	Path = graph.Path
	// Graph is the physical network multigraph.
	Graph = graph.Graph
)

// Virtual environment types.
type (
	// Env is a virtual environment: guests plus virtual links.
	Env = virtual.Env
	// Guest is one virtual machine and its resource demands.
	Guest = virtual.Guest
	// GuestID identifies a guest within its environment.
	GuestID = virtual.GuestID
	// VLink is one virtual link with bandwidth and latency requirements.
	VLink = virtual.Link
)

// Mapping types.
type (
	// Mapping assigns every guest to a host and every virtual link to a
	// physical path; Validate checks it against the formal constraints
	// Eq. (1)-(9) of the paper.
	Mapping = mapping.Mapping
	// MappingStats summarises a mapping for reporting.
	MappingStats = mapping.Stats
	// Mapper is any algorithm solving the mapping problem.
	Mapper = core.Mapper
	// HMN is the paper's Hosting-Migration-Networking heuristic.
	HMN = core.HMN
	// StageStats breaks an HMN run down by stage.
	StageStats = core.StageStats
	// GA is the memetic genetic-algorithm mapper after the related work
	// the paper cites (Liu et al. [9]); seeded with HMN's placement, it
	// never does worse and closes most of the optimality gap on small
	// instances.
	GA = ga.Mapper
)

// Evaluation types.
type (
	// ExperimentConfig parameterises the emulated experiment run on a
	// mapping.
	ExperimentConfig = sim.ExperimentConfig
	// ExperimentResult is the outcome of an emulated experiment.
	ExperimentResult = sim.Result
	// SweepConfig parameterises a full evaluation sweep.
	SweepConfig = exp.Config
	// SweepResults carries a sweep's runs and table renderers.
	SweepResults = exp.Results
	// Scenario is one row of the evaluation matrix.
	Scenario = exp.Scenario
	// ClusterParams parameterises random host generation.
	ClusterParams = workload.ClusterParams
	// VirtualParams parameterises random virtual-environment generation.
	VirtualParams = workload.VirtualParams
)

// Evaluation enums.
const (
	// Torus selects the 2-D torus cluster topology in sweeps.
	Torus = exp.Torus
	// Switched selects the cascaded-switch cluster topology in sweeps.
	Switched = exp.Switched
	// HighLevel marks grid/cloud middleware workloads (Table 1).
	HighLevel = exp.HighLevel
	// LowLevel marks P2P protocol workloads (Table 1).
	LowLevel = exp.LowLevel
)

// Errors surfaced by the mappers.
var (
	// ErrNoHostFits: some guest's memory/storage demands fit on no host.
	ErrNoHostFits = core.ErrNoHostFits
	// ErrNoPath: some virtual link admits no feasible physical path.
	ErrNoPath = core.ErrNoPath
	// ErrNoPathBandwidth and ErrNoPathLatency are ErrNoPath's two causes
	// (errors.Is matches either against ErrNoPath too): no path has the
	// bandwidth to spare, or none that does meets the latency budget.
	ErrNoPathBandwidth = core.ErrNoPathBandwidth
	ErrNoPathLatency   = core.ErrNoPathLatency
	// ErrRetriesExhausted: a random baseline ran out of retries.
	ErrRetriesExhausted = baseline.ErrRetriesExhausted
)

// Unassigned marks a guest that has not been placed yet.
const Unassigned = mapping.Unassigned

// NewHMN returns the paper's heuristic with no VMM overhead. Its two
// fields set the overhead and widen Migration's donor scope; every
// choice the paper fixes stays fixed.
func NewHMN() *HMN { return &core.HMN{} }

// NewRandom returns the R baseline: random placement plus randomized
// depth-first link search, retrying the whole mapping.
func NewRandom(rng *rand.Rand) Mapper { return &baseline.Random{Rand: rng} }

// NewRandomAStar returns the RA baseline: random placement plus the
// modified A*Prune link mapping.
func NewRandomAStar(rng *rand.Rand) Mapper { return &baseline.Random{Rand: rng, UseAStar: true} }

// NewHostingSearch returns the HS baseline: HMN's Hosting stage plus
// randomized depth-first link search, retrying only the link stage.
func NewHostingSearch(rng *rand.Rand) Mapper { return &baseline.HostingSearch{Rand: rng} }

// NewMapping returns an empty mapping of env onto c (every guest
// unassigned) for callers that construct placements by hand.
func NewMapping(c *Cluster, env *Env) *Mapping { return mapping.New(c, env) }

// NewEnv returns an empty virtual environment to be populated with
// AddGuest and AddLink.
func NewEnv() *Env { return virtual.NewEnv() }

// NewCluster assembles a cluster from an explicit network graph and host
// list; most callers use the topology builders instead.
func NewCluster(net *Graph, hosts []Host) (*Cluster, error) { return cluster.New(net, hosts) }

// NewGraph returns an empty physical network graph with n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewLedger returns a residual-resource ledger for c with the VMM
// overhead deducted.
func NewLedger(c *Cluster, overhead VMMOverhead) (*Ledger, error) {
	return cluster.NewLedger(c, overhead)
}

// Topology builders (see internal/topology for the full set).
var (
	// Torus2D builds a rows x cols 2-D torus of hosts.
	Torus2D = topology.Torus2D
	// SwitchedCluster builds a cascade of fixed-port switches.
	SwitchedCluster = topology.Switched
	// Ring builds a host ring.
	Ring = topology.Ring
	// Line builds an open host chain.
	Line = topology.Line
	// Star attaches every host to one central switch.
	Star = topology.Star
	// FullMesh links every host pair directly.
	FullMesh = topology.FullMesh
	// SwitchTree hangs hosts off a balanced switch tree.
	SwitchTree = topology.SwitchTree
	// FatTree builds a k-ary fat-tree fabric ((k^3)/4 hosts).
	FatTree = topology.FatTree
	// RandomConnected wires hosts with a random connected graph.
	RandomConnected = topology.RandomConnected
)

// Workload generators (Table 1 presets).
var (
	// PaperClusterParams: 40 hosts, 1000-3000 MIPS, 1-3GB, 1-3TB.
	PaperClusterParams = workload.PaperClusterParams
	// GenerateHosts draws host specs from ClusterParams.
	GenerateHosts = workload.GenerateHosts
	// HighLevelParams: Table 1's high-level workload column.
	HighLevelParams = workload.HighLevelParams
	// LowLevelParams: Table 1's low-level workload column.
	LowLevelParams = workload.LowLevelParams
	// GenerateEnv draws a connected random virtual environment.
	GenerateEnv = workload.GenerateEnv
)

// RunExperiment executes the emulated experiment on a valid mapping and
// returns its makespan and per-guest finish times (the Table 3 quantity).
func RunExperiment(m *Mapping, cfg ExperimentConfig) ExperimentResult {
	return sim.RunExperiment(m, cfg)
}

// RunSweep executes an evaluation sweep (Tables 2-3, Figure 1, the
// correlation analysis) as configured.
func RunSweep(cfg SweepConfig) *SweepResults { return exp.RunSweep(cfg) }

// DefaultSweepConfig returns the paper's full evaluation setup.
func DefaultSweepConfig() SweepConfig { return exp.DefaultConfig() }

// PaperScenarios returns the 16 scenario rows of Tables 2 and 3.
func PaperScenarios() []Scenario { return exp.PaperScenarios() }

// QuickScenarios returns a reduced scenario matrix for smoke runs.
func QuickScenarios() []Scenario { return exp.QuickScenarios() }

// Session is the multi-tenant incremental testbed: several virtual
// environments mapped onto one cluster over time, with release returning
// every resource (the paper's §6 multi-tester vision).
type Session = core.Session

// NewSession opens a multi-tenant session on c. mapper selects the
// per-environment algorithm (nil = HMN); only an *HMN is accepted.
func NewSession(c *Cluster, overhead VMMOverhead, mapper Mapper) (*Session, error) {
	return core.NewSession(c, overhead, mapper)
}

// Deployment plan types: the per-host artifacts (VM definitions, traffic
// shaping, forwarding entries) that realise a mapping on a real testbed.
type (
	// DeployPlan is the full per-host deployment of a mapping.
	DeployPlan = deploy.Plan
	// HostPlan is one host's share of a deployment.
	HostPlan = deploy.HostPlan
)

// BuildDeployPlan converts a validated mapping into per-host deployment
// artifacts: VM specs with overlay IPs, shaping rules imposing each
// virtual link's emulated bandwidth and latency, and forwarding entries
// for multi-hop paths.
func BuildDeployPlan(m *Mapping, overhead VMMOverhead) (*DeployPlan, error) {
	return deploy.Build(m, overhead)
}

// Exact-solver types (internal/exact): the optimality yardstick for
// small instances.
type (
	// ExactOptions tunes the branch-and-bound solver.
	ExactOptions = exact.Options
	// ExactResult carries the optimum and its proof status.
	ExactResult = exact.Result
)

// SolveOptimal finds the placement minimising the objective function on
// a small instance by branch-and-bound (see internal/exact for the
// optimality guarantees and routing modes).
func SolveOptimal(c *Cluster, env *Env, opts ExactOptions) (*ExactResult, error) {
	return exact.Solve(c, env, opts)
}

// Visualization: Graphviz DOT renderings.
var (
	// WriteClusterDOT renders the physical topology.
	WriteClusterDOT = viz.WriteClusterDOT
	// WriteMappingDOT renders guests grouped into hosts with their
	// virtual links.
	WriteMappingDOT = viz.WriteMappingDOT
	// WriteUsageDOT renders per-link bandwidth reservations.
	WriteUsageDOT = viz.WriteUsageDOT
)

// AStarPrune exposes the modified 1-constrained A*Prune path search of
// Algorithm 1 for callers routing individual flows: it returns a
// loop-free path from origin to dest with at least bw Mbps of residual
// bandwidth on every edge and total latency within lat ms, maximising the
// bottleneck bandwidth. residual[e] is the spare capacity of edge e (use
// (*Ledger).Residuals, or (*Graph).NominalBandwidth for an unloaded
// network).
func AStarPrune(g *Graph, origin, dest NodeID, bw, lat float64, residual []float64) (Path, bool) {
	return graph.AStarPrune(g, origin, dest, bw, lat, residual, nil)
}

// Objective evaluates the paper's load-balance objective (Eq. 10) on a
// residual-CPU vector: its population standard deviation.
func Objective(residualProc []float64) float64 { return mapping.Objective(residualProc) }

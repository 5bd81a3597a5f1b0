// Package core implements the paper's primary contribution: the
// Hosting-Migration-Networking (HMN) heuristic (§4) for mapping a virtual
// environment onto an emulation testbed. The three stages run in
// sequence:
//
//   - Hosting (§4.1) finds a preliminary guest-to-host assignment that
//     co-locates guests joined by high-bandwidth virtual links, to spare
//     physical bandwidth for the links that cannot be internalised.
//   - Migration (§4.2) rebalances the assignment, repeatedly moving a
//     cheap-to-move guest off the most loaded host whenever doing so
//     lowers the load-balance objective (Eq. 10).
//   - Networking (§4.3) routes every remaining inter-host virtual link
//     over a physical path with the modified 1-constrained A*Prune of
//     Algorithm 1, maximising bottleneck bandwidth under the latency
//     budget.
//
// The heuristic fails — as the paper's does — when some guest fits on no
// host (ErrNoHostFits) or some virtual link admits no feasible path
// (ErrNoPath).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// Mapper is anything that can solve the mapping problem of §3.2. The
// returned mapping satisfies constraints Eq. (1)-(9) (callers can confirm
// with Mapping.Validate); on failure the error wraps one of the sentinel
// errors of this package or of the baselines.
type Mapper interface {
	// Name returns the short identifier used in result tables
	// (e.g. "HMN", "R", "RA", "HS").
	Name() string
	// Map computes a full mapping of v onto c, or fails.
	Map(c *cluster.Cluster, v *virtual.Env) (*mapping.Mapping, error)
}

// ErrNoHostFits is returned when the Hosting stage finds a guest whose
// memory/storage demands fit on no host (§4.1: "If in some moment no host
// supports an unassigned guest, the heuristic fails").
var ErrNoHostFits = errors.New("core: no host fits guest")

// ErrNoPath is returned when the Networking stage cannot route a virtual
// link (§4.3: "If in some moment a path for a virtual link cannot be
// found, the heuristic fails").
var ErrNoPath = errors.New("core: no feasible path for virtual link")

// ErrNoPathBandwidth and ErrNoPathLatency are the two ways a link ends
// in ErrNoPath (errors.Is matches both against it): no path between the
// two hosts has the link's bandwidth to spare, whatever its latency; or
// some do, and none of those meets the latency budget.
var (
	ErrNoPathBandwidth = fmt.Errorf("%w: no path has the bandwidth to spare", ErrNoPath)
	ErrNoPathLatency   = fmt.Errorf("%w: no path with the bandwidth meets the latency budget", ErrNoPath)
)

// LinkOrder selects the order the Networking stage maps virtual links in.
// The paper prescribes descending bandwidth; the alternatives exist for
// the ablation benchmarks.
type LinkOrder int

const (
	// OrderDescendingBW maps the most demanding links first (the paper's
	// choice, §4.3).
	OrderDescendingBW LinkOrder = iota
	// OrderAscendingBW maps the least demanding links first (ablation).
	OrderAscendingBW
	// OrderRandom maps links in random order (ablation; requires Rand).
	OrderRandom
)

// LoadMetric selects how the Migration stage ranks host load. The paper
// balances absolute residual CPU (Eq. 10); the utilisation variant exists
// for the ablation study of DESIGN.md §7.
type LoadMetric int

const (
	// LoadResidualMIPS ranks hosts by residual CPU in MIPS: the most
	// loaded host is the one with the least CPU left (paper-faithful —
	// the objective function is the stddev of exactly this quantity).
	LoadResidualMIPS LoadMetric = iota
	// LoadUtilization ranks hosts by demand/capacity ratio instead.
	LoadUtilization
)

// HMN is the Hosting-Migration-Networking heuristic. The zero value is a
// valid paper-faithful configuration with no VMM overhead; the optional
// fields exist for the ablation benchmarks.
type HMN struct {
	// Overhead is deducted from every host before mapping (§3.1).
	Overhead cluster.VMMOverhead

	// DisableMigration skips stage 2, isolating its contribution.
	DisableMigration bool

	// DisableHostResort keeps the Hosting stage's host list in its
	// initial CPU order instead of re-sorting after every placement.
	DisableHostResort bool

	// NetworkOrder overrides the order links are routed in.
	NetworkOrder LinkOrder

	// Metric overrides how Migration ranks host load.
	Metric LoadMetric

	// Scope widens Migration's donor set (ScopeAllHosts descends from
	// any host instead of only the most loaded one — a §6 extension).
	Scope MigrationScope

	// AStar tunes the A*Prune search (expansion cap, dominance pruning).
	AStar graph.AStarPruneOptions

	// Rand supplies randomness for OrderRandom; unused otherwise.
	Rand *rand.Rand

	// MaxMigrations caps stage 2's accepted moves; 0 means the natural
	// termination rule ("while the load balance factor improves").
	MaxMigrations int
}

// Name implements Mapper.
func (h *HMN) Name() string { return "HMN" }

// Map runs the three HMN stages and returns a complete, constraint-
// satisfying mapping of v onto c, or an error wrapping ErrNoHostFits /
// ErrNoPath describing the first unplaceable guest or unroutable link.
func (h *HMN) Map(c *cluster.Cluster, v *virtual.Env) (*mapping.Mapping, error) {
	m, _, err := h.MapWithStats(c, v)
	return m, err
}

// StageStats breaks an HMN run down by stage, for the Figure 1
// reproduction (which attributes mapping time to the Networking stage)
// and the migration ablation.
type StageStats struct {
	HostingSeconds    float64
	MigrationSeconds  float64
	NetworkingSeconds float64
	Migration         MigrationStats
	// Route counts the Networking stage's A*Prune work: searches run,
	// candidates popped and pushed. Unlike the times it repeats exactly.
	Route graph.SearchStats
}

// MapWithStats is Map plus per-stage wall times and migration counters.
// On error the stats cover the stages that ran before the failure.
func (h *HMN) MapWithStats(c *cluster.Cluster, v *virtual.Env) (*mapping.Mapping, StageStats, error) {
	var st StageStats
	led, err := cluster.NewLedger(c, h.Overhead)
	if err != nil {
		return nil, st, fmt.Errorf("HMN: %w", err)
	}
	m := mapping.New(c, v)

	hi := newHostIndex(led, !h.DisableHostResort)
	defer led.SetProcHook(nil)

	t0 := time.Now() //hmn:wallclock
	if err := hostingIndexed(led, v, m.GuestHost, hi); err != nil {
		st.HostingSeconds = time.Since(t0).Seconds() //hmn:wallclock
		return nil, st, fmt.Errorf("HMN hosting stage: %w", err)
	}
	st.HostingSeconds = time.Since(t0).Seconds() //hmn:wallclock

	if !h.DisableMigration {
		t1 := time.Now() //hmn:wallclock
		st.Migration.ObjectiveBefore = mapping.Objective(led.ResidualProcAll())
		st.Migration.Moves = migrateScoped(led, v, m.GuestHost, h.Metric, h.MaxMigrations, h.Scope, hi, nil)
		st.Migration.ObjectiveAfter = mapping.Objective(led.ResidualProcAll())
		st.MigrationSeconds = time.Since(t1).Seconds() //hmn:wallclock
	}

	// A scratch of the attempt's own, empty but for the A*Prune state:
	// the stage allocates its buffers as a one-shot mapper always has,
	// and leaves its search counts where they can be read.
	ms := &mapScratch{astar: graph.NewAStarScratch()}
	t2 := time.Now() //hmn:wallclock
	err = network(led, v, m.GuestHost, m.LinkPath, h.NetworkOrder, h.AStar, h.Rand, nil, ms)
	st.NetworkingSeconds = time.Since(t2).Seconds() //hmn:wallclock
	st.Route = ms.route
	if err != nil {
		return nil, st, fmt.Errorf("HMN networking stage: %w", err)
	}
	return m, st, nil
}

// HostingStage runs HMN's Hosting stage (§4.1) alone on an existing
// ledger: assign must start all mapping.Unassigned; on success every
// entry holds a host node and the ledger carries the reservations. It
// exists for the HS baseline, which combines the paper's hosting with a
// DFS link search, and for tests that exercise the stage in isolation.
func HostingStage(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID) error {
	return hosting(led, v, assign, true)
}

// MigrationStage runs HMN's Migration stage (§4.2) alone on an existing
// ledger carrying the reservations behind assign, with the paper's load
// metric and donor scope. It returns the number of accepted moves, and
// exists for benchmarks and tests that isolate the stage.
func MigrationStage(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID) int {
	hi := newHostIndex(led, true)
	defer led.SetProcHook(nil)
	return migrateScoped(led, v, assign, LoadResidualMIPS, 0, ScopeMostLoaded, hi, nil)
}

var _ Mapper = (*HMN)(nil)

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
	return mapOnce(h, h.Overhead, c, v, newARCache())
}

// stagedMapper is what differs between the mappers that run the paper's
// pipeline — HMN and HMN-C: the second stage and the options of the
// other two. stages is the pipeline; a Session drives it incrementally
// through this interface, so only these mappers can run in one (the
// retrying baselines rebuild their ledgers internally).
type stagedMapper interface {
	Mapper
	// stageOptions returns the Hosting and Networking options.
	stageOptions() stageOptions
	// stage2 runs the mapper's second stage on the placements Hosting
	// left in assign — HMN's Migration (§4.2), HMN-C's consolidation —
	// moving the reservations on led with them. hi is the attempt's live
	// host index. It cannot fail: a move that does not help is not made.
	stage2(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, hi *hostIndex, ms *mapScratch, st *MigrationStats)
}

// stageOptions are the knobs of stages 1 and 3 a stagedMapper sets.
type stageOptions struct {
	// hostResort keeps the Hosting stage's host order live across
	// placements (the paper's rule; false is the DisableHostResort
	// ablation).
	hostResort bool
	// skipStage2 goes from Hosting straight to Networking.
	skipStage2 bool
	// order, astar and rng are the Networking stage's link order, A*Prune
	// tuning and randomness (OrderRandom only).
	order LinkOrder
	astar graph.AStarPruneOptions
	rng   *rand.Rand
}

// mapOnce is a one-shot Mapper.Map: the pipeline on a fresh ledger of
// c's full capacity less the VMM overhead. arc is a fresh cache; on the
// uncut ledger it fills with exactly graph.DijkstraLatency's tables.
func mapOnce(mp stagedMapper, overhead cluster.VMMOverhead, c *cluster.Cluster, v *virtual.Env, arc *arCache) (*mapping.Mapping, StageStats, error) {
	var st StageStats
	led, err := cluster.NewLedger(c, overhead)
	if err != nil {
		return nil, st, fmt.Errorf("%s: %w", mp.Name(), err)
	}
	m := mapping.New(c, v)
	ms := getMapScratch()
	err = stages(mp, led, v, m, arc, ms, &st)
	putMapScratch(ms)
	if err != nil {
		return nil, st, err
	}
	return m, st, nil
}

// stages is the paper's §4 pipeline — Hosting, the mapper's second
// stage, Networking — on led, which carries the reservations of whatever
// is already deployed: guest placements go into m.GuestHost, paths into
// m.LinkPath, the reservations behind both onto led. It is the only
// function that sequences the stages and the only one that reads the
// clock for them: a one-shot Map, a session admission and a repair's
// full re-map all run this body, and st is where Figure 1, hmnbench's
// JSON and hmnd's /metrics get their stage times. On error st covers the
// stages that ran before the failure, and led holds a partial mapping
// the caller discards with it.
//
// One host index serves the first two stages; its ledger hook is
// detached before returning so the ledger outlives the attempt hook-free.
// Hosting and Networking walk the links in the same strict order
// (bandwidth descending, ID ascending), so they are sorted once unless
// an ablation routes in another.
func stages(mp stagedMapper, led *cluster.Ledger, v *virtual.Env, m *mapping.Mapping, arc *arCache, ms *mapScratch, st *StageStats) error {
	o := mp.stageOptions()
	t0 := time.Now() //hmn:wallclock
	hi := newHostIndex(led, o.hostResort, ms)
	defer led.SetProcHook(nil)
	links := sortLinksByBW(v, nil, true, ms)
	err := hosting(led, v, m.GuestHost, hi, links)
	t1 := time.Now() //hmn:wallclock
	st.HostingSeconds = t1.Sub(t0).Seconds()
	if err != nil {
		return fmt.Errorf("%s hosting stage: %w", mp.Name(), err)
	}

	t2 := t1
	if !o.skipStage2 {
		mp.stage2(led, v, m.GuestHost, hi, ms, &st.Migration)
		t2 = time.Now() //hmn:wallclock
		st.MigrationSeconds = t2.Sub(t1).Seconds()
	}

	if o.order != OrderDescendingBW {
		links = orderLinks(v, nil, o.order, o.rng, ms)
	}
	before := ms.route
	err = routeLinks(led, v, m.GuestHost, m.LinkPath, links, o.astar, arc, ms)
	st.NetworkingSeconds = time.Since(t2).Seconds() //hmn:wallclock
	st.Route = ms.route.Sub(before)
	if err != nil {
		return fmt.Errorf("%s networking stage: %w", mp.Name(), err)
	}
	return nil
}

// stageOptions implements stagedMapper.
func (h *HMN) stageOptions() stageOptions {
	return stageOptions{
		hostResort: !h.DisableHostResort,
		skipStage2: h.DisableMigration,
		order:      h.NetworkOrder,
		astar:      h.AStar,
		rng:        h.Rand,
	}
}

// HostingStage runs HMN's Hosting stage (§4.1) alone on an existing
// ledger: assign must start all mapping.Unassigned; on success every
// entry holds a host node and the ledger carries the reservations. It
// exists for the HS baseline, which combines the paper's hosting with a
// DFS link search, and for tests that exercise the stage in isolation.
func HostingStage(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID) error {
	ms := getMapScratch()
	defer putMapScratch(ms)
	hi := newHostIndex(led, true, ms)
	defer led.SetProcHook(nil)
	return hosting(led, v, assign, hi, sortLinksByBW(v, nil, true, ms))
}

var _ stagedMapper = (*HMN)(nil)

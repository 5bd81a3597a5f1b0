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

// HMN is the Hosting-Migration-Networking heuristic. The zero value is
// the paper's configuration with no VMM overhead.
type HMN struct {
	// Overhead is deducted from every host before mapping (§3.1).
	Overhead cluster.VMMOverhead

	// Scope widens Migration's donor set (ScopeAllHosts descends from
	// any host instead of only the most loaded one — a §6 extension).
	Scope MigrationScope
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
// reproduction (which attributes mapping time to the Networking stage);
// Migration says what stage 2 did to the objective Hosting left.
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
// On error the stats cover the stages that ran before the failure. It
// runs the pipeline on a fresh ledger of c's full capacity less h's VMM
// overhead, with latency tables of its own.
func (h *HMN) MapWithStats(c *cluster.Cluster, v *virtual.Env) (*mapping.Mapping, StageStats, error) {
	var st StageStats
	led, err := cluster.NewLedger(c, h.Overhead)
	if err != nil {
		return nil, st, fmt.Errorf("HMN: %w", err)
	}
	m := mapping.New(c, v)
	ms := getMapScratch()
	err = stages(h, led, v, m, new(latencyTables), ms, &st)
	putMapScratch(ms)
	if err != nil {
		return nil, st, err
	}
	return m, st, nil
}

// stages is the paper's §4 pipeline — Hosting, Migration, Networking — on
// led, which carries the reservations of whatever is already deployed:
// guest placements go into m.GuestHost, paths into m.LinkPath, the
// reservations behind both onto led. It is the only function that
// sequences the stages and the only one that reads the clock for them: a
// one-shot Map, a session admission and a repair's full re-map all run
// this body, and st is where Figure 1, hmnbench's JSON and hmnd's
// /metrics get their stage times. On error st covers the stages that ran
// before the failure, and led holds a partial mapping the caller
// discards with it.
//
// One host index serves the first two stages; its ledger hook is
// detached before returning so the ledger outlives the attempt hook-free.
// Hosting and Networking walk the links in the same strict order
// (bandwidth descending, ID ascending), so they are sorted once.
func stages(h *HMN, led *cluster.Ledger, v *virtual.Env, m *mapping.Mapping, lt *latencyTables, ms *mapScratch, st *StageStats) error {
	t0 := time.Now() //hmn:wallclock
	hi := newHostIndex(led, ms)
	defer led.SetProcHook(nil)
	links := sortLinksByBW(v, nil, ms)
	err := hosting(led, v, m.GuestHost, hi, links)
	t1 := time.Now() //hmn:wallclock
	st.HostingSeconds = t1.Sub(t0).Seconds()
	if err != nil {
		return fmt.Errorf("HMN hosting stage: %w", err)
	}

	h.stage2(led, v, m.GuestHost, hi, ms, &st.Migration)
	t2 := time.Now() //hmn:wallclock
	st.MigrationSeconds = t2.Sub(t1).Seconds()

	before := ms.route
	err = routeLinks(led, v, m.GuestHost, m.LinkPath, links, lt, ms)
	st.NetworkingSeconds = time.Since(t2).Seconds() //hmn:wallclock
	st.Route = ms.route.Sub(before)
	if err != nil {
		return fmt.Errorf("HMN networking stage: %w", err)
	}
	return nil
}

// HostingStage runs HMN's Hosting stage (§4.1) alone on an existing
// ledger: assign must start all mapping.Unassigned; on success every
// entry holds a host node and the ledger carries the reservations. It
// exists for the HS baseline, which combines the paper's hosting with a
// DFS link search, and for tests that exercise the stage in isolation.
func HostingStage(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID) error {
	ms := getMapScratch()
	defer putMapScratch(ms)
	hi := newHostIndex(led, ms)
	defer led.SetProcHook(nil)
	return hosting(led, v, assign, hi, sortLinksByBW(v, nil, ms))
}

package core

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/virtual"
)

// MigrationScope selects which hosts stage 2 may migrate from.
type MigrationScope int

const (
	// ScopeMostLoaded is the paper's rule: only the most loaded host
	// donates, and the stage ends when no move from it improves the
	// objective (§4.2).
	ScopeMostLoaded MigrationScope = iota
	// ScopeAllHosts is the §6 "better heuristics" extension: when the
	// most loaded host offers no improving move, the next most loaded
	// hosts are tried before giving up — full steepest descent over
	// single-guest moves. Strictly at least as good an objective for
	// strictly more work; the optimality-gap experiment quantifies both.
	ScopeAllHosts
)

// improvementEps returns the shared stage-2 acceptance threshold: a
// candidate move is accepted only when it lowers the Eq. (10) objective
// by more than this margin. Exact and incremental modes share the one
// threshold so FP noise near zero — where a full recompute and the
// running Σx/Σx² evaluation disagree in the last few ulps — cannot make
// the two modes diverge in move count or final assignment. The margin
// scales with the current objective and is floored at an absolute 1e-9
// for objectives under 1. The migrate commit funnel applies the same
// threshold, so a background rebalancer cannot accept a move the
// admission-time stage would reject.
func ImprovementEps(current float64) float64 {
	const rel = 1e-9
	if current > 1 {
		return rel * current
	}
	return rel
}

// moveStep records one accepted stage-2 migration. The property tests
// pass a trace to pin exact and incremental mode to identical move
// *sequences*, not merely final objectives within a tolerance.
type moveStep struct {
	guest    virtual.GuestID
	from, to graph.NodeID
}

// migrate is HMN stage 2 (§4.2): it improves load balance by reassigning
// guests away from the most loaded host. At every iteration:
//
//   - the most loaded host is selected as the migration origin;
//   - the guest chosen to move is the one on that host with the smallest
//     total bandwidth of virtual links to co-located guests (moving it
//     internalises the least traffic, minimising later physical-link use);
//   - candidate destinations are tried from the least loaded host upward;
//     the first host that fits the guest *and* lowers the load-balance
//     factor (Eq. 10) receives it.
//
// The process repeats while the load-balance factor improves; when no
// move from the most loaded host helps, the stage ends. maxMoves > 0 caps
// the number of accepted migrations (ablation); 0 means unbounded.
//
// The function mutates assign and the ledger in place. It cannot fail:
// a migration either strictly improves the objective or is not performed.
func migrate(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, metric LoadMetric, maxMoves int) int {
	return migrateScoped(led, v, assign, metric, maxMoves, ScopeMostLoaded, nil, false, nil, nil)
}

// migrateScoped is migrate with a selectable donor scope (see
// MigrationScope), an optional live host index from the Hosting stage
// (hi may be nil), and an exact-objective reference mode.
//
// The Eq. (10) objective is evaluated from the ledger's running Σx/Σx²:
// each what-if is a single DeltaStdDev call — O(1), no ledger mutation —
// instead of the seed's release/reserve/full-recompute/undo dance (O(H)
// per candidate, O(H²) per round). With exact set — by the property
// tests only, which cross-check both modes against each other — every
// what-if recomputes the population stddev from scratch.
//
// Under the paper's LoadResidualMIPS metric, "ascending load" is exactly
// the host index's (residual desc, node asc) order, so a live tracking
// index replaces the per-attempt destination sort outright.
func migrateScoped(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, metric LoadMetric, maxMoves int, scope MigrationScope, hi *hostIndex, exact bool, trace *[]moveStep, ms *mapScratch) int {
	c := led.Cluster()
	nh := c.NumHosts()
	if nh < 2 {
		return 0
	}

	// The stage's working sets — host node list, per-host guest rosters,
	// the donor worklist and the live-order snapshot — come from ms when
	// a session threads one through, so the admission hot path reuses
	// them; nil allocates per call as before. Rosters are keyed by dense
	// host index (the map the seed kept allocated one bucket chain plus
	// one growing slice per host per admission).
	var hosts, donors, liveSnap []graph.NodeID
	var onHost [][]virtual.GuestID
	if ms != nil {
		ms.migHosts = nodesFor(ms.migHosts, nh)
		hosts = ms.migHosts
		if cap(ms.migOnHost) < nh {
			ms.migOnHost = make([][]virtual.GuestID, nh)
		}
		ms.migOnHost = ms.migOnHost[:nh]
		onHost = ms.migOnHost
		for i := range onHost {
			onHost[i] = onHost[i][:0]
		}
		ms.migDonors = nodesFor(ms.migDonors, nh)
		donors = ms.migDonors[:0]
		ms.migLive = nodesFor(ms.migLive, nh)
		liveSnap = ms.migLive[:0]
	} else {
		hosts = make([]graph.NodeID, nh)
		onHost = make([][]virtual.GuestID, nh)
	}
	for i, h := range c.Hosts() {
		hosts[i] = h.Node
	}

	// Guests per host, maintained incrementally.
	for g, node := range assign {
		onHost[c.HostIdx(node)] = append(onHost[c.HostIdx(node)], virtual.GuestID(g))
	}

	load := func(node graph.NodeID) float64 {
		switch metric {
		case LoadUtilization:
			h, _ := c.HostAt(node)
			if h.Proc <= 0 {
				return 0
			}
			return 1 - led.ResidualProc(node)/h.Proc
		default:
			// Most loaded == least residual CPU; negate so that larger
			// means more loaded under both metrics.
			return -led.ResidualProc(node)
		}
	}

	objective := func() float64 {
		if exact {
			//hmn:exactobjective
			return stats.PopStdDev(led.ResidualProcAll())
		}
		return led.ObjectiveStdDev()
	}

	// destinations returns the candidate hosts in ascending load order.
	// With a live index under the residual-MIPS metric that order already
	// exists; otherwise it is built per attempt. Exact mode keeps the
	// per-attempt copy: its what-ifs mutate the ledger, which would
	// reorder a live index mid-iteration.
	//
	// The live order is snapshotted per attempt, never aliased: the
	// failed-reserve path below releases and re-reserves the victim,
	// and each of those mutations re-sorts hi.order in place through
	// the ledger's proc hook. A range over the live slice would then
	// continue at the same position in a permuted array — skipping
	// hosts it has not tried or revisiting ones it has. One scratch
	// buffer is reused across attempts, so the snapshot costs a copy,
	// not an allocation.
	liveIndex := hi != nil && hi.track && metric != LoadUtilization && !exact
	destinations := func() []graph.NodeID {
		if liveIndex {
			liveSnap = append(liveSnap[:0], hi.order...)
			return liveSnap
		}
		cand := append([]graph.NodeID(nil), hosts...)
		slices.SortFunc(cand, func(a, b graph.NodeID) int {
			la, lb := load(a), load(b)
			if la != lb {
				if la < lb {
					return -1
				}
				return 1
			}
			return int(a) - int(b)
		})
		return cand
	}

	// tryMoveFrom attempts the paper's move from one donor host: pick the
	// cheapest victim (smallest co-located bandwidth) and the first
	// destination, least loaded first, that fits it and lowers the
	// objective. Reports whether a move was committed.
	tryMoveFrom := func(origin graph.NodeID, current float64) bool {
		eps := ImprovementEps(current)
		guests := onHost[c.HostIdx(origin)]
		// Victim: guest with the smallest total vbw to co-located guests.
		victim := guests[0]
		best := coLocatedBW(v, assign, victim)
		for _, g := range guests[1:] {
			if w := coLocatedBW(v, assign, g); w < best || (w == best && g < victim) {
				victim, best = g, w
			}
		}
		guest := v.Guest(victim)

		for _, dest := range destinations() {
			if dest == origin {
				continue
			}
			if !led.Fits(dest, guest.Mem, guest.Stor) {
				continue
			}
			improves := false
			if exact {
				// What-if by mutation: only origin and dest residuals
				// change, recompute the objective in full, undo unless it
				// improved.
				led.ReleaseGuest(origin, guest.Proc, guest.Mem, guest.Stor)
				if err := led.ReserveGuest(dest, guest.Proc, guest.Mem, guest.Stor); err != nil {
					// Fits was checked; only a racing mutation could land
					// here. Restore and skip.
					mustReserve(led, origin, guest)
					continue
				}
				if objective()-current < -eps {
					improves = true
				} else {
					led.ReleaseGuest(dest, guest.Proc, guest.Mem, guest.Stor)
					mustReserve(led, origin, guest)
				}
			} else if led.DeltaStdDev(origin, dest, guest.Proc) < -eps {
				led.ReleaseGuest(origin, guest.Proc, guest.Mem, guest.Stor)
				if err := led.ReserveGuest(dest, guest.Proc, guest.Mem, guest.Stor); err != nil {
					mustReserve(led, origin, guest)
					continue
				}
				improves = true
			}
			if improves {
				assign[victim] = dest
				oi, di := c.HostIdx(origin), c.HostIdx(dest)
				onHost[oi] = removeGuest(onHost[oi], victim)
				onHost[di] = append(onHost[di], victim)
				if trace != nil {
					*trace = append(*trace, moveStep{guest: victim, from: origin, to: dest})
				}
				return true
			}
		}
		return false
	}

	moves := 0
	for {
		if maxMoves > 0 && moves >= maxMoves {
			return moves
		}
		current := objective()

		// Donors: hosts with guests, most loaded first (ties by node ID
		// for determinism). Hosts without guests are skipped — on a
		// heterogeneous cluster a weak host may have the least residual
		// CPU while running nothing, and it offers no guest to migrate.
		donors = donors[:0]
		for i, n := range hosts {
			if len(onHost[i]) > 0 {
				donors = append(donors, n)
			}
		}
		if len(donors) == 0 {
			return moves
		}
		slices.SortFunc(donors, func(a, b graph.NodeID) int {
			la, lb := load(a), load(b)
			if la != lb {
				if la > lb {
					return -1
				}
				return 1
			}
			return int(a) - int(b)
		})
		if scope == ScopeMostLoaded {
			donors = donors[:1]
		}

		moved := false
		for _, origin := range donors {
			if tryMoveFrom(origin, current) {
				moves++
				moved = true
				break
			}
		}
		if !moved {
			return moves
		}
	}
}

func mustReserve(led *cluster.Ledger, node graph.NodeID, g virtual.Guest) {
	if err := led.ReserveGuest(node, g.Proc, g.Mem, g.Stor); err != nil {
		panic("core: failed to restore a released reservation: " + err.Error())
	}
}

// coLocatedBW sums the bandwidth of g's virtual links whose other
// endpoint currently shares g's host — the migration cost metric of §4.2.
func coLocatedBW(v *virtual.Env, assign []graph.NodeID, g virtual.GuestID) float64 {
	node := assign[g]
	total := 0.0
	for _, lid := range v.LinksOf(g) {
		link := v.Link(lid)
		if assign[link.Other(g)] == node {
			total += link.BW
		}
	}
	return total
}

func removeGuest(gs []virtual.GuestID, g virtual.GuestID) []virtual.GuestID {
	for i, x := range gs {
		if x == g {
			return append(gs[:i], gs[i+1:]...)
		}
	}
	return gs
}

// MigrationStats reports what stage 2 did; exposed for the ablation
// benchmarks through HMN.MapWithStats.
type MigrationStats struct {
	Moves           int
	ObjectiveBefore float64
	ObjectiveAfter  float64
}

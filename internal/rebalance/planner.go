// Package rebalance is the online re-optimization layer: a background
// scheduler that undoes the fragmentation long-lived sessions accumulate
// as environments arrive and depart. The paper's Migration stage (§4.2)
// runs only at admission time; this package keeps running it, against
// the live residuals, for the lifetime of the session.
//
// Each round takes a core.PlanView (a private snapshot of the ledger and
// every deployed environment's placements), proposes improving
// single-guest moves — the §4.2 rule: cheapest victim off the most
// loaded host, least loaded destination first — and, when no single move
// improves, pairwise destination swaps in the style of Avin, Dunay and
// Schmid, "Simple Destination-Swap Strategies for Adaptive Intra- and
// Inter-Tenant VM Migration" (arXiv:1309.5826). Candidates are scored
// with the ledger's O(1) DeltaStdDev / DeltaStdDevSwap what-ifs, so a
// round costs roughly one pass over hosts and guests, not one objective
// recompute per candidate.
//
// Accepted moves are then ordered for headroom, after Wang et al., "VM
// Migration Planning in Software-Defined Networks" (arXiv:1412.4980): a
// live migration temporarily double-occupies its destination (the guest
// runs on both hosts while state copies), so the plan greedily schedules
// the move whose destination has the largest memory slack at its turn,
// updating simulated residuals as it goes. Commits go through
// core.Session.MigrateGuests — one lock-hold: re-validate the plan,
// re-route on the session's scratch snapshot, commit via cluster.Txn —
// and every committed plan is logged by the session's commit hook as a WAL
// migrate record with a matching ReplayMigrate.
package rebalance

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/virtual"
)

// Unit is one atomic migration the planner proposes: a single-guest move
// or a pairwise destination swap (two guest moves that commit, or fail,
// together — neither may fit alone).
type Unit struct {
	// Moves is the unit's guest relocations (one for a move, two for a
	// swap), in the canonical seq/guest order.
	Moves []core.GuestMove
	// Delta is the predicted Eq. (10) change on the planning snapshot
	// (negative: improves).
	Delta float64
	// Swap marks a pairwise destination swap.
	Swap bool
}

// guestRef locates one guest of one deployed environment in a plan view.
type guestRef struct {
	envIdx int
	seq    uint64
	id     virtual.GuestID
	proc   float64
	mem    int64
	stor   float64
}

// planner is the working state of one planning pass. It owns the view —
// the ledger clone and the placement copies are mutated as units are
// accepted, so each round scores against the post-move state.
type planner struct {
	view  core.PlanView
	led   *cluster.Ledger
	hosts []graph.NodeID
	on    map[graph.NodeID][]guestRef
}

// Plan proposes up to maxMoves guest relocations (a swap counts as two)
// that each lower the Eq. (10) objective on the view by more than the
// shared stage-2 epsilon, returned in headroom order (see package
// comment). maxMoves <= 0 means unbounded; planning then stops when no
// candidate improves. The view is consumed: its ledger and placement
// copies are mutated during planning.
func Plan(view core.PlanView, maxMoves int) []Unit {
	p := &planner{
		view:  view,
		led:   view.Ledger,
		hosts: view.Ledger.Cluster().HostNodes(),
		on:    make(map[graph.NodeID][]guestRef),
	}
	if len(p.hosts) < 2 {
		return nil
	}
	for i := range view.Envs {
		pe := &view.Envs[i]
		for g, node := range pe.GuestHost {
			gid := virtual.GuestID(g)
			guest := pe.Env.Guest(gid)
			p.on[node] = append(p.on[node], guestRef{
				envIdx: i, seq: pe.Seq, id: gid,
				proc: guest.Proc, mem: guest.Mem, stor: guest.Stor,
			})
		}
	}

	var units []Unit
	moves := 0
	for maxMoves <= 0 || moves < maxMoves {
		u, ok := p.nextUnit(maxMoves > 0 && maxMoves-moves < 2)
		if !ok {
			break
		}
		units = append(units, u)
		moves += len(u.Moves)
	}
	return orderByHeadroom(units, p.view)
}

// nextUnit proposes the round's best unit and applies it to the planning
// state. noSwaps suppresses swap candidates when the remaining move
// budget cannot fit two guest moves.
//
//hmn:noalloc
func (p *planner) nextUnit(noSwaps bool) (Unit, bool) {
	donors := p.donorOrder()
	if len(donors) == 0 {
		return Unit{}, false
	}
	dests := p.destOrder()
	eps := core.ImprovementEps(p.led.ObjectiveStdDev())

	// Single-guest moves first: a swap migrates two guests for one
	// objective step, so it is only worth the churn when no single move
	// helps. Donors are scanned most-loaded first, §4.2's victim rule
	// picks the guest, and the first improving destination wins.
	for _, origin := range donors {
		ref, ok := p.victim(origin)
		if !ok {
			continue
		}
		for _, dest := range dests {
			if dest == origin || !p.led.Fits(dest, ref.mem, ref.stor) {
				continue
			}
			delta := p.led.DeltaStdDev(origin, dest, ref.proc)
			if delta < -eps {
				u := Unit{Moves: []core.GuestMove{p.move(ref, origin, dest)}, Delta: delta} //hmn:allocok one slice per accepted unit; candidate scoring above is allocation-free
				p.apply(ref, origin, dest)
				return u, true
			}
		}
	}
	if noSwaps {
		return Unit{}, false
	}

	// Destination swaps: pair the most loaded donors with the least
	// loaded hosts and look for the guest pair whose exchange improves
	// the objective most while the *net* demand shift fits both sides.
	// This finds rebalancing moves single migration cannot: exchanging a
	// heavy guest for a light one when neither host has slack for a
	// one-way move.
	for _, a := range donors {
		if u, ok := p.bestSwapFrom(a, dests, eps); ok {
			p.apply2(u)
			return u, true
		}
	}
	return Unit{}, false
}

// bestSwapFrom scores every guest pair between donor a and the candidate
// destinations (least loaded first) and returns the best improving,
// feasible swap. The first destination offering any improving pair wins
// — mirroring the §4.2 "first destination that improves" rule — with the
// best pair chosen within that destination.
//
//hmn:noalloc
func (p *planner) bestSwapFrom(a graph.NodeID, dests []graph.NodeID, eps float64) (Unit, bool) {
	for _, b := range dests {
		if b == a || p.led.Quarantined(b) || p.led.Quarantined(a) {
			continue
		}
		best := Unit{}
		found := false
		for _, ga := range p.on[a] {
			for _, gb := range p.on[b] {
				delta := p.led.DeltaStdDevSwap(a, b, ga.proc, gb.proc)
				if delta >= -eps || (found && delta >= best.Delta) {
					continue
				}
				// Net feasibility (what cluster.Txn validates): b takes
				// ga and frees gb, a the reverse.
				if p.led.ResidualMem(b) < ga.mem-gb.mem || p.led.ResidualStor(b) < ga.stor-gb.stor {
					continue
				}
				if p.led.ResidualMem(a) < gb.mem-ga.mem || p.led.ResidualStor(a) < gb.stor-ga.stor {
					continue
				}
				best = Unit{
					Moves: []core.GuestMove{p.move(ga, a, b), p.move(gb, b, a)}, //hmn:allocok one slice per improving pair found; scoring rejects without allocating
					Delta: delta,
					Swap:  true,
				}
				found = true
			}
		}
		if found {
			return best, true
		}
	}
	return Unit{}, false
}

// donorOrder returns the hosts currently holding guests, most loaded
// (least residual CPU) first, node ascending on ties.
func (p *planner) donorOrder() []graph.NodeID {
	var donors []graph.NodeID
	for _, n := range p.hosts {
		if len(p.on[n]) > 0 && !p.led.Quarantined(n) {
			donors = append(donors, n)
		}
	}
	sort.Slice(donors, func(i, j int) bool {
		ri, rj := p.led.ResidualProc(donors[i]), p.led.ResidualProc(donors[j])
		if ri != rj {
			return ri < rj
		}
		return donors[i] < donors[j]
	})
	return donors
}

// destOrder returns every host, least loaded (most residual CPU) first,
// node ascending on ties — §4.2's destination scan order.
func (p *planner) destOrder() []graph.NodeID {
	dests := append([]graph.NodeID(nil), p.hosts...)
	sort.Slice(dests, func(i, j int) bool {
		ri, rj := p.led.ResidualProc(dests[i]), p.led.ResidualProc(dests[j])
		if ri != rj {
			return ri > rj
		}
		return dests[i] < dests[j]
	})
	return dests
}

// victim picks §4.2's migration victim on origin: the guest with the
// smallest total bandwidth to co-located guests (ties: lower seq, then
// lower guest ID), so moving it internalises the least traffic.
//
//hmn:noalloc
func (p *planner) victim(origin graph.NodeID) (guestRef, bool) {
	refs := p.on[origin]
	if len(refs) == 0 {
		return guestRef{}, false
	}
	best, bestBW := refs[0], p.coLocatedBW(refs[0])
	for _, r := range refs[1:] {
		w := p.coLocatedBW(r)
		if w < bestBW || (w == bestBW && (r.seq < best.seq || (r.seq == best.seq && r.id < best.id))) {
			best, bestBW = r, w
		}
	}
	return best, true
}

// coLocatedBW sums the bandwidth of ref's virtual links whose other
// endpoint currently shares its host — the §4.2 migration cost metric,
// evaluated within ref's own environment.
//
//hmn:noalloc
func (p *planner) coLocatedBW(ref guestRef) float64 {
	pe := &p.view.Envs[ref.envIdx]
	node := pe.GuestHost[ref.id]
	total := 0.0
	for _, lid := range pe.Env.LinksOf(ref.id) {
		link := pe.Env.Link(lid)
		if pe.GuestHost[link.Other(ref.id)] == node {
			total += link.BW
		}
	}
	return total
}

func (p *planner) move(ref guestRef, from, to graph.NodeID) core.GuestMove {
	return core.GuestMove{Seq: ref.seq, Guest: ref.id, From: from, To: to}
}

// apply commits one accepted guest relocation to the planning state:
// ledger residuals, per-host guest lists and the placement copy.
func (p *planner) apply(ref guestRef, from, to graph.NodeID) {
	p.led.ReleaseGuest(from, ref.proc, ref.mem, ref.stor)
	if err := p.led.ReserveGuest(to, ref.proc, ref.mem, ref.stor); err != nil {
		// Fits/feasibility was checked on this private ledger; a refusal
		// means the planner's own bookkeeping is broken.
		panic("rebalance: planning reservation failed: " + err.Error())
	}
	on := p.on[from]
	for i, r := range on {
		if r.envIdx == ref.envIdx && r.id == ref.id {
			p.on[from] = append(on[:i], on[i+1:]...)
			break
		}
	}
	p.on[to] = append(p.on[to], ref)
	p.view.Envs[ref.envIdx].GuestHost[ref.id] = to
}

// apply2 commits a swap unit to the planning state. The swap was
// validated on net demands, so the heavier side releases first.
func (p *planner) apply2(u Unit) {
	for _, mv := range u.Moves {
		for _, r := range p.on[mv.From] {
			if r.seq == mv.Seq && r.id == mv.Guest {
				p.led.ReleaseGuest(mv.From, r.proc, r.mem, r.stor)
				break
			}
		}
	}
	for _, mv := range u.Moves {
		pe := &p.view.Envs[p.envIdxOf(mv.Seq)]
		guest := pe.Env.Guest(mv.Guest)
		if err := p.led.ReserveGuest(mv.To, guest.Proc, guest.Mem, guest.Stor); err != nil {
			panic("rebalance: planning swap reservation failed: " + err.Error())
		}
		ref := guestRef{envIdx: p.envIdxOf(mv.Seq), seq: mv.Seq, id: mv.Guest,
			proc: guest.Proc, mem: guest.Mem, stor: guest.Stor}
		on := p.on[mv.From]
		for i, r := range on {
			if r.seq == mv.Seq && r.id == mv.Guest {
				p.on[mv.From] = append(on[:i], on[i+1:]...)
				break
			}
		}
		p.on[mv.To] = append(p.on[mv.To], ref)
		pe.GuestHost[mv.Guest] = mv.To
	}
}

// envIdxOf resolves a seq to its view index; view.Envs is seq-ascending.
func (p *planner) envIdxOf(seq uint64) int {
	i := sort.Search(len(p.view.Envs), func(i int) bool { return p.view.Envs[i].Seq >= seq })
	return i
}

// orderByHeadroom orders accepted units after Wang et al.
// (arXiv:1412.4980): a live migration double-occupies its destination
// while guest state copies, so the schedule greedily picks the unit
// whose destinations have the most residual memory slack at its turn —
// simulated from the pre-plan residuals, each chosen unit freeing its
// origins before the next choice. Ties keep acceptance order (the
// objective-descent order), so equal-headroom plans stay deterministic.
//
// The view's envs still hold the *post-plan* placements (planning
// mutated them), but headroom only needs the demand vectors and the
// pre-plan residuals, which the units and the original ledger walk
// backward deterministically — so the function reconstructs pre-plan
// memory residuals by undoing the plan's net effect.
func orderByHeadroom(units []Unit, view core.PlanView) []Unit {
	if len(units) < 2 {
		return units
	}
	// Post-plan residual memory per host, then undo the plan's net
	// effect to recover the pre-plan residuals the schedule starts from.
	resMem := make(map[graph.NodeID]int64)
	for _, n := range view.Ledger.Cluster().HostNodes() {
		resMem[n] = view.Ledger.ResidualMem(n)
	}
	memOf := func(mv core.GuestMove) int64 {
		i := sort.Search(len(view.Envs), func(i int) bool { return view.Envs[i].Seq >= mv.Seq })
		return view.Envs[i].Env.Guest(mv.Guest).Mem
	}
	for _, u := range units {
		for _, mv := range u.Moves {
			m := memOf(mv)
			resMem[mv.From] -= m
			resMem[mv.To] += m
		}
	}

	ordered := make([]Unit, 0, len(units))
	pending := append([]Unit(nil), units...)
	for len(pending) > 0 {
		bestIdx, bestSlack := 0, int64(0)
		for i, u := range pending {
			slack := int64(1<<62 - 1)
			for _, mv := range u.Moves {
				if s := resMem[mv.To] - memOf(mv); s < slack {
					slack = s
				}
			}
			if i == 0 || slack > bestSlack {
				bestIdx, bestSlack = i, slack
			}
		}
		u := pending[bestIdx]
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
		for _, mv := range u.Moves {
			m := memOf(mv)
			resMem[mv.From] += m
			resMem[mv.To] -= m
		}
		ordered = append(ordered, u)
	}
	return ordered
}

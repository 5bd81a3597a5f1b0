// Package exact solves small instances of the mapping problem optimally,
// so that the heuristic's quality can be *measured* rather than assumed.
// The paper argues HMN's merit from comparisons against weaker baselines
// (§5); this solver adds the missing yardstick: the true optimum of the
// objective function (Eq. 10) on instances small enough to enumerate.
//
// Two observations make exactness tractable:
//
//   - The objective depends on the guest placement only — paths never
//     enter Eq. 10 — so the solver enumerates placements with
//     branch-and-bound and treats routing purely as a feasibility check.
//   - The continuous relaxation of "place the remaining CPU demand"
//     admits a closed-form water-filling bound on the best achievable
//     standard deviation, which prunes most of the placement tree.
//
// Routing feasibility per complete placement is checked either exactly
// (backtracking over all simple paths per link — tiny graphs only) or
// with the same greedy A*Prune pass HMN uses.
package exact

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/stats"
	"repro/internal/virtual"
)

// RoutingMode selects how a candidate placement's links are routed.
type RoutingMode int

const (
	// RouteGreedy routes the links with HMN's Networking stage
	// (core.RouteLinks): descending bandwidth order, A*Prune per link.
	// Fast; may reject a placement that an exhaustive routing could
	// realise.
	RouteGreedy RoutingMode = iota
	// RouteExact backtracks over every simple path per link: complete
	// but exponential — tiny physical graphs only.
	RouteExact
	// RouteIgnore skips routing entirely: the result is then a lower
	// bound on the objective over *placements*, not a realisable
	// mapping. Mapping is nil in the result.
	RouteIgnore
)

// Options tunes the solver. The zero value is valid.
type Options struct {
	// Overhead is deducted from every host first (§3.1).
	Overhead cluster.VMMOverhead
	// Routing selects the feasibility check (default RouteGreedy).
	Routing RoutingMode
	// MaxNodes bounds the placement search-tree size; 0 means 5,000,000.
	// When the budget trips, the best mapping found so far is returned
	// with Proven=false.
	MaxNodes int64
	// MaxRoutingNodes bounds each exact-routing backtrack; 0 means
	// 200,000.
	MaxRoutingNodes int64
}

// Result is the solver's outcome.
type Result struct {
	// Mapping is the optimal mapping found (nil under RouteIgnore).
	Mapping *mapping.Mapping
	// Objective is the optimal Eq. 10 value.
	Objective float64
	// Assignment is the optimal guest->host-node placement.
	Assignment []graph.NodeID
	// Nodes is the number of placement search nodes explored.
	Nodes int64
	// Proven is true when the search completed (the result is the true
	// optimum under the chosen routing mode), false when MaxNodes
	// tripped first.
	Proven bool
}

// ErrInfeasible is returned when the search proves no feasible mapping
// exists (under the chosen routing mode).
var ErrInfeasible = errors.New("exact: no feasible mapping exists")

// ErrBudget is returned when the node budget trips before any feasible
// mapping is found.
var ErrBudget = errors.New("exact: search budget exhausted before a feasible mapping was found")

type solver struct {
	c    *cluster.Cluster
	v    *virtual.Env
	opts Options

	hosts   []graph.NodeID
	order   []virtual.GuestID // guests, most-constrained first
	led     *cluster.Ledger
	assign  []graph.NodeID
	remProc []float64 // suffix sums of proc demand in placement order

	best       float64
	bestAssign []graph.NodeID
	nodes      int64
	budgetHit  bool
}

// Solve finds the placement minimising Eq. 10 whose links are routable
// under the chosen mode, and returns it with its mapping. See Result for
// the optimality guarantees.
func Solve(c *cluster.Cluster, v *virtual.Env, opts Options) (*Result, error) {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 5_000_000
	}
	if opts.MaxRoutingNodes <= 0 {
		opts.MaxRoutingNodes = 200_000
	}
	led, err := cluster.NewLedger(c, opts.Overhead)
	if err != nil {
		return nil, fmt.Errorf("exact: %w", err)
	}

	s := &solver{
		c:      c,
		v:      v,
		opts:   opts,
		hosts:  c.HostNodes(),
		led:    led,
		assign: make([]graph.NodeID, v.NumGuests()),
		best:   math.Inf(1),
	}
	for i := range s.assign {
		s.assign[i] = mapping.Unassigned
	}
	// Most-constrained (largest memory) first: fails fast on tight
	// instances.
	s.order = make([]virtual.GuestID, v.NumGuests())
	for i := range s.order {
		s.order[i] = virtual.GuestID(i)
	}
	sort.SliceStable(s.order, func(i, j int) bool {
		a, b := v.Guest(s.order[i]), v.Guest(s.order[j])
		if a.Mem != b.Mem {
			return a.Mem > b.Mem
		}
		return s.order[i] < s.order[j]
	})
	// Suffix proc demand for the water-filling bound.
	s.remProc = make([]float64, len(s.order)+1)
	for i := len(s.order) - 1; i >= 0; i-- {
		s.remProc[i] = s.remProc[i+1] + v.Guest(s.order[i]).Proc
	}

	s.search(0)

	res := &Result{Nodes: s.nodes, Proven: !s.budgetHit}
	if s.bestAssign == nil {
		if s.budgetHit {
			return nil, fmt.Errorf("%w (%d nodes)", ErrBudget, s.nodes)
		}
		return nil, ErrInfeasible
	}
	res.Objective = s.best
	res.Assignment = s.bestAssign
	if opts.Routing != RouteIgnore {
		m := mapping.New(c, v)
		copy(m.GuestHost, s.bestAssign)
		if !s.route(m.GuestHost, m.LinkPath) {
			// The placement was accepted with exactly this routing check,
			// so this cannot happen.
			panic("exact: optimal placement became unroutable")
		}
		res.Mapping = m
	}
	return res, nil
}

// search places guests s.order[depth:].
func (s *solver) search(depth int) {
	if s.budgetHit {
		return
	}
	s.nodes++
	if s.nodes > s.opts.MaxNodes {
		s.budgetHit = true
		return
	}

	if bound := s.waterFillBound(depth); bound >= s.best {
		return
	}
	if depth == len(s.order) {
		obj := stats.PopStdDev(s.led.ResidualProcAll())
		if obj >= s.best {
			return
		}
		if s.opts.Routing != RouteIgnore {
			paths := make([]graph.Path, s.v.NumLinks())
			if !s.route(s.assign, paths) {
				return
			}
		}
		s.best = obj
		s.bestAssign = append([]graph.NodeID(nil), s.assign...)
		return
	}

	g := s.v.Guest(s.order[depth])
	for _, node := range s.hosts {
		if !s.led.Fits(node, g.Mem, g.Stor) {
			continue
		}
		if err := s.led.ReserveGuest(node, g.Proc, g.Mem, g.Stor); err != nil {
			continue
		}
		s.assign[g.ID] = node
		s.search(depth + 1)
		s.assign[g.ID] = mapping.Unassigned
		s.led.ReleaseGuest(node, g.Proc, g.Mem, g.Stor)
		if s.budgetHit {
			return
		}
	}
}

// waterFillBound lower-bounds the final objective from the current
// residuals: the remaining proc demand D is distributed *continuously*
// so as to minimise the standard deviation — pour D onto the largest
// residuals until they level off. Any integral completion does no better.
func (s *solver) waterFillBound(depth int) float64 {
	d := s.remProc[depth]
	r := s.led.ResidualProcAll()
	if d <= 0 || len(r) == 0 {
		return stats.PopStdDev(r)
	}
	sorted := append([]float64(nil), r...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	// Find the level L with sum(max(0, r_i - L)) = d over the top-k.
	level := sorted[0]
	poured := 0.0
	k := 1
	for ; k < len(sorted); k++ {
		step := float64(k) * (level - sorted[k])
		if poured+step >= d {
			break
		}
		poured += step
		level = sorted[k]
	}
	level -= (d - poured) / float64(k)
	out := make([]float64, len(sorted))
	for i, v := range sorted {
		if v > level {
			out[i] = level
		} else {
			out[i] = v
		}
	}
	return stats.PopStdDev(out)
}

// route checks the placement's links for routability and, when paths is
// non-nil, fills it in.
func (s *solver) route(assign []graph.NodeID, paths []graph.Path) bool {
	switch s.opts.Routing {
	case RouteExact:
		return s.routeExact(assign, paths)
	default:
		return s.routeGreedy(assign, paths)
	}
}

// routeGreedy is HMN's Networking stage, run on a copy of the ledger.
func (s *solver) routeGreedy(assign []graph.NodeID, paths []graph.Path) bool {
	return core.RouteLinks(s.led.Clone(), s.v, assign, paths) == nil
}

// routeExact backtracks over every feasible simple path per link —
// complete integral multi-commodity routing for tiny graphs.
func (s *solver) routeExact(assign []graph.NodeID, paths []graph.Path) bool {
	net := s.c.Net()
	led := s.led.Clone()
	links := s.v.Links()
	var nodes int64

	var place func(i int) bool
	place = func(i int) bool {
		if i == len(links) {
			return true
		}
		nodes++
		if nodes > s.opts.MaxRoutingNodes {
			return false
		}
		link := links[i]
		src, dst := assign[link.From], assign[link.To]
		if src == dst {
			paths[link.ID] = graph.TrivialPath(src)
			return place(i + 1)
		}
		for _, p := range graph.AllSimplePaths(net, src, dst, 0) {
			if p.Latency(net) > link.Lat {
				continue
			}
			if led.ReserveBandwidth(p, link.BW) != nil {
				continue
			}
			paths[link.ID] = p
			if place(i + 1) {
				return true
			}
			led.ReleaseBandwidth(p, link.BW)
		}
		return false
	}
	return place(0)
}

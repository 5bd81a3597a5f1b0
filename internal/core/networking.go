package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/virtual"
)

// routeLinks is HMN stage 3 (§4.3) over links, in the order given
// (descending bandwidth, sortLinksByBW): each is routed with the
// modified 1-constrained A*Prune, which maximises bottleneck bandwidth
// subject to the latency budget, its path written into paths[link.ID]
// and its bandwidth reserved before the next link is considered. Links whose guests share a host are
// handled inside the host (§5.2) and consume nothing. Guest placements
// (assign) are fixed; reservations already on led — including the paths
// of links not being routed — are respected. It is the whole Networking
// stage when links is every link of v, and the cheap path of a repair or
// a migration when it is only the links a failure broke or a move drags.
//
// The Dijkstra latency table towards each destination host (the ar[]
// array of Algorithm 1) is gathered once per distinct destination, from
// arc: the paper observes that "most part of mapping time is spent in
// the Networking stage to calculate the shortest path of each host to the
// link destination", and the cache is what keeps large instances
// tractable without changing any result.
func routeLinks(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path, links []virtual.Link, arc *arCache, ms *mapScratch) error {
	net := led.Cluster().Net()
	bw := led.BandwidthFunc()
	tables := arTables(led, links, assign, arc, ms)

	// One scratch serves the whole stage: routing is sequential — each
	// reservation changes the residual bandwidth the next search must
	// see — so every A*Prune search reuses the same open/closed
	// structures instead of allocating per link.
	opts := graph.AStarPruneOptions{Scratch: ms.astar, Arena: ms.arena}
	// The scratch counts its searches in plain fields; the stage folds
	// what it added into the attempt's tally on every exit.
	before := opts.Scratch.Stats()
	defer func() { ms.route.Add(opts.Scratch.Stats().Sub(before)) }()

	for _, link := range links {
		src, dst := assign[link.From], assign[link.To]
		if src == dst {
			paths[link.ID] = graph.TrivialPathIn(src, opts.Arena)
			continue
		}
		opts.AR = tables[dst]
		p, ok := graph.AStarPrune(net, src, dst, link.BW, link.Lat, bw, &opts)
		if !ok {
			return fmt.Errorf("%w: link %d (%s-%s, %.3fMbps within %.1fms) between hosts %d and %d",
				noPathCause(net, src, dst, link.BW, bw), link.ID,
				v.Guest(link.From).Name, v.Guest(link.To).Name, link.BW, link.Lat, src, dst)
		}
		if err := led.ReserveBandwidth(p, link.BW); err != nil {
			// A*Prune only returns paths whose every edge clears the
			// demand against the same ledger view, so this is unreachable.
			panic("core: A*Prune returned an unreservable path: " + err.Error())
		}
		paths[link.ID] = p
	}
	return nil
}

// reroute re-runs only the Networking stage for the virtual links named
// by linkIDs, keeping guest placements fixed — the repair engine's cheap
// path after a link failure, and what a committed migration does for the
// links its guests drag along.
func reroute(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path, linkIDs []int, arc *arCache, ms *mapScratch) error {
	if len(linkIDs) == 0 {
		return nil
	}
	return routeLinks(led, v, assign, paths, sortLinksByBW(v, linkIDs, ms), arc, ms)
}

// noPathCause says why A*Prune found nothing for a link, on the failure
// path only: if even the widest src-dst path under the current residuals
// is narrower than the demand, no latency budget would have helped;
// otherwise the bandwidth is there and the budget ruled it out.
func noPathCause(net *graph.Graph, src, dst graph.NodeID, demand float64, bw graph.BandwidthFunc) error {
	if graph.WidestBottleneck(net, src, dst, bw) < demand {
		return ErrNoPathBandwidth
	}
	return ErrNoPathLatency
}

// arTables gathers the Dijkstra latency table towards every distinct
// destination host of the inter-host links, indexed by node, in a slice
// ms keeps between attempts: from arc when it holds the table for the
// ledger's topology generation, computing and storing it otherwise — at
// most once per host per generation, so the steady state only looks up.
// Tables are computed cut-aware, so an entry is exact for the generation
// that keys it; on an uncut ledger (generation 0, every one-shot mapping)
// that is graph.DijkstraLatency's table. They are pure functions of the
// topology: neither the order of computation nor the cache's state can
// affect a result.
func arTables(led *cluster.Ledger, links []virtual.Link, assign []graph.NodeID, arc *arCache, ms *mapScratch) [][]float64 {
	net := led.Cluster().Net()
	ms.arOut = sized(ms.arOut, net.NumNodes())
	out := ms.arOut
	clear(out) // drop the last attempt's tables
	gen := led.TopoGen()
	for _, link := range links {
		src, dst := assign[link.From], assign[link.To]
		if src == dst || out[dst] != nil {
			continue
		}
		if out[dst] = arc.lookup(gen, dst); out[dst] != nil {
			arc.hits.Add(1)
			continue
		}
		arc.misses.Add(1)
		out[dst] = graph.DijkstraLatencyAvoiding(net, dst, led.EdgeCut)
		arc.store(gen, dst, out[dst])
	}
	return out
}

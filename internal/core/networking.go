package core

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/virtual"
)

// orderLinks returns the links of v named by ids (nil: every link) in
// the order Networking routes them: descending bandwidth is the paper's
// choice (§4.3) — and the order Hosting walks them in (§4.1) — the other
// two exist for the ablations. (BW, ID) is a strict total order, so the
// packed-key sorts produce the permutations a stable sort would. The
// result lives in ms.links until the next call.
func orderLinks(v *virtual.Env, ids []int, order LinkOrder, rng *rand.Rand, ms *mapScratch) []virtual.Link {
	switch order {
	case OrderAscendingBW:
		return sortLinksByBW(v, ids, false, ms)
	case OrderRandom:
		if ids == nil {
			ms.links = append(ms.links[:0], v.Links()...)
		} else {
			ms.links = sized(ms.links, len(ids))
			for i, id := range ids {
				ms.links[i] = v.Link(id)
			}
		}
		links := ms.links
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		return links
	}
	return sortLinksByBW(v, ids, true, ms)
}

// routeLinks is HMN stage 3 (§4.3) over links, in the order given
// (orderLinks): each is routed with the modified 1-constrained A*Prune,
// which maximises bottleneck bandwidth subject to the latency budget,
// its path written into paths[link.ID] and its bandwidth reserved before
// the next link is considered. Links whose guests share a host are
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
func routeLinks(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path, links []virtual.Link, astar graph.AStarPruneOptions, arc *arCache, ms *mapScratch) error {
	net := led.Cluster().Net()
	bw := led.BandwidthFunc()
	tables := arTables(led, links, assign, arc, ms)

	// One scratch serves the whole stage: routing is sequential — each
	// reservation changes the residual bandwidth the next search must
	// see — so every A*Prune search reuses the same open/closed
	// structures instead of allocating per link.
	opts := astar
	if opts.Scratch == nil {
		opts.Scratch = ms.astar
	}
	if opts.Arena == nil {
		opts.Arena = ms.arena
	}
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
				noPathCause(net, src, dst, link.BW, bw, astar.MaxExpansions), link.ID,
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

// reroute re-runs only the Networking stage, with mp's options, for the
// virtual links named by linkIDs, keeping guest placements fixed — the
// repair engine's cheap path after a link failure, and what a committed
// migration does for the links its guests drag along.
func reroute(mp stagedMapper, led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path, linkIDs []int, arc *arCache, ms *mapScratch) error {
	if len(linkIDs) == 0 {
		return nil
	}
	o := mp.stageOptions()
	return routeLinks(led, v, assign, paths, orderLinks(v, linkIDs, o.order, o.rng, ms), o.astar, arc, ms)
}

// noPathCause says why A*Prune found nothing for a link, on the failure
// path only: if even the widest src-dst path under the current residuals
// is narrower than the demand, no latency budget would have helped;
// otherwise the bandwidth is there and the budget ruled it out — unless
// an expansion cap was set, which may have ended the search first, and
// then the cause stays open.
func noPathCause(net *graph.Graph, src, dst graph.NodeID, demand float64, bw graph.BandwidthFunc, maxExpansions int) error {
	switch {
	case graph.WidestBottleneck(net, src, dst, bw) < demand:
		return ErrNoPathBandwidth
	case maxExpansions > 0:
		return ErrNoPath
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

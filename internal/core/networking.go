package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/virtual"
)

// RouteLinks is HMN's Networking stage (§4.3) on its own: every link of
// v, in descending bandwidth order, routed by routeLinks onto led with
// the guest placements in assign fixed, its paths written into paths.
// The latency tables are computed for this call and dropped after it.
// It is how the mappers that place guests their own way — RA, the GA
// and the exact solver's greedy routing check — route them as HMN does;
// on failure led holds the reservations of the links routed so far.
func RouteLinks(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path) error {
	ms := getMapScratch()
	defer putMapScratch(ms)
	return routeLinks(led, v, assign, paths, sortLinksByBW(v, nil, ms), new(latencyTables), ms)
}

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
// lt: the paper observes that "most part of mapping time is spent in
// the Networking stage to calculate the shortest path of each host to the
// link destination", and keeping the tables is what keeps large
// instances tractable without changing any result.
func routeLinks(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path, links []virtual.Link, lt *latencyTables, ms *mapScratch) error {
	net := led.Cluster().Net()
	bw := led.Residuals()
	tables := arTables(led, links, assign, lt, ms)

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
func reroute(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path, linkIDs []int, lt *latencyTables, ms *mapScratch) error {
	if len(linkIDs) == 0 {
		return nil
	}
	return routeLinks(led, v, assign, paths, sortLinksByBW(v, linkIDs, ms), lt, ms)
}

// noPathCause says why A*Prune found nothing for a link, on the failure
// path only: if even the widest src-dst path under the current residuals
// is narrower than the demand, no latency budget would have helped;
// otherwise the bandwidth is there and the budget ruled it out.
func noPathCause(net *graph.Graph, src, dst graph.NodeID, demand float64, bw []float64) error {
	if graph.WidestBottleneck(net, src, dst, bw) < demand {
		return ErrNoPathBandwidth
	}
	return ErrNoPathLatency
}

// arTables gathers the Dijkstra latency table towards every distinct
// destination host of the inter-host links, indexed by node, in a slice
// ms keeps between attempts, each from lt. The tables are pure functions
// of the topology: neither the order of computation nor what lt already
// holds can affect a result.
func arTables(led *cluster.Ledger, links []virtual.Link, assign []graph.NodeID, lt *latencyTables, ms *mapScratch) [][]float64 {
	ms.arOut = sized(ms.arOut, led.Cluster().Net().NumNodes())
	out := ms.arOut
	clear(out) // drop the last attempt's tables
	for _, link := range links {
		src, dst := assign[link.From], assign[link.To]
		if src != dst && out[dst] == nil {
			out[dst] = lt.table(led, dst)
		}
	}
	return out
}

// latencyTables keeps the Networking stage's latency tables between
// calls, indexed by destination node. A table is a pure function of the
// routable topology — the physical graph less its cut links — which
// Ledger.TopoGen names: generation 0 is the cut-free topology, which
// never changes, so its tables (pristine) are kept for good, across
// failure epochs too; every cut set gets a fresh generation, so the
// tables of the current one (cut) are dropped when it moves. A Session
// keeps one under its lock for every admission, repair and migration;
// a one-shot mapping starts from an empty one. The tables are shared
// and read-only.
type latencyTables struct {
	pristine [][]float64
	cut      [][]float64
	cutGen   uint64
	// hits and misses count the tables served from, respectively
	// computed into, the kept ones (Session.AdmissionStats).
	hits, misses uint64
}

// table returns the latency table towards dst on led's routable
// topology, computing it — cut-aware, so on an uncut ledger it is
// graph.DijkstraLatency's — the first time this generation asks.
func (lt *latencyTables) table(led *cluster.Ledger, dst graph.NodeID) []float64 {
	net := led.Cluster().Net()
	tabs := &lt.pristine
	if gen := led.TopoGen(); gen != 0 {
		if gen != lt.cutGen {
			lt.cutGen = gen
			clear(lt.cut)
		}
		tabs = &lt.cut
	}
	*tabs = sized(*tabs, net.NumNodes())
	if t := (*tabs)[dst]; t != nil {
		lt.hits++
		return t
	}
	lt.misses++
	t := graph.DijkstraLatencyAvoiding(net, dst, led.EdgeCut)
	(*tabs)[dst] = t
	return t
}

package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/virtual"
)

// network is HMN stage 3 (§4.3): it routes every virtual link over a
// physical path. Links are processed in descending bandwidth order (the
// paper's choice — overridable for the ablations); each is routed with
// the modified 1-constrained A*Prune, which maximises bottleneck
// bandwidth subject to the latency budget, and its bandwidth is reserved
// before the next link is considered. Links whose guests share a host are
// handled inside the host (§5.2) and consume nothing.
//
// The Dijkstra latency table towards each destination host (the ar[]
// array of Algorithm 1) is computed once per distinct destination and
// cached: the paper observes that "most part of mapping time is spent in
// the Networking stage to calculate the shortest path of each host to the
// link destination", and the cache is what keeps large instances
// tractable without changing any result.
// arc may be nil (one-shot mappers); a session passes its AR cache so
// repeated admissions on an unchanged topology skip the Dijkstra sweep.
// ms may be nil (one-shot mappers), which allocates the stage's buffers
// per call.
func network(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path, order LinkOrder, astar graph.AStarPruneOptions, rng *rand.Rand, arc *arCache, ms *mapScratch) error {
	var ids []int
	if ms != nil {
		ms.ids = intsFor(ms.ids, v.NumLinks())
		ids = ms.ids
	} else {
		ids = make([]int, v.NumLinks())
	}
	for i := range ids {
		ids[i] = i
	}
	return routeLinks(led, v, assign, paths, ids, order, astar, rng, arc, ms)
}

// routeLinks routes the subset of v's virtual links named by linkIDs,
// writing each computed path into paths[link.ID]. Guest placements
// (assign) are fixed; reservations already on led — including the paths
// of links outside the subset — are respected. It is the whole
// Networking stage when linkIDs covers every link, and the repair
// engine's cheap path when it covers only the links a failure broke.
func routeLinks(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path, linkIDs []int, order LinkOrder, astar graph.AStarPruneOptions, rng *rand.Rand, arc *arCache, ms *mapScratch) error {
	net := led.Cluster().Net()
	bw := led.BandwidthFunc()

	var links []virtual.Link
	if ms != nil {
		ms.links = linksFor(ms.links, len(linkIDs))
		links = ms.links
	} else {
		links = make([]virtual.Link, len(linkIDs))
	}
	for i, id := range linkIDs {
		links[i] = v.Link(id)
	}
	// (BW, ID) is a strict total order, so the packed-key sorts produce
	// the permutations the seed's stable sorts did — minus the struct
	// comparator and swap machinery the profiles showed dominating the
	// stage's fixed costs at 2000 guests.
	switch order {
	case OrderAscendingBW:
		sortLinksByBWIn(links, false, ms)
	case OrderRandom:
		r := rng
		if r == nil {
			r = rand.New(rand.NewSource(1))
		}
		r.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	default: // OrderDescendingBW — the paper's order
		sortLinksByBWIn(links, true, ms)
	}

	// The Dijkstra ar[] tables only depend on the topology, never on the
	// reservations made while routing, so the tables for every distinct
	// destination can be computed concurrently up front. Routing itself
	// stays sequential — each reservation changes the residual bandwidth
	// the next search must see — so this is the stage's only safe
	// parallelism, and it covers the cost §5.2 identifies as dominant.
	// With a session AR cache the sweep shrinks to the cache misses.
	tables := arTables(led, links, assign, arc, ms)
	arTo := func(dest graph.NodeID) []float64 {
		if ar := tables[dest]; ar != nil {
			return ar
		}
		// Only reachable if assign changed after precompute — keep a
		// correct fallback anyway, and let it consult and feed the
		// session cache like the precompute sweep does.
		var ar []float64
		if arc != nil {
			gen := led.TopoGen()
			if ar = arc.lookup(gen, dest); ar != nil {
				arc.hits.Add(1)
			} else {
				arc.misses.Add(1)
				ar = graph.DijkstraLatencyAvoiding(net, dest, led.EdgeCut)
				arc.store(gen, dest, ar)
			}
		} else {
			ar = graph.DijkstraLatency(net, dest)
		}
		tables[dest] = ar
		return ar
	}

	// One scratch serves the whole stage: routing is sequential, so every
	// A*Prune search reuses the same open/closed structures instead of
	// allocating per link.
	scratch := astar.Scratch
	if scratch == nil {
		if ms != nil {
			scratch = ms.astar
		} else {
			scratch = graph.NewAStarScratch()
		}
	}
	arena := astar.Arena
	if arena == nil && ms != nil {
		arena = ms.arena
	}
	if ms != nil {
		// The scratch counts its searches in plain fields; the stage
		// folds what it added into the attempt's tally on every exit.
		before := scratch.Stats()
		defer func() { ms.route.Add(scratch.Stats().Sub(before)) }()
	}

	for _, link := range links {
		src, dst := assign[link.From], assign[link.To]
		if src == dst {
			paths[link.ID] = graph.TrivialPathIn(src, arena)
			continue
		}
		opts := astar
		opts.AR = arTo(dst)
		opts.Scratch = scratch
		opts.Arena = arena
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

// arTables gathers the Dijkstra latency table for every distinct
// destination host of the inter-host links: from arc when it holds the
// snapshot's topology generation, computing only the misses — in
// parallel across GOMAXPROCS workers — and filling the cache for the
// admissions that follow. Tables are pure functions of the topology, so
// neither the computation order nor the cache state can affect results.
//
// With arc == nil (the one-shot Mapper entry points) the tables ignore
// cut edges, as they always have: a missing edge only makes the static
// table a looser — still admissible — bound. Cached tables are computed
// cut-aware via DijkstraLatencyAvoiding so an entry is exact for the
// generation that keys it. The tables come back indexed by node, in a
// slice ms keeps between attempts (nil allocates it per call).
func arTables(led *cluster.Ledger, links []virtual.Link, assign []graph.NodeID, arc *arCache, ms *mapScratch) [][]float64 {
	net := led.Cluster().Net()
	n := net.NumNodes()
	var out [][]float64 // by destination node; nil where no link ends
	var want []bool
	if ms != nil {
		if cap(ms.arOut) < n {
			ms.arOut, ms.arWant = make([][]float64, n), make([]bool, n)
		}
		out, want = ms.arOut[:n], ms.arWant[:n]
		clear(out) // drop the last attempt's tables
		clear(want)
	} else {
		out, want = make([][]float64, n), make([]bool, n)
	}
	for _, link := range links {
		if src, dst := assign[link.From], assign[link.To]; src != dst {
			want[dst] = true
		}
	}

	// Destinations are visited in node order: the misses are computed and
	// stored in the same sequence on every run.
	var gen uint64
	if arc != nil {
		gen = led.TopoGen()
	}
	var dests []graph.NodeID
	for d, wanted := range want {
		if !wanted {
			continue
		}
		if arc != nil {
			if out[d] = arc.lookup(gen, graph.NodeID(d)); out[d] != nil {
				arc.hits.Add(1)
				continue
			}
			arc.misses.Add(1)
		}
		dests = append(dests, graph.NodeID(d))
	}
	if len(dests) == 0 {
		return out
	}

	compute := func(d graph.NodeID) []float64 {
		if arc == nil {
			return graph.DijkstraLatency(net, d)
		}
		return graph.DijkstraLatencyAvoiding(net, d, led.EdgeCut)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(dests) {
		workers = len(dests)
	}
	tables := make([][]float64, len(dests))
	if workers <= 1 {
		for i, d := range dests {
			tables[i] = compute(d)
		}
	} else {
		var next int64 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1))
					if i >= len(dests) {
						return
					}
					tables[i] = compute(dests[i])
				}
			}()
		}
		wg.Wait()
	}
	for i, d := range dests {
		out[d] = tables[i]
		if arc != nil {
			arc.store(gen, d, tables[i])
		}
	}
	return out
}

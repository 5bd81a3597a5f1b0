package core

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/virtual"
)

// mapScratch carries every reusable buffer one mapping attempt needs —
// the link-sort workspace, the host index arrays, the Networking
// stage's link and ID buffers, the A*Prune scratch and the path arena —
// so the steady-state admission path allocates none of them. Attempts
// borrow one from mapScratchPool (getMapScratch/putMapScratch) for the
// duration of the attempt; buffers grow to the largest cluster and
// environment they have served and are then reused as-is. A mapScratch
// is single-owner state: never shared between concurrent attempts.
type mapScratch struct {
	// Networking stage: link-ID worklist and the canonical-order copy of
	// the links being routed.
	ids   []int
	links []virtual.Link

	// sortLinksByBW workspace: packed sort keys and the gather buffer.
	kvs    []linkKV
	gather []virtual.Link

	// Host index arrays (hostIndex.order/pos/nodeOf).
	hiOrder []graph.NodeID
	hiPos   []int
	hiNode  []graph.NodeID

	// A*Prune search state and the slab allocator committed paths are
	// carved from. The arena's handed-out storage is never reused, so
	// pooling it is safe: reuse only continues filling fresh chunk space.
	astar *graph.AStarScratch
	arena *graph.PathArena

	// arTables' result and worklist, both indexed by node, and the
	// A*Prune work the attempt's Networking stages did (routeLinks adds,
	// getMapScratch zeroes).
	arOut  [][]float64
	arWant []bool
	route  graph.SearchStats

	// The §4.2 descent with its working sets: per-host guest rosters and
	// the per-step donor and destination worklists. Stage 2 of an
	// admission and Session.Rebalance both run it from here.
	mig descent
}

var mapScratchPool = sync.Pool{New: func() interface{} {
	return &mapScratch{
		astar: graph.NewAStarScratch(),
		arena: graph.NewPathArena(),
	}
}}

func getMapScratch() *mapScratch {
	ms := mapScratchPool.Get().(*mapScratch)
	ms.route = graph.SearchStats{}
	return ms
}

func putMapScratch(ms *mapScratch) { mapScratchPool.Put(ms) }

// intsFor returns buf resized to n, reallocating only on growth.
func intsFor(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// nodesFor returns buf resized to n, reallocating only on growth.
func nodesFor(buf []graph.NodeID, n int) []graph.NodeID {
	if cap(buf) < n {
		return make([]graph.NodeID, n)
	}
	return buf[:n]
}

// linksFor returns buf resized to n, reallocating only on growth.
func linksFor(buf []virtual.Link, n int) []virtual.Link {
	if cap(buf) < n {
		return make([]virtual.Link, n)
	}
	return buf[:n]
}

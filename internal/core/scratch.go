package core

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/virtual"
)

// mapScratch carries every reusable buffer one mapping attempt needs —
// the link-sort workspace, the host index arrays, the A*Prune scratch,
// the path arena and the §4.2 descent — so the steady-state admission
// path allocates none of them. Every attempt, a one-shot Mapper.Map's
// included, borrows one from mapScratchPool (getMapScratch/putMapScratch)
// for its duration; buffers grow to the largest cluster and
// environment they have served and are then reused as-is. A mapScratch
// is single-owner state: never shared between concurrent attempts.
type mapScratch struct {
	// sortLinksByBW's packed sort keys and its result: the links Hosting
	// walks and Networking routes, in the order they do.
	kvs   []linkKV
	links []virtual.Link

	// Host index arrays (hostIndex.order/pos/nodeOf).
	hiOrder []graph.NodeID
	hiPos   []int
	hiNode  []graph.NodeID

	// A*Prune search state and the slab allocator committed paths are
	// carved from. The arena's handed-out storage is never reused, so
	// pooling it is safe: reuse only continues filling fresh chunk space.
	astar *graph.AStarScratch
	arena *graph.PathArena

	// arTables' result, indexed by node, and the A*Prune work the
	// attempt's Networking stages did (routeLinks adds, getMapScratch
	// zeroes).
	arOut [][]float64
	route graph.SearchStats

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

// sized returns buf resized to n, reallocating only on growth; what it
// holds is left for the caller to overwrite.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

package graph

// PathArena is a slab allocator for the backing arrays of found paths.
// AStarPrune builds each returned Path out of two fresh allocations
// (nodes and edges); the Networking stage routes thousands of links per
// admission, so those allocations dominate its steady-state allocation
// count. An arena hands out sub-slices of large shared chunks instead:
// one chunk allocation amortises over dozens of paths.
//
// Handed-out slices are never reclaimed or reused — committed mappings
// keep their paths for as long as the environment is deployed, and the
// arena has no way to know when that ends. The arena therefore only
// reduces the number of allocations, not the bytes retained; a chunk
// stays reachable while any path carved from it does. Callers that
// route speculatively and discard (what-if evaluation) should prefer a
// short-lived arena so discarded chunks get collected.
//
// A PathArena is not safe for concurrent use.
type PathArena struct {
	nodes []NodeID
	edges []int
}

// pathArenaChunk sizes arena chunks, in entries. Paths on emulation
// fabrics are a handful of hops, so one chunk serves hundreds of them.
const pathArenaChunk = 4096

// NewPathArena returns an empty arena. Equivalent to &PathArena{};
// provided for discoverability.
func NewPathArena() *PathArena { return &PathArena{} }

// alloc carves storage for a path of hops edges: hops+1 nodes and hops
// edge IDs, both zeroed.
func (a *PathArena) alloc(hops int) ([]NodeID, []int) {
	nn := hops + 1
	if len(a.nodes)+nn > cap(a.nodes) {
		size := pathArenaChunk
		if nn > size {
			size = nn
		}
		a.nodes = make([]NodeID, 0, size)
	}
	if len(a.edges)+hops > cap(a.edges) {
		size := pathArenaChunk
		if hops > size {
			size = hops
		}
		a.edges = make([]int, 0, size)
	}
	nodes := a.nodes[len(a.nodes) : len(a.nodes)+nn]
	a.nodes = a.nodes[:len(a.nodes)+nn]
	edges := a.edges[len(a.edges) : len(a.edges)+hops]
	a.edges = a.edges[:len(a.edges)+hops]
	return nodes, edges
}

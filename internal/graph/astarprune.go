package graph

import (
	"math"
	"sync"
)

// AStarPruneOptions tunes the modified 1-constrained A*Prune search.
// The zero value is a valid, paper-faithful configuration.
type AStarPruneOptions struct {
	// MaxExpansions bounds the number of partial paths popped from the
	// candidate set before the search gives up (returning not-found).
	// 0 means unlimited. A*Prune is worst-case exponential; real mapping
	// workloads stay far below any sensible bound, so this is a safety
	// valve, not a tuning knob.
	MaxExpansions int

	// DisableDominance turns off Pareto-dominance pruning, falling back to
	// the plain candidate-set behaviour of the paper's Algorithm 1. With
	// dominance pruning on (the default), a partial path reaching a node
	// with both a lower-or-equal bottleneck bandwidth and a
	// higher-or-equal accumulated latency than a previously seen partial
	// path at the same node is discarded. This is the standard A*Prune
	// optimisation and does not change the result (verified against
	// brute-force enumeration in the tests); it only bounds the candidate
	// set on dense topologies such as the 2-D torus.
	DisableDominance bool

	// AR optionally supplies the precomputed Dijkstra latency table
	// towards the destination (the paper's ar[] array). When nil it is
	// computed internally. Callers mapping many virtual links that share
	// a destination pass it in to avoid recomputation.
	AR []float64

	// Scratch optionally supplies reusable search state (candidate heap,
	// partial-path array, dominance sets), so a caller routing many links
	// in sequence — the Networking stage — allocates it once instead of
	// per search. When nil a scratch is borrowed from an internal
	// sync.Pool. A scratch is NOT safe for concurrent use.
	Scratch *AStarScratch

	// Arena optionally supplies the slab allocator the returned Path's
	// backing arrays are carved from, so a caller routing many links
	// amortises the two per-path allocations over large shared chunks.
	// Storage carved for a path is never reused (see PathArena). Nil
	// allocates each path individually, as before. An arena is NOT safe
	// for concurrent use.
	Arena *PathArena
}

// AStarScratch is the reusable allocation state of AStarPrune: the
// candidate max-heap, the flat array of partial-path nodes the heap
// entries index, and the epoch-stamped Pareto-dominance sets. Reusing one
// across sequential searches removes every allocation from the routing
// hot path. The zero value is ready to use; a scratch must not be shared
// between goroutines running searches concurrently.
type AStarScratch struct {
	heap  []apCand
	nodes []apNode
	dom   []paretoSet
	epoch uint64
}

// apNode is one node of a partial path: the graph node, the edge taken
// to arrive at it (-1 at the origin) and the index in AStarScratch.nodes
// of the node before it (-1 at the origin). Partial paths share prefixes,
// so extending one appends a single apNode.
type apNode struct {
	node, edge, parent int32
}

// apCand is one entry of the candidate heap: the ordering key by value —
// a comparison reads the heap array and nothing else — and idx, the
// partial path's last apNode.
type apCand struct {
	bottleneck, accLat float64
	hops, idx          int32
}

// NewAStarScratch returns an empty scratch. Equivalent to &AStarScratch{};
// provided for discoverability.
func NewAStarScratch() *AStarScratch { return &AStarScratch{} }

// scratchPool recycles scratches for callers that do not hold one.
var scratchPool = sync.Pool{New: func() interface{} { return &AStarScratch{} }}

// begin resets the scratch for one search over a graph of n nodes.
// Dominance sets are invalidated by epoch stamping, not cleared, so reuse
// is O(1) in the graph size.
func (sc *AStarScratch) begin(n int, dominance bool) {
	sc.heap = sc.heap[:0]
	sc.nodes = sc.nodes[:0]
	if dominance {
		if len(sc.dom) < n {
			sc.dom = make([]paretoSet, n)
		}
		sc.epoch++
		if sc.epoch == 0 { // wrapped: stamps are ambiguous, hard-reset
			for i := range sc.dom {
				sc.dom[i] = paretoSet{}
			}
			sc.epoch = 1
		}
	}
}

// extend records the partial path that reaches node over edge from the
// partial path ending at apNode parent, and adds it to the candidate set.
func (sc *AStarScratch) extend(node, edge, parent int32, bottleneck, accLat float64, hops int32) {
	idx := int32(len(sc.nodes))
	sc.nodes = append(sc.nodes, apNode{node: node, edge: edge, parent: parent})
	sc.push(apCand{bottleneck: bottleneck, accLat: accLat, hops: hops, idx: idx})
}

// push adds a candidate to the max-heap. Both sifts move a hole instead
// of swapping, but make the comparisons a swapping binary heap makes, in
// the same order: candidates with equal keys leave the heap in the order
// AStarPruneK's container/heap releases them, which is what lets the
// differential test demand the same path edge for edge.
func (sc *AStarScratch) push(c apCand) {
	h := append(sc.heap, c)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !apLess(&c, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = c
	sc.heap = h
}

// pop removes and returns the best candidate.
func (sc *AStarScratch) pop() apCand {
	h := sc.heap
	n := len(h) - 1
	top, c := h[0], h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best, bc := i, &c
		if l < n && apLess(&h[l], bc) {
			best, bc = l, &h[l]
		}
		if r < n && apLess(&h[r], bc) {
			best = r
		}
		if best == i {
			break
		}
		h[i] = h[best]
		i = best
	}
	if n > 0 {
		h[i] = c
	}
	sc.heap = h
	return top
}

// apLess orders candidates by descending bottleneck bandwidth; ties
// prefer lower accumulated latency, then fewer hops, for deterministic
// results. apStateLess is the same order on AStarPruneK's states.
func apLess(a, b *apCand) bool {
	if a.bottleneck != b.bottleneck {
		return a.bottleneck > b.bottleneck
	}
	if a.accLat != b.accLat {
		return a.accLat < b.accLat
	}
	return a.hops < b.hops
}

// onPath reports whether graph node n lies on the partial path ending at
// apNode idx.
func (sc *AStarScratch) onPath(idx, n int32) bool {
	for ; idx >= 0; idx = sc.nodes[idx].parent {
		if sc.nodes[idx].node == n {
			return true
		}
	}
	return false
}

// pathIn materialises the partial path of hops edges ending at apNode
// idx, carving the backing arrays from arena when one is supplied.
func (sc *AStarScratch) pathIn(idx, hops int32, arena *PathArena) Path {
	var nodes []NodeID
	var edges []int
	if arena != nil {
		nodes, edges = arena.alloc(int(hops))
	} else {
		nodes = make([]NodeID, hops+1)
		edges = make([]int, hops)
	}
	for i := hops; ; i-- {
		at := sc.nodes[idx]
		nodes[i] = NodeID(at.node)
		if at.parent < 0 {
			break
		}
		edges[i-1] = int(at.edge)
		idx = at.parent
	}
	return Path{Nodes: nodes, Edges: edges}
}

// AStarPrune implements the paper's modified 1-constrained A*Prune
// (Algorithm 1, after Liu & Ramakrishnan): it finds a loop-free path from
// origin to dest whose every edge has residual bandwidth of at least
// bandwidth and whose total latency does not exceed latency, and among all
// such paths returns one with the greatest bottleneck (minimum residual)
// bandwidth. The rationale (§4.3) is to keep the links with the largest
// spare capacity available for the virtual links still to be mapped.
//
// The search keeps a set of feasible partial paths ordered by bottleneck
// bandwidth (a max-heap). Extensions are pruned when the extending edge
// lacks residual bandwidth, when the node is already on the path (Eq. 7
// — a test dominance pruning makes implicit, see where the search is
// seeded), or when the accumulated latency plus the edge latency plus
// the Dijkstra lower bound ar[h] to the destination exceeds the latency
// budget — the admissibility test. (The paper's pseudo-code writes the
// test as lat((d,h)) + ar[h] <= latency, omitting the accumulated term; that form
// would admit latency-violating paths, so we include the accumulated
// latency, which is also what the original A*Prune of Liu & Ramakrishnan
// prescribes.)
//
// It returns the path and true on success. If origin == dest the trivial
// path is returned. On failure (no feasible path, or MaxExpansions hit)
// it returns a zero Path and false.
func AStarPrune(g *Graph, origin, dest NodeID, bandwidth, latency float64, residual BandwidthFunc, opts *AStarPruneOptions) (Path, bool) {
	if opts == nil {
		opts = &AStarPruneOptions{}
	}
	if origin == dest {
		return TrivialPath(origin), true
	}
	ar := opts.AR
	if ar == nil {
		ar = DijkstraLatency(g, dest)
	}
	if ar[origin] > latency {
		return Path{}, false // even the latency-optimal path busts the budget
	}

	sc := opts.Scratch
	if sc == nil {
		sc = scratchPool.Get().(*AStarScratch)
		defer scratchPool.Put(sc)
	}
	dominance := !opts.DisableDominance
	sc.begin(g.n, dominance)
	if dominance {
		// Eq. 7 for free. Along a partial path the bottleneck never
		// rises and the accumulated latency never falls (edge latencies
		// are non-negative numbers), and every node on it put its own
		// (bottleneck, latency) pair into its Pareto set — the origin
		// here, the others when they were pushed — where it stays until
		// a pair that dominates it replaces it. So an extension that
		// returns to a node of its own path always finds a dominating
		// pair there: insert rejects it, before changing anything, and
		// the walk back along the path that Eq. 7 would cost is only
		// needed with dominance off.
		sc.dom[origin].insert(math.Inf(1), 0, sc.epoch)
	}

	half := g.half
	dst := int32(dest)
	sc.extend(int32(origin), -1, -1, math.Inf(1), 0, 0)
	expansions := 0
	for len(sc.heap) > 0 {
		best := sc.pop()
		at := sc.nodes[best.idx].node
		if at == dst {
			return sc.pathIn(best.idx, best.hops, opts.Arena), true
		}
		expansions++
		if opts.MaxExpansions > 0 && expansions > opts.MaxExpansions {
			return Path{}, false
		}
		for _, e := range half[at] {
			h := e.to
			if !dominance && sc.onPath(best.idx, h) {
				continue // Eq. 7: no loops
			}
			if h != dst && len(half[h]) == 1 {
				// Dead end: h's only edge is the one we would arrive by, so
				// no simple path can continue through it. Leaf hosts hanging
				// off a switch are the common case — on switched, cascaded
				// and fat-tree fabrics this skips most of the frontier
				// before the residual-bandwidth lookup even runs. The
				// returned path is unaffected: it could never visit such a
				// node.
				continue
			}
			r := residual(int(e.eid))
			if r < bandwidth {
				continue // Eq. 9: not enough spare bandwidth
			}
			accLat := best.accLat + e.lat
			if accLat+ar[h] > latency {
				continue // admissibility: cannot reach dest within budget
			}
			bn := best.bottleneck
			if r < bn {
				bn = r
			}
			if dominance && !sc.dom[h].insert(bn, accLat, sc.epoch) {
				continue // dominated by an already-seen partial path, or a loop
			}
			sc.extend(h, e.eid, best.idx, bn, accLat, best.hops+1)
		}
	}
	return Path{}, false
}

// paretoSet keeps the non-dominated (bottleneck, latency) pairs seen at a
// node. A new pair dominates an old one when its bottleneck is >= and its
// latency is <=; equal pairs count as dominated (the first arrival wins).
// The epoch stamp lets a reused scratch invalidate every set in O(1): a
// set whose epoch differs from the current search's is logically empty.
type paretoSet struct {
	epoch uint64
	pairs []paretoPair
}

type paretoPair struct {
	bottleneck float64
	latency    float64
}

// insert reports whether the pair is non-dominated; if so it is recorded
// and any pairs it dominates are dropped. epoch identifies the current
// search for scratch reuse; callers with a fresh set pass 0.
func (ps *paretoSet) insert(bottleneck, latency float64, epoch uint64) bool {
	if ps.epoch != epoch {
		ps.epoch = epoch
		ps.pairs = ps.pairs[:0]
	}
	for _, p := range ps.pairs {
		if p.bottleneck >= bottleneck && p.latency <= latency {
			return false
		}
	}
	kept := ps.pairs[:0]
	for _, p := range ps.pairs {
		if !(bottleneck >= p.bottleneck && latency <= p.latency) {
			kept = append(kept, p)
		}
	}
	ps.pairs = append(kept, paretoPair{bottleneck, latency})
	return true
}

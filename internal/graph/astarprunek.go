package graph

import (
	"container/heap"
	"math"
)

// AStarPruneK generalises AStarPrune to the original formulation of Liu &
// Ramakrishnan ("A*Prune: an algorithm for finding K shortest paths
// subject to multiple constraints"): it returns up to k feasible
// loop-free paths in descending bottleneck-bandwidth order (ties broken
// by lower latency, then fewer hops). The candidate set is shared across
// the k extractions, so the cost is one search, not k.
//
// Dominance pruning is forced off when k > 1: a dominated partial path
// may still complete into one of the k best paths, so the optimisation is
// only sound for the single-path query.
//
// Nothing but tests and examples calls it, and it is deliberately left
// as the paper's Algorithm 1 on the plain data structures AStarPrune
// started from — candidates ordered by the bottleneck so far with no
// look-ahead, one heap-allocated, parent-linked apState per candidate
// behind container/heap, Graph.Incident/Edge/Other per edge, an explicit
// walk for Eq. 7 — so that it shares no code with AStarPrune's kernel
// beyond the Pareto sets. That makes AStarPruneK(..., 1, opts) the oracle
// of the differential test: the same found flag, bottleneck and latency
// as AStarPrune on every query, though not always the same path among
// several of that value.
func AStarPruneK(g *Graph, origin, dest NodeID, bandwidth, latency float64, residual []float64, k int, opts *AStarPruneOptions) []Path {
	if k <= 0 {
		return nil
	}
	if opts == nil {
		opts = &AStarPruneOptions{}
	}
	if origin == dest {
		return []Path{TrivialPath(origin)}
	}
	ar := opts.AR
	if ar == nil {
		ar = DijkstraLatency(g, dest)
	}
	if ar[origin] > latency {
		return nil
	}

	var dom []paretoSet
	if k == 1 && !opts.DisableDominance {
		dom = make([]paretoSet, g.NumNodes())
	}

	var found []Path
	start := &apState{node: origin, edge: -1, bottleneck: math.Inf(1)}
	pq := &apHeap{start}
	expansions := 0
	for pq.Len() > 0 && len(found) < k {
		best := heap.Pop(pq).(*apState)
		if best.node == dest {
			found = append(found, best.path())
			continue
		}
		expansions++
		if opts.MaxExpansions > 0 && expansions > opts.MaxExpansions {
			break
		}
		for _, eid := range g.Incident(best.node) {
			e := g.Edge(eid)
			h := e.Other(best.node)
			if best.contains(h) {
				continue
			}
			if h != dest && g.Degree(h) == 1 {
				continue // dead end, as in AStarPrune
			}
			if residual[eid] < bandwidth {
				continue
			}
			accLat := best.accLat + e.Latency
			if accLat+ar[h] > latency {
				continue
			}
			bn := best.bottleneck
			if r := residual[eid]; r < bn {
				bn = r
			}
			next := &apState{node: h, edge: eid, parent: best, bottleneck: bn, accLat: accLat, hops: best.hops + 1}
			if dom != nil && !dom[h].insert(bn, accLat, 0) {
				continue
			}
			heap.Push(pq, next)
		}
	}
	return found
}

// apState is one feasible partial path, stored as a parent-linked list so
// that extending a path costs O(1) instead of copying node slices.
type apState struct {
	node       NodeID
	edge       int // edge taken to arrive at node; -1 at the origin
	parent     *apState
	bottleneck float64
	accLat     float64
	hops       int
}

func (s *apState) contains(n NodeID) bool {
	for at := s; at != nil; at = at.parent {
		if at.node == n {
			return true
		}
	}
	return false
}

// path materialises the parent-linked partial path.
func (s *apState) path() Path {
	nodes := make([]NodeID, s.hops+1)
	edges := make([]int, s.hops)
	at := s
	for i := s.hops; at != nil; at = at.parent {
		nodes[i] = at.node
		if at.edge >= 0 {
			edges[i-1] = at.edge
		}
		i--
	}
	return Path{Nodes: nodes, Edges: edges}
}

// apStateLess is Algorithm 1's candidate order: widest bottleneck so
// far, then lower accumulated latency, then fewer hops.
func apStateLess(a, b *apState) bool {
	if a.bottleneck != b.bottleneck {
		return a.bottleneck > b.bottleneck
	}
	if a.accLat != b.accLat {
		return a.accLat < b.accLat
	}
	return a.hops < b.hops
}

// apHeap orders states with apStateLess through container/heap.
type apHeap []*apState

func (h apHeap) Len() int            { return len(h) }
func (h apHeap) Less(i, j int) bool  { return apStateLess(h[i], h[j]) }
func (h apHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *apHeap) Push(x interface{}) { *h = append(*h, x.(*apState)) }
func (h *apHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

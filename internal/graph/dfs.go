package graph

import "math/rand"

// DFSTreePath is the uninformed depth-first search the paper's baseline
// heuristics describe ("applies a depth-first search algorithm to find a
// path connecting the hosts", §5). It marks nodes visited globally — the
// classic DFS-tree traversal — so it does NOT re-explore a node through a
// different prefix: the search is incomplete and may miss
// feasible paths, which is precisely why the random baselines fail so
// often on the torus topology (Table 2) while never failing on the
// switched one, where the only path is the trivial host-switch-host one.
//
// Branches are pruned when the edge lacks residual bandwidth or when the
// accumulated latency would exceed the budget, so any returned path is
// feasible. rng shuffles the visiting order; nil keeps insertion order.
func DFSTreePath(g *Graph, origin, dest NodeID, bandwidth, latency float64, residual []float64, rng *rand.Rand) (Path, bool) {
	if origin == dest {
		return TrivialPath(origin), true
	}
	visited := make([]bool, g.NumNodes())
	var nodes []NodeID
	var edges []int

	var visit func(u NodeID, accLat float64) bool
	visit = func(u NodeID, accLat float64) bool {
		visited[u] = true
		nodes = append(nodes, u)

		incident := g.Incident(u)
		order := incident
		if rng != nil {
			order = make([]int, len(incident))
			copy(order, incident)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, eid := range order {
			e := g.Edge(eid)
			v := e.Other(u)
			if visited[v] {
				continue
			}
			if residual[eid] < bandwidth {
				continue
			}
			nl := accLat + e.Latency
			if nl > latency {
				continue
			}
			edges = append(edges, eid)
			if v == dest {
				nodes = append(nodes, v)
				return true
			}
			if visit(v, nl) {
				return true
			}
			edges = edges[:len(edges)-1]
		}
		// Backtrack off the path but leave u marked visited — the DFS
		// tree never returns to it, which is what makes this search
		// incomplete (and baseline-faithful).
		nodes = nodes[:len(nodes)-1]
		return false
	}

	if !visit(origin, 0) {
		return Path{}, false
	}
	return Path{
		Nodes: append([]NodeID(nil), nodes...),
		Edges: append([]int(nil), edges...),
	}, true
}

// AllSimplePaths enumerates every loop-free path from origin to dest with
// at most maxHops edges (maxHops <= 0 means unlimited). It exists to
// brute-force-verify the optimised searches on small graphs; do not call
// it on anything larger than a toy topology.
func AllSimplePaths(g *Graph, origin, dest NodeID, maxHops int) []Path {
	var out []Path
	if origin == dest {
		return []Path{TrivialPath(origin)}
	}
	onPath := make([]bool, g.NumNodes())
	var nodes []NodeID
	var edges []int

	var visit func(u NodeID)
	visit = func(u NodeID) {
		onPath[u] = true
		nodes = append(nodes, u)
		defer func() {
			onPath[u] = false
			nodes = nodes[:len(nodes)-1]
		}()
		if maxHops > 0 && len(edges) >= maxHops {
			return
		}
		for _, eid := range g.Incident(u) {
			v := g.Edge(eid).Other(u)
			if onPath[v] {
				continue
			}
			edges = append(edges, eid)
			if v == dest {
				p := Path{
					Nodes: append(append([]NodeID(nil), nodes...), v),
					Edges: append([]int(nil), edges...),
				}
				out = append(out, p)
			} else {
				visit(v)
			}
			edges = edges[:len(edges)-1]
		}
	}
	visit(origin)
	return out
}

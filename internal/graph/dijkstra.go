package graph

import "math"

// DijkstraLatency returns, for every node, the smallest accumulated
// latency of any path from src to that node, ignoring bandwidth.
// Unreachable nodes get +Inf. This is exactly the ar[] table that
// Algorithm 1 of the paper precomputes towards the link destination (the
// graph is undirected, so distances from the destination equal distances
// to it) and serves as the admissible estimate that prunes infeasible
// partial paths in A*Prune.
func DijkstraLatency(g *Graph, src NodeID) []float64 {
	return DijkstraLatencyAvoiding(g, src, nil)
}

// DijkstraLatencyAvoiding is DijkstraLatency restricted to the edges for
// which avoid reports false; nil avoids nothing. Sessions use it to keep
// cached ar[] tables exact on a degraded cluster: excluding cut physical
// links tightens the admissible bound (a cut link carries no feasible
// path), which only sharpens A*Prune's pruning and never changes which
// paths are feasible.
func DijkstraLatencyAvoiding(g *Graph, src NodeID, avoid func(edgeID int) bool) []float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := distHeap{{dist: 0, node: int32(src)}}
	for len(pq) > 0 {
		item := pq.pop()
		if item.dist > dist[item.node] {
			continue // stale entry
		}
		for _, e := range g.half[item.node] {
			if avoid != nil && avoid(int(e.eid)) {
				continue
			}
			if nd := item.dist + e.lat; nd < dist[e.to] {
				dist[e.to] = nd
				pq.push(distItem{dist: nd, node: e.to})
			}
		}
	}
	return dist
}

// distItem is one tentative distance in Dijkstra's frontier.
type distItem struct {
	dist float64
	node int32
}

// distHeap is a typed binary min-heap on dist: no interface{} box per
// push, unlike container/heap. Its sifts move a hole and make the
// comparisons container/heap makes, so nodes at equal distance are
// settled in the order they always were.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(it.dist < q[p].dist) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
	*h = q
}

func (h *distHeap) pop() distItem {
	q := *h
	n := len(q) - 1
	top, it := q[0], q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].dist < q[c].dist {
			c = r
		}
		if !(q[c].dist < it.dist) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = it
	}
	*h = q
	return top
}

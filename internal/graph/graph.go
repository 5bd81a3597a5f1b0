// Package graph implements the physical-network substrate of the HMN
// reproduction: an undirected weighted multigraph whose edges carry a
// bandwidth capacity and a latency, together with the routing algorithms
// the paper relies on — Dijkstra over the latency metric (used both
// directly and as the admissibility estimate of A*Prune), the modified
// 1-constrained A*Prune of Algorithm 1 (bottleneck-bandwidth maximising,
// latency-constrained, loop-free), and the constrained depth-first path
// search used by the paper's baseline heuristics.
//
// The graph is a pure topology: capacities stored on edges are the nominal
// (installed) capacities. Residual bandwidth — which shrinks as virtual
// links are mapped — is supplied to the search algorithms as a vector
// indexed by edge ID, so that the same topology can be shared by many
// concurrent mapping attempts, each with its own residual ledger.
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a node of a Graph. Nodes are dense integers in
// [0, NumNodes).
type NodeID int

// Edge is one undirected physical link. A and B are its endpoints (the
// order carries no meaning), Bandwidth its installed capacity in Mbps and
// Latency its one-way latency in ms. ID is the dense index of the edge
// within its graph.
type Edge struct {
	ID        int
	A, B      NodeID
	Bandwidth float64
	Latency   float64
}

// Other returns the endpoint of e that is not n. It panics if n is not an
// endpoint of e; edge/node pairs always come from the same graph, so a
// mismatch is a programming error, not an input error.
func (e Edge) Other(n NodeID) NodeID {
	switch n {
	case e.A:
		return e.B
	case e.B:
		return e.A
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d (%d-%d)", n, e.ID, e.A, e.B))
}

// Graph is an undirected weighted multigraph. The zero value is an empty
// graph; use New to create one with a fixed node count and AddEdge to grow
// it. Graphs are not safe for concurrent mutation but are safe for
// concurrent reads once built.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]int      // node -> indices into edges
	half  [][]halfEdge // node -> one entry per incident edge, in adj order
}

// halfEdge is one end of an edge as the search kernels want it: the
// latency, the far endpoint and the edge ID in 16 contiguous bytes, so
// that expanding a node reads one array and neither copies an Edge nor
// works out which endpoint is the other one. half[n][i] describes edge
// adj[n][i].
type halfEdge struct {
	lat     float64
	to, eid int32
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	if n > math.MaxInt32 {
		panic("graph: node count overflows the int32 half-edge index")
	}
	return &Graph{n: n, adj: make([][]int, n), half: make([][]halfEdge, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge appends an undirected edge between a and b with the given
// bandwidth (Mbps) and latency (ms) and returns its ID. Self-loops are
// rejected: the paper models intra-host communication as infinite
// bandwidth and zero latency outside the physical graph (§3.2), so a
// self-loop in the topology is always a modelling error.
func (g *Graph) AddEdge(a, b NodeID, bandwidth, latency float64) int {
	if a == b {
		panic(fmt.Sprintf("graph: self-loop on node %d", a))
	}
	g.checkNode(a)
	g.checkNode(b)
	// Negated so that NaN is refused too: the searches' orderings and
	// A*Prune's dominance argument need latencies that are numbers.
	if !(bandwidth >= 0) {
		panic(fmt.Sprintf("graph: negative or NaN bandwidth %v on edge %d-%d", bandwidth, a, b))
	}
	if !(latency >= 0) {
		panic(fmt.Sprintf("graph: negative or NaN latency %v on edge %d-%d", latency, a, b))
	}
	id := len(g.edges)
	if id == math.MaxInt32 {
		panic("graph: edge count overflows the int32 half-edge index")
	}
	g.edges = append(g.edges, Edge{ID: id, A: a, B: b, Bandwidth: bandwidth, Latency: latency})
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
	g.half[a] = append(g.half[a], halfEdge{lat: latency, to: int32(b), eid: int32(id)})
	g.half[b] = append(g.half[b], halfEdge{lat: latency, to: int32(a), eid: int32(id)})
	return id
}

func (g *Graph) checkNode(n NodeID) {
	if n < 0 || int(n) >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", n, g.n))
	}
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge {
	return g.edges[id]
}

// Edges returns all edges. The returned slice is owned by the graph and
// must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Incident returns the IDs of the edges incident to n. The returned slice
// is owned by the graph and must not be modified.
func (g *Graph) Incident(n NodeID) []int {
	g.checkNode(n)
	return g.adj[n]
}

// Degree returns the number of edges incident to n.
func (g *Graph) Degree(n NodeID) int {
	g.checkNode(n)
	return len(g.adj[n])
}

// Neighbors returns the nodes adjacent to n. Parallel edges yield repeated
// entries. The slice is freshly allocated.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	g.checkNode(n)
	out := make([]NodeID, 0, len(g.adj[n]))
	for _, eid := range g.adj[n] {
		out = append(out, g.edges[eid].Other(n))
	}
	return out
}

// HasEdgeBetween reports whether at least one edge directly connects a
// and b.
func (g *Graph) HasEdgeBetween(a, b NodeID) bool {
	g.checkNode(a)
	g.checkNode(b)
	for _, eid := range g.adj[a] {
		if g.edges[eid].Other(a) == b {
			return true
		}
	}
	return false
}

// Connected reports whether every node is reachable from every other node.
// The empty graph and the single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.adj[u] {
			v := g.edges[eid].Other(u)
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.n
}

// ConnectedSubset reports whether all nodes in subset are mutually
// reachable using only edges whose two endpoints both lie in subset. Used
// by topology builders to validate host-only connectivity claims.
func (g *Graph) ConnectedSubset(subset []NodeID) bool {
	if len(subset) <= 1 {
		return true
	}
	in := make(map[NodeID]bool, len(subset))
	for _, n := range subset {
		g.checkNode(n)
		in[n] = true
	}
	seen := map[NodeID]bool{subset[0]: true}
	stack := []NodeID{subset[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.adj[u] {
			v := g.edges[eid].Other(u)
			if in[v] && !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	for _, n := range subset {
		if !seen[n] {
			return false
		}
	}
	return true
}

// NominalBandwidth returns a fresh residual vector, indexed by edge ID,
// holding each edge's installed capacity: a network with nothing reserved
// yet.
func (g *Graph) NominalBandwidth() []float64 {
	bw := make([]float64, len(g.edges))
	for i, e := range g.edges {
		bw[i] = e.Bandwidth
	}
	return bw
}

// Inf is the bandwidth value used to model "unlimited" (the paper assigns
// bw((c,c)) = infinity to intra-host links).
var Inf = math.Inf(1)

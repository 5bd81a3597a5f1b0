package graph

import (
	"fmt"
	"math"
	"strings"
)

// Path is a walk through a graph described both by its node sequence and
// by the IDs of the traversed edges: Nodes has exactly one more element
// than Edges, and Edges[i] connects Nodes[i] to Nodes[i+1]. A Path with a
// single node and no edges is the trivial (intra-host) path.
type Path struct {
	Nodes []NodeID
	Edges []int
}

// TrivialPath returns the zero-hop path that starts and ends at n. It is
// how the mapping layer represents a virtual link whose two guests landed
// on the same host: by §3.2 such a link has infinite bandwidth and zero
// latency and consumes no physical resources.
func TrivialPath(n NodeID) Path {
	return Path{Nodes: []NodeID{n}}
}

// TrivialPathIn is TrivialPath with the single-node backing array carved
// from arena (nil allocates, as TrivialPath does). Mappings with heavy
// co-location produce one trivial path per internalised link, so the
// routing hot path arena-allocates them alongside the real paths.
func TrivialPathIn(n NodeID, arena *PathArena) Path {
	if arena == nil {
		return TrivialPath(n)
	}
	nodes, _ := arena.alloc(0)
	nodes[0] = n
	return Path{Nodes: nodes}
}

// Len returns the number of hops (edges) in the path.
func (p Path) Len() int { return len(p.Edges) }

// Origin returns the first node of the path.
func (p Path) Origin() NodeID { return p.Nodes[0] }

// Destination returns the last node of the path.
func (p Path) Destination() NodeID { return p.Nodes[len(p.Nodes)-1] }

// Latency returns the accumulated latency of the path in g (Eq. 8's
// left-hand side). The trivial path has zero latency.
func (p Path) Latency(g *Graph) float64 {
	total := 0.0
	for _, eid := range p.Edges {
		total += g.Edge(eid).Latency
	}
	return total
}

// Bottleneck returns the smallest residual bandwidth along the path,
// bw[e] being edge e's. The trivial path has infinite bottleneck bandwidth.
func (p Path) Bottleneck(g *Graph, bw []float64) float64 {
	min := math.Inf(1)
	for _, eid := range p.Edges {
		if b := bw[eid]; b < min {
			min = b
		}
	}
	return min
}

// Validate checks the structural invariants of the path against g: node
// and edge sequences are consistent, each edge actually connects the
// adjacent node pair, and no node repeats (constraint Eq. 7: the sequence
// is loop-free). It returns a descriptive error on the first violation.
func (p Path) Validate(g *Graph) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("graph: empty path")
	}
	if len(p.Edges) != len(p.Nodes)-1 {
		return fmt.Errorf("graph: path has %d nodes but %d edges", len(p.Nodes), len(p.Edges))
	}
	seen := make(map[NodeID]bool, len(p.Nodes))
	for i, n := range p.Nodes {
		if n < 0 || int(n) >= g.NumNodes() {
			return fmt.Errorf("graph: path node %d out of range", n)
		}
		if seen[n] {
			return fmt.Errorf("graph: path revisits node %d (position %d)", n, i)
		}
		seen[n] = true
	}
	for i, eid := range p.Edges {
		if eid < 0 || eid >= g.NumEdges() {
			return fmt.Errorf("graph: path edge %d out of range", eid)
		}
		e := g.Edge(eid)
		u, v := p.Nodes[i], p.Nodes[i+1]
		if !((e.A == u && e.B == v) || (e.A == v && e.B == u)) {
			return fmt.Errorf("graph: edge %d (%d-%d) does not connect %d-%d", eid, e.A, e.B, u, v)
		}
	}
	return nil
}

// String renders the path as "0 -[3]-> 5 -[7]-> 2".
func (p Path) String() string {
	if len(p.Nodes) == 0 {
		return "<empty>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d", p.Nodes[0])
	for i, eid := range p.Edges {
		fmt.Fprintf(&b, " -[%d]-> %d", eid, p.Nodes[i+1])
	}
	return b.String()
}

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	return Path{
		Nodes: append([]NodeID(nil), p.Nodes...),
		Edges: append([]int(nil), p.Edges...),
	}
}

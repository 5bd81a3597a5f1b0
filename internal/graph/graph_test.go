package graph

import (
	"math"
	"math/rand"
	"testing"
)

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func TestNewEmptyGraph(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph should have no nodes or edges")
	}
	if !g.Connected() {
		t.Fatal("empty graph is connected by convention")
	}
}

func TestNewNegativePanics(t *testing.T) {
	mustPanic(t, "New(-1)", func() { New(-1) })
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	id := g.AddEdge(0, 1, 100, 5)
	if id != 0 {
		t.Fatalf("first edge ID = %d, want 0", id)
	}
	id2 := g.AddEdge(1, 2, 200, 7)
	if id2 != 1 {
		t.Fatalf("second edge ID = %d, want 1", id2)
	}
	e := g.Edge(0)
	if e.A != 0 || e.B != 1 || e.Bandwidth != 100 || e.Latency != 5 {
		t.Fatalf("edge 0 = %+v", e)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2)
	mustPanic(t, "self-loop", func() { g.AddEdge(0, 0, 1, 1) })
	mustPanic(t, "node out of range", func() { g.AddEdge(0, 5, 1, 1) })
	mustPanic(t, "negative node", func() { g.AddEdge(-1, 0, 1, 1) })
	mustPanic(t, "negative bandwidth", func() { g.AddEdge(0, 1, -1, 1) })
	mustPanic(t, "negative latency", func() { g.AddEdge(0, 1, 1, -1) })
	mustPanic(t, "NaN bandwidth", func() { g.AddEdge(0, 1, math.NaN(), 1) })
	mustPanic(t, "NaN latency", func() { g.AddEdge(0, 1, 1, math.NaN()) })
}

func TestEdgeOther(t *testing.T) {
	e := Edge{ID: 0, A: 3, B: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Fatal("Other returned wrong endpoint")
	}
	mustPanic(t, "Other(non-endpoint)", func() { e.Other(1) })
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(0, 2, 1, 1)
	g.AddEdge(0, 1, 1, 1) // parallel edge
	if g.Degree(0) != 3 {
		t.Fatalf("Degree(0) = %d, want 3", g.Degree(0))
	}
	if g.Degree(3) != 0 {
		t.Fatalf("Degree(3) = %d, want 0", g.Degree(3))
	}
}

func TestHasEdgeBetween(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, 1)
	if !g.HasEdgeBetween(0, 1) || !g.HasEdgeBetween(1, 0) {
		t.Fatal("edge 0-1 should be visible from both sides")
	}
	if g.HasEdgeBetween(0, 2) {
		t.Fatal("no edge 0-2 exists")
	}
}

func TestConnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, 1)
	if g.Connected() {
		t.Fatal("node 2 is isolated; graph is not connected")
	}
	g.AddEdge(1, 2, 1, 1)
	if !g.Connected() {
		t.Fatal("path graph should be connected")
	}
	if !New(1).Connected() {
		t.Fatal("single node graph is connected")
	}
}

func TestNominalBandwidth(t *testing.T) {
	g := New(2)
	id := g.AddEdge(0, 1, 123, 1)
	if got := g.NominalBandwidth()[id]; got != 123 {
		t.Fatalf("NominalBandwidth = %v, want 123", got)
	}
}

func TestIncidentOwnedSlice(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1, 1)
	if len(g.Incident(0)) != 1 || g.Incident(0)[0] != 0 {
		t.Fatalf("Incident(0) = %v", g.Incident(0))
	}
}

func TestPathValidate(t *testing.T) {
	g := New(4)
	e01 := g.AddEdge(0, 1, 10, 1)
	e12 := g.AddEdge(1, 2, 10, 1)
	g.AddEdge(2, 3, 10, 1)

	good := Path{Nodes: []NodeID{0, 1, 2}, Edges: []int{e01, e12}}
	if err := good.Validate(g); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	if err := TrivialPath(2).Validate(g); err != nil {
		t.Fatalf("trivial path rejected: %v", err)
	}

	cases := []struct {
		name string
		p    Path
	}{
		{"empty", Path{}},
		{"count mismatch", Path{Nodes: []NodeID{0, 1}, Edges: nil}},
		{"node out of range", Path{Nodes: []NodeID{0, 9}, Edges: []int{e01}}},
		{"edge out of range", Path{Nodes: []NodeID{0, 1}, Edges: []int{99}}},
		{"edge does not connect", Path{Nodes: []NodeID{0, 2}, Edges: []int{e01}}},
		{"revisits node", Path{Nodes: []NodeID{0, 1, 0}, Edges: []int{e01, e01}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(g); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestPathMetrics(t *testing.T) {
	g := New(3)
	e01 := g.AddEdge(0, 1, 10, 2)
	e12 := g.AddEdge(1, 2, 4, 3)
	p := Path{Nodes: []NodeID{0, 1, 2}, Edges: []int{e01, e12}}
	if got := p.Latency(g); got != 5 {
		t.Fatalf("Latency = %v, want 5", got)
	}
	if got := p.Bottleneck(g, g.NominalBandwidth()); got != 4 {
		t.Fatalf("Bottleneck = %v, want 4", got)
	}
	if p.Len() != 2 || p.Origin() != 0 || p.Destination() != 2 {
		t.Fatalf("path shape wrong: %v", p)
	}
	triv := TrivialPath(1)
	if triv.Latency(g) != 0 || !math.IsInf(triv.Bottleneck(g, g.NominalBandwidth()), 1) {
		t.Fatal("trivial path must have 0 latency and infinite bottleneck")
	}
	if triv.Origin() != 1 || triv.Destination() != 1 || triv.Len() != 0 {
		t.Fatal("trivial path shape wrong")
	}
}

func TestPathString(t *testing.T) {
	g := New(2)
	e := g.AddEdge(0, 1, 1, 1)
	p := Path{Nodes: []NodeID{0, 1}, Edges: []int{e}}
	if got := p.String(); got != "0 -[0]-> 1" {
		t.Fatalf("String = %q", got)
	}
	if got := (Path{}).String(); got != "<empty>" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestPathClone(t *testing.T) {
	p := Path{Nodes: []NodeID{0, 1}, Edges: []int{0}}
	c := p.Clone()
	c.Nodes[0] = 9
	c.Edges[0] = 9
	if p.Nodes[0] != 0 || p.Edges[0] != 0 {
		t.Fatal("Clone did not deep-copy")
	}
}

// randomConnectedGraph builds a connected graph: a random spanning tree
// plus extra random edges, with bandwidths in [1,10] and latencies in
// [1,5].
func randomConnectedGraph(rng *rand.Rand, n, extraEdges int) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		a := NodeID(perm[i])
		b := NodeID(perm[rng.Intn(i)])
		g.AddEdge(a, b, 1+9*rng.Float64(), 1+4*rng.Float64())
	}
	for i := 0; i < extraEdges; i++ {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		g.AddEdge(a, b, 1+9*rng.Float64(), 1+4*rng.Float64())
	}
	return g
}

func TestRandomConnectedGraphIsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		g := randomConnectedGraph(rng, 2+rng.Intn(20), rng.Intn(10))
		if !g.Connected() {
			t.Fatal("randomConnectedGraph produced a disconnected graph")
		}
	}
}

package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

func TestDijkstraLatencyLine(t *testing.T) {
	// 0 -(1)- 1 -(2)- 2 -(3)- 3
	g := New(4)
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(1, 2, 10, 2)
	g.AddEdge(2, 3, 10, 3)
	dist := DijkstraLatency(g, 0)
	want := []float64{0, 1, 3, 6}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("dist[%d] = %v, want %v", i, dist[i], w)
		}
	}
}

func TestDijkstraLatencyPicksShorterRoute(t *testing.T) {
	// Two routes 0->2: direct latency 10, via 1 latency 3.
	g := New(3)
	g.AddEdge(0, 2, 10, 10)
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(1, 2, 10, 2)
	dist := DijkstraLatency(g, 0)
	if dist[2] != 3 {
		t.Fatalf("dist[2] = %v, want 3", dist[2])
	}
}

func TestDijkstraLatencyUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, 1)
	dist := DijkstraLatency(g, 0)
	if !math.IsInf(dist[2], 1) {
		t.Fatalf("dist[2] = %v, want +Inf", dist[2])
	}
}

func TestDijkstraSymmetry(t *testing.T) {
	// Undirected graph: dist(a->b) == dist(b->a).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := randomConnectedGraph(rng, 8, 6)
		for a := 0; a < g.NumNodes(); a++ {
			da := DijkstraLatency(g, NodeID(a))
			for b := 0; b < g.NumNodes(); b++ {
				db := DijkstraLatency(g, NodeID(b))
				if math.Abs(da[b]-db[a]) > 1e-9 {
					t.Fatalf("asymmetric distances %v vs %v", da[b], db[a])
				}
			}
		}
	}
}

// bruteForceShortest enumerates all simple paths and returns the minimum
// latency, or +Inf when none exists.
func bruteForceShortest(g *Graph, a, b NodeID) float64 {
	best := math.Inf(1)
	for _, p := range AllSimplePaths(g, a, b, 0) {
		if l := p.Latency(g); l < best {
			best = l
		}
	}
	return best
}

func TestDijkstraMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(6)
		g := randomConnectedGraph(rng, n, rng.Intn(6))
		src := NodeID(rng.Intn(n))
		dist := DijkstraLatency(g, src)
		for v := 0; v < n; v++ {
			want := bruteForceShortest(g, src, NodeID(v))
			if NodeID(v) == src {
				want = 0
			}
			if math.Abs(dist[v]-want) > 1e-9 {
				t.Fatalf("trial %d: dist[%d] = %v, brute force = %v", trial, v, dist[v], want)
			}
		}
	}
}

// Property: the triangle inequality holds on the Dijkstra distance tables.
func TestDijkstraTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(8)
		g := randomConnectedGraph(rng, n, rng.Intn(6))
		tables := make([][]float64, n)
		for i := 0; i < n; i++ {
			tables[i] = DijkstraLatency(g, NodeID(i))
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					if tables[a][b] > tables[a][c]+tables[c][b]+1e-9 {
						t.Fatalf("triangle inequality violated: d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
							a, b, tables[a][b], a, c, c, b, tables[a][c]+tables[c][b])
					}
				}
			}
		}
	}
}

// refHeap and refDijkstra are the implementation the typed heap and the
// half-edge adjacency replaced — container/heap over
// Graph.Incident/Edge/Other — kept as the reference the tables of the
// current one are held to.
type refItem struct {
	node NodeID
	dist float64
}

type refHeap []refItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refDijkstra returns the latency table from src.
func refDijkstra(g *Graph, src NodeID, avoid func(int) bool) []float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &refHeap{{node: src}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(refItem)
		if item.dist > dist[item.node] {
			continue
		}
		for _, eid := range g.Incident(item.node) {
			if avoid != nil && avoid(eid) {
				continue
			}
			e := g.Edge(eid)
			v := e.Other(item.node)
			if nd := item.dist + e.Latency; nd < dist[v] {
				dist[v] = nd
				heap.Push(pq, refItem{node: v, dist: nd})
			}
		}
	}
	return dist
}

// The tables are bit-identical to the reference's, with and without
// avoided edges — on multigraphs whose small integer latencies make ties
// between equal-latency paths the rule.
func TestDijkstraMatchesReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(30)
		g, res := randomMultigraph(rng, n, trial%2 == 0)
		var avoid func(int) bool
		if trial%3 == 0 {
			avoid = func(e int) bool { return res[e] < 1 }
		}
		src := NodeID(rng.Intn(n))

		want := refDijkstra(g, src, avoid)
		got := DijkstraLatencyAvoiding(g, src, avoid)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("trial %d: dist[%d] = %v, reference %v", trial, v, got[v], want[v])
			}
		}
	}
}

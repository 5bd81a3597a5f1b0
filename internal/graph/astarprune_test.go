package graph

import (
	"math"
	"math/rand"
	"testing"
)

// bruteForceBestBottleneck finds, by exhaustive enumeration, the greatest
// bottleneck bandwidth over all simple paths from a to b that satisfy the
// bandwidth and latency constraints. Returns -1 when no feasible path
// exists.
func bruteForceBestBottleneck(g *Graph, a, b NodeID, bandwidth, latency float64, bw []float64) float64 {
	best := -1.0
	for _, p := range AllSimplePaths(g, a, b, 0) {
		if p.Latency(g) > latency {
			continue
		}
		bn := p.Bottleneck(g, bw)
		if bn < bandwidth {
			continue
		}
		if bn > best {
			best = bn
		}
	}
	return best
}

func TestAStarPruneTrivial(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 10, 1)
	p, ok := AStarPrune(g, 0, 0, 5, 10, g.NominalBandwidth(), nil)
	if !ok || p.Len() != 0 || p.Origin() != 0 {
		t.Fatal("origin==dest should return the trivial path")
	}
}

func TestAStarPrunePicksWidestPath(t *testing.T) {
	// Two routes 0->3: narrow direct (bw 2, lat 1) and wide detour
	// (bw 10 each hop, lat 2 total). Budget allows both; A*Prune must
	// pick the wide one.
	g := New(4)
	g.AddEdge(0, 3, 2, 1)
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(1, 3, 10, 1)
	p, ok := AStarPrune(g, 0, 3, 1, 10, g.NominalBandwidth(), nil)
	if !ok {
		t.Fatal("path should exist")
	}
	if got := p.Bottleneck(g, g.NominalBandwidth()); got != 10 {
		t.Fatalf("bottleneck = %v, want 10 (the wide detour)", got)
	}
}

func TestAStarPruneRespectsLatencyBudget(t *testing.T) {
	// Wide detour busts the budget, so the narrow direct edge must win.
	g := New(4)
	g.AddEdge(0, 3, 2, 1)
	g.AddEdge(0, 1, 10, 5)
	g.AddEdge(1, 3, 10, 5)
	p, ok := AStarPrune(g, 0, 3, 1, 4, g.NominalBandwidth(), nil)
	if !ok {
		t.Fatal("direct path is feasible")
	}
	if p.Latency(g) > 4 {
		t.Fatalf("latency %v exceeds budget 4", p.Latency(g))
	}
	if got := p.Bottleneck(g, g.NominalBandwidth()); got != 2 {
		t.Fatalf("bottleneck = %v, want 2 (the direct edge)", got)
	}
}

func TestAStarPruneRespectsBandwidthFloor(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2, 1) // too narrow for demand 5
	g.AddEdge(1, 2, 10, 1)
	g.AddEdge(0, 2, 7, 10)
	p, ok := AStarPrune(g, 0, 2, 5, 20, g.NominalBandwidth(), nil)
	if !ok {
		t.Fatal("0-2 direct is feasible")
	}
	if p.Len() != 1 || p.Edges[0] != 2 {
		t.Fatalf("expected the direct 0-2 edge, got %v", p)
	}
}

func TestAStarPruneNoFeasiblePath(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 2, 1, 1)
	// Bandwidth demand exceeds every edge.
	if _, ok := AStarPrune(g, 0, 2, 5, 100, g.NominalBandwidth(), nil); ok {
		t.Fatal("no edge has bandwidth 5; search must fail")
	}
	// Latency budget below the only route.
	if _, ok := AStarPrune(g, 0, 2, 0.5, 1.5, g.NominalBandwidth(), nil); ok {
		t.Fatal("minimum latency is 2; search must fail")
	}
	// Disconnected destination.
	g2 := New(3)
	g2.AddEdge(0, 1, 10, 1)
	if _, ok := AStarPrune(g2, 0, 2, 1, 100, g2.NominalBandwidth(), nil); ok {
		t.Fatal("node 2 is unreachable; search must fail")
	}
}

func TestAStarPruneUsesResidualNotNominal(t *testing.T) {
	// Nominal capacity admits the direct edge, but residual does not.
	g := New(3)
	direct := g.AddEdge(0, 2, 10, 1)
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(1, 2, 10, 1)
	residual := []float64{10, 10, 10}
	residual[direct] = 0.5
	p, ok := AStarPrune(g, 0, 2, 1, 100, residual, nil)
	if !ok {
		t.Fatal("detour is feasible")
	}
	for _, eid := range p.Edges {
		if eid == direct {
			t.Fatal("path used the exhausted direct edge")
		}
	}
}

func TestAStarPruneAcceptsPrecomputedAR(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(1, 2, 10, 1)
	ar := DijkstraLatency(g, 2)
	p1, ok1 := AStarPrune(g, 0, 2, 1, 10, g.NominalBandwidth(), &AStarPruneOptions{AR: ar})
	p2, ok2 := AStarPrune(g, 0, 2, 1, 10, g.NominalBandwidth(), nil)
	if !ok1 || !ok2 {
		t.Fatal("both searches should succeed")
	}
	if p1.String() != p2.String() {
		t.Fatalf("precomputed AR changed the result: %v vs %v", p1, p2)
	}
}

func TestAStarPruneAccumulatedLatencyEnforced(t *testing.T) {
	// Regression for the paper's pseudo-code omission: the prune test must
	// include the accumulated latency of the partial path, otherwise this
	// instance returns a path of latency 6 against a budget of 4.
	// Chain 0-1-2-3 with latency 2 per hop; a direct edge 0-3 with
	// latency 4 but tiny bandwidth. Budget 4, demand 1: only the direct
	// edge is feasible even though the chain has the better bottleneck.
	g := New(4)
	g.AddEdge(0, 1, 10, 2)
	g.AddEdge(1, 2, 10, 2)
	g.AddEdge(2, 3, 10, 2)
	g.AddEdge(0, 3, 1.5, 4)
	p, ok := AStarPrune(g, 0, 3, 1, 4, g.NominalBandwidth(), nil)
	if !ok {
		t.Fatal("direct edge is feasible")
	}
	if p.Latency(g) > 4 {
		t.Fatalf("returned path violates the latency budget: %v", p.Latency(g))
	}
}

func TestAStarPruneMatchesBruteForceWithDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(7)
		g := randomConnectedGraph(rng, n, rng.Intn(8))
		bw := g.NominalBandwidth()
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		demand := rng.Float64() * 8
		budget := rng.Float64() * 15
		want := bruteForceBestBottleneck(g, a, b, demand, budget, bw)
		p, ok := AStarPrune(g, a, b, demand, budget, bw, nil)
		if !ok {
			if want >= 0 {
				t.Fatalf("trial %d: A*Prune failed but a feasible path with bottleneck %v exists", trial, want)
			}
			continue
		}
		if want < 0 {
			t.Fatalf("trial %d: A*Prune returned a path but brute force found none", trial)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("trial %d: invalid path: %v", trial, err)
		}
		if p.Latency(g) > budget+1e-9 {
			t.Fatalf("trial %d: latency %v exceeds budget %v", trial, p.Latency(g), budget)
		}
		got := p.Bottleneck(g, bw)
		if got < demand {
			t.Fatalf("trial %d: bottleneck %v below demand %v", trial, got, demand)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: bottleneck %v, brute-force optimum %v", trial, got, want)
		}
	}
}

func TestParetoSet(t *testing.T) {
	var ps paretoSet
	if !ps.insert(5, 10, 0) {
		t.Fatal("first pair must be accepted")
	}
	if ps.insert(4, 11, 0) {
		t.Fatal("(4,11) is dominated by (5,10)")
	}
	if ps.insert(5, 10, 0) {
		t.Fatal("duplicate pair counts as dominated")
	}
	if !ps.insert(6, 12, 0) {
		t.Fatal("(6,12) trades latency for bandwidth; not dominated")
	}
	if !ps.insert(7, 9, 0) {
		t.Fatal("(7,9) dominates everything; must be accepted")
	}
	if len(ps.pairs) != 1 {
		t.Fatalf("dominated pairs must be evicted; kept %v", ps.pairs)
	}
}

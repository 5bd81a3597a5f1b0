package graph

import (
	"math/rand"
	"testing"
)

func TestDFSTreePathTrivial(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 10, 1)
	p, ok := DFSTreePath(g, 0, 0, 1, 10, g.NominalBandwidth(), nil)
	if !ok || p.Len() != 0 {
		t.Fatal("origin==dest must return the trivial path")
	}
}

func TestDFSTreePathFindsPathOnLine(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(1, 2, 10, 1)
	g.AddEdge(2, 3, 10, 1)
	p, ok := DFSTreePath(g, 0, 3, 1, 10, g.NominalBandwidth(), nil)
	if !ok {
		t.Fatal("line path must be found")
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.Origin() != 0 || p.Destination() != 3 {
		t.Fatal("endpoints wrong")
	}
}

func TestDFSTreePathRespectsConstraints(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2, 1)
	g.AddEdge(1, 2, 10, 1)
	if _, ok := DFSTreePath(g, 0, 2, 5, 10, g.NominalBandwidth(), nil); ok {
		t.Fatal("bandwidth-infeasible path accepted")
	}
	if _, ok := DFSTreePath(g, 0, 2, 1, 1.5, g.NominalBandwidth(), nil); ok {
		t.Fatal("latency-infeasible path accepted")
	}
}

func TestDFSTreePathReturnsFeasiblePathsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		g := randomConnectedGraph(rng, 3+rng.Intn(12), rng.Intn(15))
		a, b := NodeID(0), NodeID(g.NumNodes()-1)
		demand := rng.Float64() * 5
		budget := 2 + rng.Float64()*15
		p, ok := DFSTreePath(g, a, b, demand, budget, g.NominalBandwidth(), rng)
		if !ok {
			continue // incompleteness is allowed
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("invalid path: %v", err)
		}
		if p.Latency(g) > budget+1e-9 {
			t.Fatalf("latency violated: %v > %v", p.Latency(g), budget)
		}
		if p.Bottleneck(g, g.NominalBandwidth()) < demand {
			t.Fatal("bandwidth violated")
		}
	}
}

func TestDFSTreePathIsIncomplete(t *testing.T) {
	// A graph where the DFS tree takes a long detour first and the marked
	// nodes then block the only within-budget route: deterministic order
	// explores edge 0 first.
	//
	//   0 --(lat 1)-- 1 --(lat 1)-- 2 --(lat 1)-- 3
	//   0 -----------(lat 2.5)------------------- 3 is absent;
	// instead: 0-4 (lat 1), 4-1 (lat 1): DFS dives 0-4-1-2-3 (lat 4) over
	// budget 3.5; having marked 1 and 2, the direct 0-1-2-3 (lat 3) is
	// unreachable. Exhaustive enumeration finds it.
	g := New(5)
	g.AddEdge(0, 4, 10, 1) // explored first
	g.AddEdge(4, 1, 10, 1)
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(1, 2, 10, 1)
	g.AddEdge(2, 3, 10, 1)

	bw := g.NominalBandwidth()
	var feasible []Path
	for _, p := range AllSimplePaths(g, 0, 3, 0) {
		if p.Bottleneck(g, bw) >= 1 && p.Latency(g) <= 3 {
			feasible = append(feasible, p)
		}
	}
	if len(feasible) != 1 || feasible[0].String() != "0 -[2]-> 1 -[3]-> 2 -[4]-> 3" {
		t.Fatalf("feasible paths within budget 3: %v, want only 0-1-2-3", feasible)
	}
	if _, ok := DFSTreePath(g, 0, 3, 1, 3, g.NominalBandwidth(), nil); ok {
		t.Fatal("the tree search should miss the path after marking nodes on its detour")
	}
}

func TestDFSTreePathAlwaysSucceedsOnStar(t *testing.T) {
	// On a switched/star topology the only route is the 2-hop one — the
	// tree search cannot wander, reproducing the paper's observation that
	// the baselines never fail on the switched cluster.
	g := New(5) // 4 hosts + center 4
	for i := 0; i < 4; i++ {
		g.AddEdge(NodeID(i), 4, 10, 5)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := NodeID(rng.Intn(4))
		b := NodeID(rng.Intn(4))
		if a == b {
			continue
		}
		p, ok := DFSTreePath(g, a, b, 1, 30, g.NominalBandwidth(), rng)
		if !ok {
			t.Fatal("star routing must always succeed")
		}
		if p.Len() != 2 {
			t.Fatalf("star route must be 2 hops, got %d", p.Len())
		}
	}
}

func TestDFSTreePathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 10, 1)
	if _, ok := DFSTreePath(g, 0, 2, 1, 10, g.NominalBandwidth(), nil); ok {
		t.Fatal("node 2 is unreachable")
	}
}

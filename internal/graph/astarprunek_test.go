package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestAStarPruneKZeroAndTrivial(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 10, 1)
	if got := AStarPruneK(g, 0, 1, 1, 10, g.NominalBandwidth(), 0, nil); got != nil {
		t.Fatal("k=0 must return nil")
	}
	paths := AStarPruneK(g, 0, 0, 1, 10, g.NominalBandwidth(), 3, nil)
	if len(paths) != 1 || paths[0].Len() != 0 {
		t.Fatal("origin==dest yields only the trivial path")
	}
}

func TestAStarPruneKOrderingAndFeasibility(t *testing.T) {
	// Diamond with distinct widths: 0-1-3 (bw 10), 0-2-3 (bw 5), 0-3 (bw 2).
	g := New(4)
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(1, 3, 10, 1)
	g.AddEdge(0, 2, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	g.AddEdge(0, 3, 2, 1)
	paths := AStarPruneK(g, 0, 3, 1, 10, g.NominalBandwidth(), 5, nil)
	if len(paths) != 3 {
		t.Fatalf("expected 3 feasible paths, got %d", len(paths))
	}
	bots := make([]float64, len(paths))
	for i, p := range paths {
		if err := p.Validate(g); err != nil {
			t.Fatal(err)
		}
		bots[i] = p.Bottleneck(g, g.NominalBandwidth())
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(bots))) {
		t.Fatalf("paths not in descending bottleneck order: %v", bots)
	}
	if bots[0] != 10 || bots[1] != 5 || bots[2] != 2 {
		t.Fatalf("bottlenecks = %v, want [10 5 2]", bots)
	}
}

func TestAStarPruneKRespectsConstraintsOnAll(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		g := randomConnectedGraph(rng, 4+rng.Intn(5), rng.Intn(8))
		a, b := NodeID(0), NodeID(g.NumNodes()-1)
		demand := rng.Float64() * 4
		budget := 3 + rng.Float64()*10
		paths := AStarPruneK(g, a, b, demand, budget, g.NominalBandwidth(), 4, nil)
		for _, p := range paths {
			if err := p.Validate(g); err != nil {
				t.Fatal(err)
			}
			if p.Latency(g) > budget+1e-9 {
				t.Fatal("latency violated")
			}
			if p.Bottleneck(g, g.NominalBandwidth()) < demand {
				t.Fatal("bandwidth violated")
			}
			if p.Origin() != a || p.Destination() != b {
				t.Fatal("endpoints wrong")
			}
		}
		// No duplicates.
		seen := map[string]bool{}
		for _, p := range paths {
			if seen[p.String()] {
				t.Fatalf("duplicate path %v", p)
			}
			seen[p.String()] = true
		}
	}
}

func TestAStarPruneKTopKAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 25; trial++ {
		g := randomConnectedGraph(rng, 3+rng.Intn(5), rng.Intn(6))
		a, b := NodeID(0), NodeID(g.NumNodes()-1)
		demand := rng.Float64() * 4
		budget := 2 + rng.Float64()*10
		k := 1 + rng.Intn(4)

		var feasible []float64
		for _, p := range AllSimplePaths(g, a, b, 0) {
			if p.Latency(g) <= budget && p.Bottleneck(g, g.NominalBandwidth()) >= demand {
				feasible = append(feasible, p.Bottleneck(g, g.NominalBandwidth()))
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(feasible)))
		want := feasible
		if len(want) > k {
			want = want[:k]
		}
		paths := AStarPruneK(g, a, b, demand, budget, g.NominalBandwidth(), k, nil)
		if len(paths) != len(want) {
			t.Fatalf("trial %d: got %d paths, want %d", trial, len(paths), len(want))
		}
		for i, p := range paths {
			if got := p.Bottleneck(g, g.NominalBandwidth()); math.Abs(got-want[i]) > 1e-9 {
				t.Fatalf("trial %d: path %d bottleneck %v, want %v", trial, i, got, want[i])
			}
		}
	}
}

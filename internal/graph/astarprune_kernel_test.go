package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomMultigraph draws a connected multigraph built to reach every
// branch of the search kernel: leaf nodes (the dead-end test), parallel
// edges, zero-latency edges, and residuals drawn apart from the graph.
// With discrete set, latencies and residuals are small integers, so that
// candidates tie on bottleneck, accumulated latency and hop count all at
// once and the order equal keys leave the heap decides the path.
func randomMultigraph(rng *rand.Rand, n int, discrete bool) (*Graph, []float64) {
	lat := func() float64 {
		switch {
		case rng.Intn(6) == 0:
			return 0
		case discrete:
			return float64(1 + rng.Intn(2))
		}
		return 0.5 + 4*rng.Float64()
	}
	g := New(n)
	inner := 1 + rng.Intn(n) // nodes [inner, n) hang off the rest as leaves
	for i := 1; i < n; i++ {
		to := rng.Intn(i)
		if i >= inner {
			to = rng.Intn(inner)
		}
		g.AddEdge(NodeID(i), NodeID(to), 10, lat())
	}
	for extra := rng.Intn(2*inner + 1); extra > 0 && inner > 1; extra-- {
		a := rng.Intn(inner)
		b := rng.Intn(inner - 1)
		if b >= a {
			b++
		}
		g.AddEdge(NodeID(a), NodeID(b), 10, lat())
		if rng.Intn(4) == 0 { // a parallel twin, half the time an exact one
			l := g.Edge(g.NumEdges() - 1).Latency
			if rng.Intn(2) == 0 {
				l = lat()
			}
			g.AddEdge(NodeID(b), NodeID(a), 10, l)
		}
	}
	residual := make([]float64, g.NumEdges())
	for e := range residual {
		if discrete {
			residual[e] = float64(rng.Intn(4))
		} else {
			residual[e] = 10 * rng.Float64()
		}
	}
	return g, residual
}

func samePath(a, b Path) bool {
	return slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Edges, b.Edges)
}

// Property: the flat-array AStarPrune and AStarPruneK(k=1) — pointer
// states, container/heap, explicit Eq. 7 walk — answer every query alike:
// the same path node for node and edge for edge, or both not-found. One
// scratch and one arena serve every search of the run, across graphs of
// different sizes, as the Networking stage reuses them.
func TestQuickAStarPruneMatchesOracle(t *testing.T) {
	scratch := NewAStarScratch()
	arena := NewPathArena()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		discrete := rng.Intn(2) == 0
		opts := AStarPruneOptions{DisableDominance: rng.Intn(3) == 0}
		n := 2 + rng.Intn(40)
		if opts.DisableDominance {
			n = 2 + rng.Intn(8) // plain Algorithm 1 enumerates simple paths
		}
		g, res := randomMultigraph(rng, n, discrete)
		bw := func(e int) float64 { return res[e] }
		for q := 0; q < 8; q++ {
			a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			demand, budget := 4*rng.Float64(), 14*rng.Float64()
			if discrete {
				demand, budget = float64(rng.Intn(3)), float64(rng.Intn(9))
			}
			opts.MaxExpansions = 0
			if rng.Intn(3) == 0 {
				opts.MaxExpansions = 1 + rng.Intn(12)
			}
			opts.AR = nil
			if rng.Intn(2) == 0 {
				opts.AR = DijkstraLatency(g, b)
			}
			oracle := AStarPruneK(g, a, b, demand, budget, bw, 1, &opts)

			fast := opts
			fast.Scratch = scratch
			if rng.Intn(2) == 0 {
				fast.Arena = arena
			}
			p, ok := AStarPrune(g, a, b, demand, budget, bw, &fast)
			if ok != (len(oracle) == 1) {
				t.Logf("seed %d query %d (%d->%d): found %v, oracle found %d", seed, q, a, b, ok, len(oracle))
				return false
			}
			if ok && !samePath(p, oracle[0]) {
				t.Logf("seed %d query %d (%d->%d): %v, oracle %v", seed, q, a, b, p, oracle[0])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 6}); err != nil {
		t.Fatal(err)
	}
}

// A warmed-up scratch and arena leave AStarPrune nothing to allocate.
func TestAStarPruneWarmScratchAllocatesNothing(t *testing.T) {
	g, res := randomMultigraph(rand.New(rand.NewSource(7)), 40, false)
	bw := func(e int) float64 { return res[e] }
	opts := &AStarPruneOptions{Scratch: NewAStarScratch(), Arena: NewPathArena()}
	ars := make([][]float64, g.NumNodes())
	for d := range ars {
		ars[d] = DijkstraLatency(g, NodeID(d))
	}
	found := 0
	sweep := func() {
		for a := 0; a < g.NumNodes(); a++ {
			b := (a*7 + 3) % g.NumNodes()
			opts.AR = ars[b]
			if _, ok := AStarPrune(g, NodeID(a), NodeID(b), 0.5, 40, bw, opts); ok {
				found++
			}
		}
	}
	sweep()
	if found == 0 {
		t.Fatal("fixture routes nothing")
	}
	// AllocsPerRun rounds down, which absorbs the arena's one fresh chunk
	// per 4096 path entries: that is the returned paths' own storage.
	if avg := testing.AllocsPerRun(20, sweep); avg != 0 {
		t.Fatalf("warmed-up AStarPrune allocates %.2f per %d-search sweep", avg, g.NumNodes())
	}
}

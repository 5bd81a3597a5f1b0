package graph

import (
	"cmp"
	"math"
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

// randomQuery draws the endpoints, demand and budget of one search. A
// third of the budgets are tight — the latency-optimal route's own
// latency plus a little — so that the latency constraint binds and the
// widest paths are often the ones it excludes.
func randomQuery(rng *rand.Rand, g *Graph, discrete bool) (a, b NodeID, demand, budget float64) {
	n := g.NumNodes()
	a, b = NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
	demand, budget = 4*rng.Float64(), 14*rng.Float64()
	if discrete {
		demand, budget = float64(rng.Intn(3)), float64(rng.Intn(9))
	}
	if rng.Intn(3) == 0 {
		budget = DijkstraLatency(g, b)[a]
		if discrete {
			budget += float64(rng.Intn(3))
		} else {
			budget *= 1 + 0.4*rng.Float64()
		}
	}
	return a, b, demand, budget
}

// infeasible reports why p is not a valid answer to the query, or "".
func infeasible(g *Graph, p Path, a, b NodeID, demand, budget float64, bw []float64) string {
	if err := p.Validate(g); err != nil {
		return err.Error() // structure, and Eq. 7: simple
	}
	switch {
	case p.Origin() != a || p.Destination() != b:
		return "wrong endpoints"
	case p.Bottleneck(g, bw) < demand:
		return "an edge lacks the demanded bandwidth"
	case p.Latency(g) > budget:
		return "over the latency budget"
	}
	return ""
}

// Property: AStarPrune and AStarPruneK(k=1) — the paper's candidate order
// with no look-ahead, pointer states, container/heap, explicit Eq. 7 walk
// — agree on the value of every query: both not-found, or paths of the
// same bottleneck and the same latency, and AStarPrune's is feasible.
// Which of several equally wide, equally short paths comes back is each
// search's own business (TestQuickAStarPruneMatchesLinearScan pins
// AStarPrune's choice). With an expansion cap the look-ahead may find
// what the oracle gives up on, so there the claim is against the
// uncapped oracle: never found where it says infeasible, and optimal
// when found. One scratch and one arena serve every search of the run,
// across graphs of different sizes, as the Networking stage reuses them.
func TestQuickAStarPruneMatchesOracle(t *testing.T) {
	scratch := NewAStarScratch()
	arena := NewPathArena()
	var same, equalValue, neither, capped int
	var bounded uint64 // searches that got as far as asking for the widest-path bound
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		discrete := rng.Intn(2) == 0
		opts := AStarPruneOptions{DisableDominance: rng.Intn(3) == 0}
		n := 2 + rng.Intn(40)
		if opts.DisableDominance {
			n = 2 + rng.Intn(8) // plain Algorithm 1 enumerates simple paths
		}
		g, res := randomMultigraph(rng, n, discrete)
		bw := res
		for q := 0; q < 8; q++ {
			a, b, demand, budget := randomQuery(rng, g, discrete)
			opts.AR = nil
			if rng.Intn(2) == 0 {
				opts.AR = DijkstraLatency(g, b)
			}
			opts.MaxExpansions = 0
			oracle := AStarPruneK(g, a, b, demand, budget, bw, 1, &opts)

			fast := opts
			fast.Scratch = scratch
			if rng.Intn(2) == 0 {
				fast.Arena = arena
			}
			if rng.Intn(3) == 0 {
				fast.MaxExpansions = 1 + rng.Intn(12)
			}
			if asksForBound(g, a, b, budget) {
				bounded++
			}
			p, ok := AStarPrune(g, a, b, demand, budget, bw, &fast)
			switch {
			case !ok && fast.MaxExpansions > 0:
				capped++
				continue
			case ok != (len(oracle) == 1):
				t.Logf("seed %d query %d (%d->%d): found %v, oracle found %d", seed, q, a, b, ok, len(oracle))
				return false
			case !ok:
				neither++
				continue
			}
			if why := infeasible(g, p, a, b, demand, budget, bw); why != "" {
				t.Logf("seed %d query %d (%d->%d): %v: %s", seed, q, a, b, p, why)
				return false
			}
			if p.Bottleneck(g, bw) != oracle[0].Bottleneck(g, bw) || p.Latency(g) != oracle[0].Latency(g) {
				t.Logf("seed %d query %d (%d->%d): %v (%v Mbps, %v ms), oracle %v (%v Mbps, %v ms)", seed, q, a, b,
					p, p.Bottleneck(g, bw), p.Latency(g), oracle[0], oracle[0].Bottleneck(g, bw), oracle[0].Latency(g))
				return false
			}
			if samePath(p, oracle[0]) {
				same++
			} else {
				equalValue++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 6}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d identical paths, %d different paths of equal value, %d both not-found, %d gave up at the cap", same, equalValue, neither, capped)
	if equalValue == 0 || neither == 0 || capped == 0 {
		t.Fatal("the generator no longer reaches every outcome")
	}
	requireBothBranches(t, scratch.Stats(), bounded)
}

// asksForBound reports whether AStarPrune gets as far as computing the
// widest-path bound for a query: not on a forest, not for a trivial path,
// and not when the latency-optimal route already busts the budget.
func asksForBound(g *Graph, a, b NodeID, budget float64) bool {
	return g.NumEdges() >= g.NumNodes() && a != b && DijkstraLatency(g, b)[a] <= budget
}

// requireBothBranches fails unless the searches a differential's scratch
// served took both branches the golden torus run cannot hold open: second
// passes (its budgets never exclude the widest paths; the tight third of
// randomQuery's do) and probe hits, which show as fewer sweeps than
// searches that asked for the bound.
func requireBothBranches(t *testing.T, st SearchStats, bounded uint64) {
	t.Helper()
	t.Logf("%d searches: %d asked for the bound, %d swept for it, %d ran a second pass", st.Searches, bounded, st.Sweeps, st.Restarts)
	if st.Restarts == 0 {
		t.Fatal("no search ran a second pass: the generator no longer excludes the widest paths by budget")
	}
	if st.Sweeps >= bounded {
		t.Fatalf("%d sweeps for %d bounds: the probe never proved the cheap bound exact", st.Sweeps, bounded)
	}
}

// linearScanPrune is AStarPrune written for reading, not for speed, and
// sharing only apLess and paretoSet with it: candidates sit in a plain
// slice and the next one is the apLess-least by linear scan; the widest-
// path bound is found by trying every residual as a threshold; nothing is
// reused between searches and no push is skipped.
func linearScanPrune(g *Graph, origin, dest NodeID, bandwidth, latency float64, res []float64, opts AStarPruneOptions) (Path, bool) {
	reaches := func(floor float64) bool { // origin to dest over edges of residual >= floor
		seen := map[NodeID]bool{origin: true}
		for stack := []NodeID{origin}; len(stack) > 0; {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, eid := range g.Incident(u) {
				if v := g.Edge(eid).Other(u); res[eid] >= floor && !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		return seen[dest]
	}
	widest := math.Inf(1) // a forest has no bound to offer: AStarPrune's rule, so that expansion caps bite alike
	if g.NumEdges() >= g.NumNodes() {
		widest = math.Inf(-1)
		for _, r := range res {
			if r > widest && reaches(r) {
				widest = r
			}
		}
	}
	ar := DijkstraLatency(g, dest)
	if widest < bandwidth || ar[origin] > latency {
		return Path{}, false
	}

	type partial struct {
		apCand
		path Path
	}
	open := []partial{{apCand{bottleneck: widest, projLat: ar[origin]}, TrivialPath(origin)}}
	dom := make([]paretoSet, g.NumNodes())
	dom[origin].insert(widest, 0, 0)
	pushes := int32(1)
	for expansions := 0; len(open) > 0; {
		at := 0
		for i := range open {
			if apLess(&open[i].apCand, &open[at].apCand) {
				at = i
			}
		}
		best := open[at]
		open = append(open[:at], open[at+1:]...)
		u := best.path.Destination()
		if u == dest {
			return best.path, true
		}
		if expansions++; opts.MaxExpansions > 0 && expansions > opts.MaxExpansions {
			return Path{}, false
		}
		for _, eid := range g.Incident(u) {
			e := g.Edge(eid)
			h := e.Other(u)
			c := apCand{bottleneck: min(best.bottleneck, res[eid]), accLat: best.accLat + e.Latency, hops: best.hops + 1, idx: pushes}
			c.projLat = c.accLat + ar[h]
			if slices.Contains(best.path.Nodes, h) || res[eid] < bandwidth || c.projLat > latency {
				continue
			}
			if h != dest && g.Degree(h) == 1 {
				continue // dead end: never a candidate, so never an expansion an expansion cap counts
			}
			if !opts.DisableDominance && !dom[h].insert(c.bottleneck, c.accLat, 0) {
				continue
			}
			pushes++
			next := best.path.Clone()
			next.Nodes, next.Edges = append(next.Nodes, h), append(next.Edges, eid)
			open = append(open, partial{c, next})
		}
	}
	return Path{}, false
}

// Property: AStarPrune returns the path linearScanPrune returns, node for
// node and edge for edge — on multigraphs full of parallel twins, zero-
// latency edges and integer residuals, where candidates tie on everything
// but the push index. The pop sequence is therefore a function of apLess
// and the query alone: neither the order the sorted candidate list keeps
// equal keys in, nor the warm-started edge order of the widest-path
// bound, nor the pushes skipped once a destination candidate is in the
// set, nor the dead-end shortcut, nor what the scratch served before can
// be seen in a result.
func TestQuickAStarPruneMatchesLinearScan(t *testing.T) {
	scratch := NewAStarScratch()
	var bounded uint64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		discrete := rng.Intn(4) != 0
		opts := AStarPruneOptions{DisableDominance: rng.Intn(3) == 0}
		n := 2 + rng.Intn(30)
		if opts.DisableDominance {
			n = 2 + rng.Intn(8)
		}
		g, res := randomMultigraph(rng, n, discrete)
		bw := res
		for q := 0; q < 8; q++ {
			a, b, demand, budget := randomQuery(rng, g, discrete)
			if a == b {
				continue
			}
			opts.MaxExpansions = 0
			if rng.Intn(3) == 0 {
				opts.MaxExpansions = 1 + rng.Intn(12)
			}
			want, wantOK := linearScanPrune(g, a, b, demand, budget, res, opts)
			if asksForBound(g, a, b, budget) {
				bounded++
			}
			fast := opts
			fast.Scratch = scratch
			p, ok := AStarPrune(g, a, b, demand, budget, bw, &fast)
			if ok != wantOK || ok && !samePath(p, want) {
				t.Logf("seed %d query %d (%d->%d): %v %v, linear scan %v %v", seed, q, a, b, p, ok, want, wantOK)
				return false
			}
			// Reserve along the path, as the Networking stage does, so
			// that the next search warm-starts from a stale edge order.
			for _, e := range p.Edges {
				res[e] -= demand
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 6}); err != nil {
		t.Fatal(err)
	}
	requireBothBranches(t, scratch.Stats(), bounded)
}

// torusGraph is a rows x cols torus of unit-latency edges with residuals
// from a handful of integers, as randomMultigraph's discrete ones: the
// fabric the Networking stage routes on, where every pair has many
// equally short, equally wide paths.
func torusGraph(rng *rand.Rand, rows, cols int) (*Graph, []float64) {
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(NodeID(r*cols+c), NodeID(r*cols+(c+1)%cols), 10, 1)
			g.AddEdge(NodeID(r*cols+c), NodeID(((r+1)%rows)*cols+c), 10, 1)
		}
	}
	res := make([]float64, g.NumEdges())
	for e := range res {
		res[e] = float64(6 + rng.Intn(5))
	}
	return g, res
}

// Property: the Networking stage's pattern agrees with linearScanPrune
// search for search. One scratch and one arena serve the whole run; per
// graph, one residual vector is routed on a batch of links in descending
// demand order, with the latency table of each destination computed once
// and reused, and every path found is reserved by writing the vector in
// place — the vector AStarPrune is handed is the one the reservations
// write, so each search warm-starts the widest-path bound from an edge
// order the previous reservations left stale. Each search must return
// the path linearScanPrune finds on the vector as those reservations
// left it.
func TestQuickAStarPruneNetworkingPattern(t *testing.T) {
	scratch := NewAStarScratch()
	opts := AStarPruneOptions{Scratch: scratch, Arena: NewPathArena()}
	var routed, refused int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *Graph
		var res []float64
		if rng.Intn(2) == 0 {
			g, res = torusGraph(rng, 2+rng.Intn(5), 3+rng.Intn(4))
		} else {
			g, res = randomMultigraph(rng, 2+rng.Intn(30), true)
			for e := range res {
				res[e] += float64(rng.Intn(4)) // room for several reservations
			}
		}
		type link struct {
			a, b           NodeID
			demand, budget float64
		}
		links := make([]link, 8+rng.Intn(17))
		for i := range links {
			l := &links[i]
			for l.a == l.b {
				l.a, l.b = NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes()))
			}
			l.demand = float64(1 + rng.Intn(3))
			l.budget = DijkstraLatency(g, l.b)[l.a] + float64(rng.Intn(4))
		}
		slices.SortStableFunc(links, func(x, y link) int { return cmp.Compare(y.demand, x.demand) })
		ars := make(map[NodeID][]float64)
		for i, l := range links {
			if ars[l.b] == nil {
				ars[l.b] = DijkstraLatency(g, l.b)
			}
			opts.AR = ars[l.b]
			want, wantOK := linearScanPrune(g, l.a, l.b, l.demand, l.budget, res, AStarPruneOptions{})
			p, ok := AStarPrune(g, l.a, l.b, l.demand, l.budget, res, &opts)
			if ok != wantOK || ok && !samePath(p, want) {
				t.Logf("seed %d link %d (%d->%d, %v within %v): %v %v, linear scan %v %v", seed, i, l.a, l.b, l.demand, l.budget, p, ok, want, wantOK)
				return false
			}
			if !ok {
				refused++
				continue
			}
			routed++
			for _, e := range p.Edges {
				res[e] -= l.demand
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 3}); err != nil {
		t.Fatal(err)
	}
	st := scratch.Stats()
	t.Logf("%d links routed, %d refused: %d searches, %d sweeps, %d second passes", routed, refused, st.Searches, st.Sweeps, st.Restarts)
	if refused == 0 || st.Sweeps == 0 || st.Sweeps == st.Searches {
		t.Fatal("the generator no longer reaches refusals, sweeps and probe hits")
	}
}

// The second pass, on a case small enough to follow by hand. The widest
// 0-5 path, 0-1-2-5 at 10 Mbps, takes 22 ms; the 10 ms budget admits
// 0-3-4-5 (4 Mbps, 9 ms) and 0-1-2-4-5 (3 Mbps, 6 ms). The first pass pops
// 0, 1 and 2 — the 10 Mbps prefixes the admissibility test lets through
// because a narrow completion fits — and runs dry; the second pass pops 0,
// 1, 2, 3 and 4 before the destination, as a single pass with the demand
// as the floor always did. An expansion cap therefore bites where it did:
// under 3 in the first pass, with no second; under 5 in the second pass,
// which counts from zero.
func TestAStarPruneSecondPass(t *testing.T) {
	g := New(6)
	res := []float64{10, 10, 10, 4, 4, 4, 3}
	g.AddEdge(0, 1, 10, 1)
	g.AddEdge(1, 2, 10, 1)
	g.AddEdge(2, 5, 10, 20)
	g.AddEdge(0, 3, 10, 3)
	g.AddEdge(3, 4, 10, 3)
	g.AddEdge(4, 5, 10, 3)
	g.AddEdge(2, 4, 10, 1)
	bw := res
	for _, tc := range []struct {
		cap      int
		found    bool
		restarts uint64
	}{{0, true, 1}, {5, true, 1}, {4, false, 1}, {3, false, 1}, {2, false, 0}} {
		opts := AStarPruneOptions{MaxExpansions: tc.cap, Scratch: NewAStarScratch()}
		p, ok := AStarPrune(g, 0, 5, 2, 10, bw, &opts)
		want, wantOK := linearScanPrune(g, 0, 5, 2, 10, res, opts)
		if ok != wantOK || !samePath(p, want) {
			t.Fatalf("cap %d: %v %v, linear scan %v %v", tc.cap, p, ok, want, wantOK)
		}
		if ok != tc.found || ok && !slices.Equal(p.Nodes, []NodeID{0, 3, 4, 5}) {
			t.Fatalf("cap %d: %v %v, want 0-3-4-5 found = %v", tc.cap, p, ok, tc.found)
		}
		if st := opts.Scratch.Stats(); st.Restarts != tc.restarts || st.Sweeps != 0 {
			t.Fatalf("cap %d: %d second passes and %d sweeps, want %d and 0 (the probe reaches 5 from 0 at 10 Mbps)", tc.cap, st.Restarts, st.Sweeps, tc.restarts)
		}
	}
}

// The widest-path bound is exact on any scratch history: WidestBottleneck
// (a pooled scratch, whatever it served last) against exhaustive
// enumeration.
func TestWidestBottleneckMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(7)
		g := randomConnectedGraph(rng, n, rng.Intn(8))
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		want := math.Inf(1)
		if a != b {
			want = bruteForceBestBottleneck(g, a, b, 0, math.Inf(1), g.NominalBandwidth())
		}
		if got := WidestBottleneck(g, a, b, g.NominalBandwidth()); got != want {
			t.Fatalf("trial %d (%d->%d): widest bottleneck %v, enumeration says %v", trial, a, b, got, want)
		}
	}
	g := New(3)
	g.AddEdge(0, 1, 10, 1)
	if got := WidestBottleneck(g, 0, 2, g.NominalBandwidth()); !math.IsInf(got, -1) {
		t.Fatalf("disconnected pair: %v, want -Inf", got)
	}
}

// A warmed-up scratch and arena leave AStarPrune nothing to allocate.
func TestAStarPruneWarmScratchAllocatesNothing(t *testing.T) {
	g, res := randomMultigraph(rand.New(rand.NewSource(7)), 40, false)
	bw := res
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

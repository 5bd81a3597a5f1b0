package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// uniformSpecs builds n identical hosts.
func uniformSpecs(n int, proc float64, mem int64, stor float64) []topology.HostSpec {
	out := make([]topology.HostSpec, n)
	for i := range out {
		out[i] = topology.HostSpec{Proc: proc, Mem: mem, Stor: stor}
	}
	return out
}

// testIndex attaches a live host index to led, as the Hosting stage
// leaves one for the stage after it.
func testIndex(led *cluster.Ledger) *hostIndex {
	return newHostIndex(led, &mapScratch{})
}

// migrationStage runs HMN's Migration stage (§4.2) alone on a ledger
// carrying the reservations behind assign, with the paper's load metric
// and donor scope, and returns the number of accepted moves.
func migrationStage(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID) int {
	ms := getMapScratch()
	defer putMapScratch(ms)
	hi := newHostIndex(led, ms)
	defer led.SetProcHook(nil)
	var st MigrationStats
	(&HMN{}).stage2(led, v, assign, hi, ms, &st)
	return st.Moves
}

func mustTorus(t *testing.T, specs []topology.HostSpec, rows, cols int) *cluster.Cluster {
	t.Helper()
	c, err := topology.Torus2D(specs, rows, cols, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHMNTinyEndToEnd(t *testing.T) {
	c := mustTorus(t, uniformSpecs(4, 2000, 2048, 2000), 2, 2)
	v := virtual.NewEnv()
	v.AddGuest("a", 100, 256, 100)
	v.AddGuest("b", 200, 256, 100)
	v.AddGuest("c", 50, 256, 100)
	v.AddLink(0, 1, 10, 30)
	v.AddLink(1, 2, 1, 30)

	h := &HMN{}
	m, err := h.Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("HMN produced an invalid mapping: %v", err)
	}
}

func TestHMNNameAndInterface(t *testing.T) {
	var m Mapper = &HMN{}
	if m.Name() != "HMN" {
		t.Fatalf("Name = %q", m.Name())
	}
}

func TestHostingCoLocatesHighBandwidthPairs(t *testing.T) {
	// Two roomy hosts; the 100Mbps pair must land together because they
	// are processed first and fit on one host.
	c := mustTorus(t, uniformSpecs(4, 2000, 4096, 4000), 2, 2)
	v := virtual.NewEnv()
	v.AddGuest("hot-a", 100, 512, 100)
	v.AddGuest("hot-b", 100, 512, 100)
	v.AddGuest("cold-a", 100, 512, 100)
	v.AddGuest("cold-b", 100, 512, 100)
	v.AddLink(0, 1, 100, 60) // hot pair
	v.AddLink(2, 3, 0.1, 60) // cold pair
	v.AddLink(1, 2, 0.2, 60) // joins the components

	led, err := cluster.NewLedger(c, cluster.VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]graph.NodeID, v.NumGuests())
	for i := range assign {
		assign[i] = mapping.Unassigned
	}
	if err := HostingStage(led, v, assign); err != nil {
		t.Fatal(err)
	}
	if assign[0] != assign[1] {
		t.Fatalf("hot pair split across hosts %d and %d", assign[0], assign[1])
	}
}

func TestHostingSplitsWhenPairDoesNotFit(t *testing.T) {
	// Each host holds exactly one guest (memory-wise); a linked pair must
	// split with the most CPU-intensive guest on the best host.
	c := mustTorus(t, uniformSpecs(4, 2000, 512, 2000), 2, 2)
	v := virtual.NewEnv()
	v.AddGuest("small", 50, 400, 10)
	v.AddGuest("big", 300, 400, 10)
	v.AddLink(0, 1, 10, 60)

	led, _ := cluster.NewLedger(c, cluster.VMMOverhead{})
	assign := []graph.NodeID{mapping.Unassigned, mapping.Unassigned}
	if err := HostingStage(led, v, assign); err != nil {
		t.Fatal(err)
	}
	if assign[0] == assign[1] {
		t.Fatal("pair cannot share a 512MB host")
	}
	if assign[0] == mapping.Unassigned || assign[1] == mapping.Unassigned {
		t.Fatal("both guests must be placed")
	}
}

func TestHostingPullsPartnerToAssignedHost(t *testing.T) {
	// Chain a-b-c with descending bandwidths: after (a,b) are co-located,
	// c must join b's host when it fits.
	c := mustTorus(t, uniformSpecs(4, 2000, 4096, 4000), 2, 2)
	v := virtual.NewEnv()
	v.AddGuest("a", 100, 256, 100)
	v.AddGuest("b", 100, 256, 100)
	v.AddGuest("c", 100, 256, 100)
	v.AddLink(0, 1, 50, 60)
	v.AddLink(1, 2, 40, 60)

	led, _ := cluster.NewLedger(c, cluster.VMMOverhead{})
	assign := []graph.NodeID{mapping.Unassigned, mapping.Unassigned, mapping.Unassigned}
	if err := HostingStage(led, v, assign); err != nil {
		t.Fatal(err)
	}
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Fatalf("chain should share one roomy host: %v", assign)
	}
}

func TestHostingPlacesIsolatedGuests(t *testing.T) {
	c := mustTorus(t, uniformSpecs(4, 2000, 2048, 2000), 2, 2)
	v := virtual.NewEnv()
	v.AddGuest("linked-a", 100, 256, 100)
	v.AddGuest("linked-b", 100, 256, 100)
	v.AddGuest("loner", 100, 256, 100)
	v.AddLink(0, 1, 1, 60)

	led, _ := cluster.NewLedger(c, cluster.VMMOverhead{})
	assign := []graph.NodeID{mapping.Unassigned, mapping.Unassigned, mapping.Unassigned}
	if err := HostingStage(led, v, assign); err != nil {
		t.Fatal(err)
	}
	if assign[2] == mapping.Unassigned {
		t.Fatal("isolated guest left unplaced")
	}
}

func TestHostingFailsWhenNothingFits(t *testing.T) {
	c := mustTorus(t, uniformSpecs(4, 2000, 128, 2000), 2, 2)
	v := virtual.NewEnv()
	v.AddGuest("whale", 100, 4096, 100)
	v.AddGuest("minnow", 100, 64, 100)
	v.AddLink(0, 1, 1, 60)

	led, _ := cluster.NewLedger(c, cluster.VMMOverhead{})
	assign := []graph.NodeID{mapping.Unassigned, mapping.Unassigned}
	err := HostingStage(led, v, assign)
	if !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("want ErrNoHostFits, got %v", err)
	}
}

func TestHostingRespectsCapacities(t *testing.T) {
	// Many guests, tight memory: whatever the layout, Eq. 2/3 must hold.
	rng := rand.New(rand.NewSource(4))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c := mustTorus(t, specs, 8, 5)
	v := workload.GenerateEnv(workload.HighLevelParams(300, 0.02), rng)

	led, _ := cluster.NewLedger(c, cluster.VMMOverhead{})
	assign := make([]graph.NodeID, v.NumGuests())
	for i := range assign {
		assign[i] = mapping.Unassigned
	}
	if err := HostingStage(led, v, assign); err != nil {
		t.Fatal(err)
	}
	m := mapping.New(c, v)
	copy(m.GuestHost, assign)
	// Only the assignment constraints can be checked pre-networking.
	for _, h := range c.Hosts() {
		var mem int64
		var stor float64
		for _, g := range m.GuestsOn(h.Node) {
			mem += v.Guest(g).Mem
			stor += v.Guest(g).Stor
		}
		if mem > h.Mem || stor > h.Stor {
			t.Fatalf("host %q overcommitted: %dMB/%.0fGB of %dMB/%.0fGB", h.Name, mem, stor, h.Mem, h.Stor)
		}
	}
}

func TestMigrationImprovesObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c := mustTorus(t, specs, 8, 5)
	v := workload.GenerateEnv(workload.HighLevelParams(120, 0.02), rng)

	h := &HMN{}
	_, st, err := h.MapWithStats(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if st.Migration.ObjectiveAfter > st.Migration.ObjectiveBefore {
		t.Fatalf("migration worsened the objective: %v -> %v",
			st.Migration.ObjectiveBefore, st.Migration.ObjectiveAfter)
	}
	if st.Migration.Moves == 0 {
		t.Fatal("expected at least one migration on an unbalanced hosting")
	}
	if st.Migration.ObjectiveAfter >= st.Migration.ObjectiveBefore {
		t.Fatal("accepted moves must strictly improve the objective")
	}
}

func TestMigrationKeepsMappingValid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c := mustTorus(t, specs, 8, 5)
	v := workload.GenerateEnv(workload.HighLevelParams(200, 0.02), rng)

	m, err := (&HMN{}).Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("post-migration mapping invalid: %v", err)
	}
}

func TestMigrationSingleHostNoop(t *testing.T) {
	specs := uniformSpecs(1, 2000, 8192, 8000)
	c, err := topology.Line(specs, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := virtual.NewEnv()
	v.AddGuest("a", 100, 256, 100)
	led, _ := cluster.NewLedger(c, cluster.VMMOverhead{})
	assign := []graph.NodeID{c.HostNodes()[0]}
	if err := led.ReserveGuest(assign[0], 100, 256, 100); err != nil {
		t.Fatal(err)
	}
	if moves := migrationStage(led, v, assign); moves != 0 {
		t.Fatalf("single host cannot migrate, got %d moves", moves)
	}
}

func TestNetworkingIntraHostLinksAreTrivial(t *testing.T) {
	c := mustTorus(t, uniformSpecs(4, 2000, 8192, 8000), 2, 2)
	v := virtual.NewEnv()
	v.AddGuest("a", 10, 128, 10)
	v.AddGuest("b", 10, 128, 10)
	v.AddLink(0, 1, 500, 60)

	// Stages 1 and 3 alone: stage 2 may legitimately split a co-located
	// pair to improve CPU balance (it only considers bandwidth when
	// choosing the cheapest victim), and this test pins Hosting followed
	// by Networking.
	led, err := cluster.NewLedger(c, cluster.VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	m := mapping.New(c, v)
	if err := HostingStage(led, v, m.GuestHost); err != nil {
		t.Fatal(err)
	}
	ms := &mapScratch{astar: graph.NewAStarScratch(), arena: graph.NewPathArena()}
	if err := routeLinks(led, v, m.GuestHost, m.LinkPath, sortLinksByBW(v, nil, ms), new(latencyTables), ms); err != nil {
		t.Fatal(err)
	}
	// Hosting co-locates the pair, so the path must be trivial even
	// though 500Mbps would strain physical links.
	if m.GuestHost[0] != m.GuestHost[1] {
		t.Fatal("pair should be co-located")
	}
	if m.LinkPath[0].Len() != 0 {
		t.Fatalf("intra-host link must have a trivial path, got %v", m.LinkPath[0])
	}
}

func TestNetworkingFailsOnImpossibleLink(t *testing.T) {
	// Hosts too small to co-locate the pair, and the virtual link demands
	// more bandwidth than any physical link carries.
	c := mustTorus(t, uniformSpecs(4, 2000, 512, 2000), 2, 2)
	v := virtual.NewEnv()
	v.AddGuest("a", 10, 400, 10)
	v.AddGuest("b", 10, 400, 10)
	v.AddLink(0, 1, 5000, 60) // 5Gbps over 1Gbps links

	_, st, err := (&HMN{}).MapWithStats(c, v)
	if !errors.Is(err, ErrNoPath) || !errors.Is(err, ErrNoPathBandwidth) || errors.Is(err, ErrNoPathLatency) {
		t.Fatalf("want ErrNoPath for want of bandwidth, got %v", err)
	}
	// The widest-path bound answers before anything is expanded.
	if st.Route != (graph.SearchStats{Searches: 1}) {
		t.Fatalf("route stats %+v, want one search and no pops", st.Route)
	}
}

func TestNetworkingFailsOnLatencyBudget(t *testing.T) {
	// A long line of tiny hosts: guests at the ends, budget below the
	// end-to-end latency.
	specs := uniformSpecs(10, 2000, 512, 2000)
	c, err := topology.Line(specs, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := virtual.NewEnv()
	for i := 0; i < 10; i++ {
		v.AddGuest("g", 10, 400, 10)
	}
	// Chain with generous budgets keeps hosting order predictable, then
	// one link with an impossible budget. All guests pin one per host
	// (mem 512 vs demand 400), so some link must span >= 9 hops... but
	// which is unpredictable. Use an explicit topology-driven check
	// instead: a pair on distinct hosts with a 1ms budget.
	v2 := virtual.NewEnv()
	v2.AddGuest("a", 10, 400, 10)
	v2.AddGuest("b", 10, 400, 10)
	v2.AddLink(0, 1, 1, 1) // 1ms budget, minimum hop costs 5ms
	_, err = (&HMN{}).Map(c, v2)
	if !errors.Is(err, ErrNoPath) || !errors.Is(err, ErrNoPathLatency) || errors.Is(err, ErrNoPathBandwidth) {
		t.Fatalf("want ErrNoPath for want of latency budget, got %v", err)
	}
	_ = v
}

func TestHMNWithVMMOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c := mustTorus(t, specs, 8, 5)
	v := workload.GenerateEnv(workload.HighLevelParams(100, 0.02), rng)

	ov := cluster.VMMOverhead{Proc: 100, Mem: 256, Stor: 20}
	m, err := (&HMN{Overhead: ov}).Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(ov); err != nil {
		t.Fatalf("mapping violates overhead-adjusted constraints: %v", err)
	}
}

func TestHMNOverheadTooLarge(t *testing.T) {
	c := mustTorus(t, uniformSpecs(4, 2000, 512, 2000), 2, 2)
	v := virtual.NewEnv()
	v.AddGuest("a", 1, 1, 1)
	_, err := (&HMN{Overhead: cluster.VMMOverhead{Mem: 1024}}).Map(c, v)
	if !errors.Is(err, cluster.ErrOverheadExceedsCapacity) {
		t.Fatalf("want ErrOverheadExceedsCapacity, got %v", err)
	}
}

func TestHMNDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c := mustTorus(t, specs, 8, 5)
	v := workload.GenerateEnv(workload.HighLevelParams(100, 0.02), rng)

	m1, err := (&HMN{}).Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := (&HMN{}).Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	for g := range m1.GuestHost {
		if m1.GuestHost[g] != m2.GuestHost[g] {
			t.Fatalf("non-deterministic assignment for guest %d", g)
		}
	}
	for l := range m1.LinkPath {
		if m1.LinkPath[l].String() != m2.LinkPath[l].String() {
			t.Fatalf("non-deterministic path for link %d", l)
		}
	}
}

func TestHMNEmptyEnvironment(t *testing.T) {
	c := mustTorus(t, uniformSpecs(4, 2000, 2048, 2000), 2, 2)
	m, err := (&HMN{}).Map(c, virtual.NewEnv())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatal(err)
	}
}

func TestHMNOnSwitchedCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c, err := topology.Switched(specs, workload.SwitchPorts, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := workload.GenerateEnv(workload.HighLevelParams(150, 0.02), rng)
	m, err := (&HMN{}).Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("switched mapping invalid: %v", err)
	}
	// No guest may sit on a switch.
	for g, node := range m.GuestHost {
		if !c.IsHost(node) {
			t.Fatalf("guest %d on switch node %d", g, node)
		}
	}
}

func TestHMNOnAllTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	v := workload.GenerateEnv(workload.HighLevelParams(80, 0.02), rng)

	builders := map[string]func() (*cluster.Cluster, error){
		"torus":    func() (*cluster.Cluster, error) { return topology.Torus2D(specs, 8, 5, 1000, 5) },
		"switched": func() (*cluster.Cluster, error) { return topology.Switched(specs, 64, 1000, 5) },
		"ring":     func() (*cluster.Cluster, error) { return topology.Ring(specs, 1000, 5) },
		"star":     func() (*cluster.Cluster, error) { return topology.Star(specs, 1000, 5) },
		"mesh":     func() (*cluster.Cluster, error) { return topology.FullMesh(specs, 1000, 5) },
		"tree":     func() (*cluster.Cluster, error) { return topology.SwitchTree(specs, 8, 1000, 5) },
		"random": func() (*cluster.Cluster, error) {
			return topology.RandomConnected(specs, 30, 1000, 5, rand.New(rand.NewSource(1)))
		},
	}
	for name, build := range builders {
		c, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := (&HMN{}).Map(c, v)
		if err != nil {
			// The ring's latency budgets can be genuinely infeasible for
			// distant pairs; a clean failure is acceptable there.
			if name == "ring" && errors.Is(err, ErrNoPath) {
				continue
			}
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Validate(cluster.VMMOverhead{}); err != nil {
			t.Fatalf("%s: invalid mapping: %v", name, err)
		}
	}
}

// Property: on random small workloads HMN either fails cleanly or
// produces a mapping satisfying every formal constraint.
func TestQuickHMNSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nHosts := 4 + rng.Intn(8)
		specs := workload.GenerateHosts(workload.ClusterParams{
			Hosts:   nHosts,
			ProcMin: 500, ProcMax: 3000,
			MemMin: 256, MemMax: 2048,
			StorMin: 100, StorMax: 1000,
		}, rng)
		c, err := topology.RandomConnected(specs, rng.Intn(10), 100, 5, rng)
		if err != nil {
			return false
		}
		guests := 1 + rng.Intn(nHosts*4)
		v := workload.GenerateEnv(workload.VirtualParams{
			Guests:  guests,
			Density: rng.Float64() * 0.3,
			ProcMin: 10, ProcMax: 100,
			MemMin: 32, MemMax: 512,
			StorMin: 1, StorMax: 100,
			BWMin: 0.1, BWMax: 5,
			LatMin: 20, LatMax: 80,
		}, rng)
		m, err := (&HMN{}).Map(c, v)
		if err != nil {
			return errors.Is(err, ErrNoHostFits) || errors.Is(err, ErrNoPath)
		}
		return m.Validate(cluster.VMMOverhead{}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCoLocatedBW(t *testing.T) {
	v := virtual.NewEnv()
	v.AddGuest("a", 1, 1, 1)
	v.AddGuest("b", 1, 1, 1)
	v.AddGuest("c", 1, 1, 1)
	v.AddLink(0, 1, 5, 60)
	v.AddLink(0, 2, 3, 60)
	assign := []graph.NodeID{0, 0, 1}
	if got := coLocatedBW(v, assign, 0); got != 5 {
		t.Fatalf("coLocatedBW = %v, want 5 (only the co-located link counts)", got)
	}
	if got := coLocatedBW(v, assign, 2); got != 0 {
		t.Fatalf("coLocatedBW(c) = %v, want 0", got)
	}
}

func TestMigrationScopeAllHosts(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c := mustTorus(t, specs, 8, 5)
	v := workload.GenerateEnv(workload.HighLevelParams(120, 0.02), rng)

	paper, stPaper, err := (&HMN{}).MapWithStats(c, v)
	if err != nil {
		t.Fatal(err)
	}
	wide, stWide, err := (&HMN{Scope: ScopeAllHosts}).MapWithStats(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("ScopeAllHosts mapping invalid: %v", err)
	}
	// The widened scope explores a superset of moves per iteration; it
	// must accept at least as many.
	if stWide.Migration.Moves < stPaper.Migration.Moves {
		t.Fatalf("ScopeAllHosts made fewer moves (%d) than the paper scope (%d)",
			stWide.Migration.Moves, stPaper.Migration.Moves)
	}
	_ = paper
}

package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// migrationFixture primes a 4-host uniform torus (1000 MIPS, 1024 MB,
// 1000 GB) with filler reservations so the residual-CPU vector is
// h0=400, h1=900, h2=800, h3=770+h3Extra, and a single-guest env (proc
// 240, mem gMem) assigned to h0. h3Mem inflates the filler memory on h3
// (to block it as a destination when gMem is large).
func migrationFixture(t *testing.T, gMem, h3Mem int64) (*cluster.Ledger, *virtual.Env, []graph.NodeID, []graph.NodeID) {
	t.Helper()
	c := mustTorus(t, uniformSpecs(4, 1000, 1024, 1000), 2, 2)
	led, err := cluster.NewLedger(c, cluster.VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	h := c.HostNodes()
	fill := func(node graph.NodeID, proc float64, mem int64) {
		t.Helper()
		if err := led.ReserveGuest(node, proc, mem, 10); err != nil {
			t.Fatal(err)
		}
	}
	fill(h[0], 360, 10)
	fill(h[1], 100, 10)
	fill(h[2], 200, 10)
	fill(h[3], 230, h3Mem)

	v := virtual.NewEnv()
	v.AddGuest("g0", 240, gMem, 10)
	if err := led.ReserveGuest(h[0], 240, gMem, 10); err != nil {
		t.Fatal(err)
	}
	return led, v, []graph.NodeID{h[0]}, h
}

// moveStep is one accepted migration, as the tests below compare move
// *sequences*, not merely final objectives within a tolerance.
type moveStep struct {
	guest    virtual.GuestID
	from, to graph.NodeID
}

// runDescent drives the shared §4.2 descent over one environment step by
// step, as stage 2 does, and records every accepted move.
func runDescent(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, scope MigrationScope, hi *hostIndex) []moveStep {
	d := &descent{envs: []descentEnv{{v: v, assign: assign}}}
	d.begin(led, scope, hi)
	var trace []moveStep
	for d.step(func(c candidate) bool {
		if !d.relocate(c) {
			return false
		}
		trace = append(trace, moveStep{guest: c.ref.guest, from: c.from, to: c.to})
		return true
	}) {
	}
	return trace
}

// exactObjective recomputes Eq. (10) from the residual vector in full.
func exactObjective(led *cluster.Ledger) float64 {
	return stats.PopStdDev(led.ResidualProcAll())
}

// naiveMigrate is the reference the descent is held to: §4.2 as the seed
// wrote it, every what-if a release, a reserve and a full recompute of
// the objective, undone unless it improved. It shares nothing with the
// descent but ImprovementEps — no roster, no running sums, no index.
func naiveMigrate(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, scope MigrationScope) []moveStep {
	hosts := led.Cluster().HostNodes()
	byResidual := func(sign int) func(a, b graph.NodeID) int {
		return func(a, b graph.NodeID) int {
			if ra, rb := led.ResidualProc(a), led.ResidualProc(b); ra != rb {
				if ra < rb {
					return -sign
				}
				return sign
			}
			return int(a) - int(b)
		}
	}
	var trace []moveStep
	for {
		current := exactObjective(led)
		eps := ImprovementEps(current)
		var donors []graph.NodeID
		for _, n := range hosts {
			if slices.Contains(assign, n) {
				donors = append(donors, n)
			}
		}
		if len(donors) == 0 {
			return trace
		}
		slices.SortFunc(donors, byResidual(1)) // least residual CPU first
		if scope == ScopeMostLoaded {
			donors = donors[:1]
		}
		dests := slices.Clone(hosts)
		slices.SortFunc(dests, byResidual(-1)) // most residual CPU first

		moved := false
	scan:
		for _, origin := range donors {
			victim, best := virtual.GuestID(-1), 0.0
			for g, node := range assign {
				if node != origin {
					continue
				}
				w := 0.0
				for _, lid := range v.LinksOf(virtual.GuestID(g)) {
					if l := v.Link(lid); assign[l.Other(virtual.GuestID(g))] == origin {
						w += l.BW
					}
				}
				if victim < 0 || w < best {
					victim, best = virtual.GuestID(g), w
				}
			}
			guest := v.Guest(victim)
			for _, dest := range dests {
				if dest == origin || !led.Fits(dest, guest.Mem, guest.Stor) {
					continue
				}
				led.ReleaseGuest(origin, guest.Proc, guest.Mem, guest.Stor)
				mustReserve(led, dest, guest)
				if exactObjective(led)-current < -eps {
					assign[victim] = dest
					trace = append(trace, moveStep{guest: victim, from: origin, to: dest})
					moved = true
					break scan
				}
				led.ReleaseGuest(dest, guest.Proc, guest.Mem, guest.Stor)
				mustReserve(led, origin, guest)
			}
		}
		if !moved {
			return trace
		}
	}
}

// sabotageHook returns a proc hook that, the first time any residual-CPU
// mutation fires it, quarantines block and reserves extra load on slow —
// exactly between the Fits check on a migration destination and the
// ReserveGuest that commits it. It models the interference window the
// destination-order copy in descent.step guards against: the
// quarantine makes the in-flight reserve fail, and the extra load
// re-sorts a live host index mid-scan.
func sabotageHook(t *testing.T, led *cluster.Ledger, inner func(int), block, slow graph.NodeID) func(int) {
	fired := false
	return func(i int) {
		if inner != nil {
			inner(i)
		}
		if fired {
			return
		}
		fired = true
		led.Quarantine(block)
		if err := led.ReserveGuest(slow, 35, 10, 10); err != nil {
			t.Errorf("sabotage reserve: %v", err)
		}
	}
}

// TestMigrateSnapshotSurvivesMidScanReserveFailure is the regression
// test for the destination-order aliasing bug: when a destination's
// reserve fails after its Fits check passed (here: a quarantine landing
// inside the release/reserve window), the scan must continue with the
// next candidate of the order it started from, even though the failed
// attempt's release/re-reserve and the interfering load re-sorted the
// live host index in place. Before the per-step copy, the range
// continued positionally over the permuted live slice.
func TestMigrateSnapshotSurvivesMidScanReserveFailure(t *testing.T) {
	// gMem 600 with only 214 MB free on h3 keeps h3 out of every scan, so
	// the outcome is a single pinned move.
	led, v, assign, h := migrationFixture(t, 600, 800)
	hi := testIndex(led)
	defer led.SetProcHook(nil)
	led.SetProcHook(sabotageHook(t, led, hi.fix, h[1], h[2]))

	trace := runDescent(led, v, assign, ScopeMostLoaded, hi)

	// Scan order at the start of the attempt: h1 (900), h2 (800), h3,
	// h0. h1 improves, its reserve fails under the quarantine; the next
	// snapshot candidate h2 must receive the guest (h3 never fits the
	// 600 MB guest, and moving back to h0 does not improve).
	want := []moveStep{{guest: 0, from: h[0], to: h[2]}}
	if !slices.Equal(trace, want) {
		t.Fatalf("trace=%v, want 1 move %v", trace, want)
	}
	if assign[0] != h[2] {
		t.Fatalf("guest landed on node %d, want h2=%d", assign[0], h[2])
	}
	// Ledger consistency after the failed attempt: the victim's resources
	// are accounted exactly once, on h2.
	wantRes := map[graph.NodeID]float64{h[0]: 640, h[1]: 900, h[2]: 525, h[3]: 770}
	for node, want := range wantRes {
		if got := led.ResidualProc(node); got != want {
			t.Errorf("residual(%d) = %v, want %v", node, got, want)
		}
	}
	if got := led.ResidualMem(h[2]); got != 1024-10-10-600 {
		t.Errorf("residual mem on h2 = %d, want %d", got, 1024-10-10-600)
	}
}

// TestMigrateLiveIndexMatchesUnindexedUnderMidScanChurn drives the same
// mid-scan interference through both destination sources — the live host
// index and the per-step sort — and requires identical move
// sequences, assignments and residuals. The per-step sort is
// snapshot-semantics by construction, so any divergence means the live
// index leaked a mid-scan permutation into the iteration.
func TestMigrateLiveIndexMatchesUnindexedUnderMidScanChurn(t *testing.T) {
	// gMem 100 fits everywhere: after the injected failure the move
	// cascades (h0→h2, then h2→h3), exercising the scan across rounds.
	ledA, v, assignA, h := migrationFixture(t, 100, 10)
	hiA := testIndex(ledA)
	defer ledA.SetProcHook(nil)
	ledA.SetProcHook(sabotageHook(t, ledA, hiA.fix, h[1], h[2]))
	traceA := runDescent(ledA, v, assignA, ScopeMostLoaded, hiA)

	ledB, _, assignB, _ := migrationFixture(t, 100, 10)
	ledB.SetProcHook(sabotageHook(t, ledB, nil, h[1], h[2]))
	defer ledB.SetProcHook(nil)
	traceB := runDescent(ledB, v, assignB, ScopeMostLoaded, nil)

	if !slices.Equal(traceA, traceB) {
		t.Fatalf("live index diverged from per-step sort:\n indexed   %v\n unindexed %v", traceA, traceB)
	}
	if !slices.Equal(assignA, assignB) {
		t.Fatalf("assignments diverge: %v vs %v", assignA, assignB)
	}
	if !slices.Equal(ledA.ResidualProcAll(), ledB.ResidualProcAll()) {
		t.Fatalf("residuals diverge: %v vs %v", ledA.ResidualProcAll(), ledB.ResidualProcAll())
	}
	want := []moveStep{{guest: 0, from: h[0], to: h[2]}, {guest: 0, from: h[2], to: h[3]}}
	if !slices.Equal(traceA, want) {
		t.Fatalf("trace %v, want %v", traceA, want)
	}
}

// TestQuickMigrateExactMatchesIncrementalSequences pins the shared
// descent (running Σx/Σx², rosters) to the naive reference (mutate,
// recompute in full, undo) on random workloads, both donor scopes:
// identical move *sequences*, not merely final objectives within a
// tolerance — and stage 2 as admissions call it must land on the same
// assignment in as many moves. The shared ImprovementEps threshold is
// what makes this hold: without it, FP noise near zero lets one side
// accept a move the other rejects, and the sequences fork.
func TestQuickMigrateExactMatchesIncrementalSequences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nHosts := 3 + rng.Intn(6)
		specs := workload.GenerateHosts(workload.ClusterParams{
			Hosts:   nHosts,
			ProcMin: 500, ProcMax: 3000,
			MemMin: 512, MemMax: 4096,
			StorMin: 100, StorMax: 1000,
		}, rng)
		c, err := topology.Star(specs, 1000, 5)
		if err != nil {
			return false
		}
		v := workload.GenerateEnv(workload.VirtualParams{
			Guests:  1 + rng.Intn(3*nHosts),
			Density: rng.Float64() * 0.4,
			ProcMin: 10, ProcMax: 200,
			MemMin: 16, MemMax: 256,
			StorMin: 1, StorMax: 50,
			BWMin: 0.1, BWMax: 5,
			LatMin: 20, LatMax: 80,
		}, rng)

		// Deliberately unbalanced initial placement: each guest goes to
		// the first fitting host from a random start, so stage 2 has real
		// work to do.
		ledA, err := cluster.NewLedger(c, cluster.VMMOverhead{})
		if err != nil {
			return false
		}
		hosts := c.HostNodes()
		assignA := make([]graph.NodeID, v.NumGuests())
		for g := 0; g < v.NumGuests(); g++ {
			guest := v.Guest(virtual.GuestID(g))
			start := rng.Intn(len(hosts))
			placed := false
			for k := 0; k < len(hosts) && !placed; k++ {
				n := hosts[(start+k)%len(hosts)]
				if ledA.Fits(n, guest.Mem, guest.Stor) {
					if err := ledA.ReserveGuest(n, guest.Proc, guest.Mem, guest.Stor); err != nil {
						return false
					}
					assignA[g] = n
					placed = true
				}
			}
			if !placed {
				return true // infeasible draw; nothing to compare
			}
		}
		ledB, ledC := ledA.Clone(), ledA.Clone()
		assignB, assignC := slices.Clone(assignA), slices.Clone(assignA)
		scope := ScopeMostLoaded
		if seed%2 == 0 {
			scope = ScopeAllHosts
		}

		incTrace := runDescent(ledA, v, assignA, scope, nil)
		exactTrace := naiveMigrate(ledB, v, assignB, scope)
		if !slices.Equal(incTrace, exactTrace) {
			t.Logf("seed %d: descent %d moves %v, reference %d moves %v",
				seed, len(incTrace), incTrace, len(exactTrace), exactTrace)
			return false
		}
		var st MigrationStats
		(&HMN{Scope: scope}).stage2(ledC, v, assignC, nil, &mapScratch{}, &st)
		if st.Moves != len(exactTrace) {
			t.Logf("seed %d: stage 2 made %d moves, reference %d", seed, st.Moves, len(exactTrace))
			return false
		}
		return slices.Equal(assignA, assignB) && slices.Equal(assignC, assignB)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMigration isolates the Migration stage (§4.2) at 2000 guests
// on a 500-host cluster: one Hosting pass prepares the assignment, then
// every iteration replays stage 2 alone on a cloned ledger. The stage
// never touches links, so the large host count exercises the what-if
// kernel (candidate scans × objective evaluations) without the latency
// feasibility limits routing would impose at this scale.
func BenchmarkMigration(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	params := workload.PaperClusterParams()
	params.Hosts = 500
	specs := workload.GenerateHosts(params, rng)
	c, err := topology.Switched(specs, 64, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		b.Fatal(err)
	}
	env := workload.GenerateEnv(workload.LowLevelParams(2000, 0.01), rng)
	led, err := cluster.NewLedger(c, cluster.VMMOverhead{})
	if err != nil {
		b.Fatal(err)
	}
	assign := make([]graph.NodeID, env.NumGuests())
	for i := range assign {
		assign[i] = mapping.Unassigned
	}
	if err := HostingStage(led, env, assign); err != nil {
		b.Fatal(err)
	}
	moves := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		led2 := led.Clone()
		assign2 := slices.Clone(assign)
		b.StartTimer()
		moves = migrationStage(led2, env, assign2)
	}
	b.ReportMetric(float64(moves), "moves")
}

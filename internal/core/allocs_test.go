package core

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/workload"
)

// Steady-state allocation budgets for the two hot paths. The measured
// numbers on the reference workloads are ~6 allocs per Map+Release
// (the mapping.Mapping result and its slices, which escape to the
// caller by design, plus the active-set bookkeeping) and ~1 per
// snapshot-and-reroute cycle (amortised path-arena chunk growth). The
// budgets carry modest headroom for GC-timing noise — a sync.Pool
// emptied by a collection mid-measurement re-allocates its scratch
// once — but fail well before a reintroduced per-admission Clone(),
// per-stage map, or per-link path allocation (each worth tens to
// hundreds of allocs) could hide.
const (
	admissionAllocBudget = 20
	rerouteAllocBudget   = 8
)

// allocsCluster is the reference admission fixture: the paper's host
// distribution on the 8x5 torus, matching BenchmarkSessionMapRelease.
func allocsCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	return mustTorus(t, specs, workload.TorusRows, workload.TorusCols)
}

// TestAdmissionAllocsBudget pins the steady-state admission path: after
// warm-up, a Map+Release cycle on a live session must stay within
// admissionAllocBudget allocations. This is the regression gate for the
// zero-allocation admission work — the session's scratch snapshot and
// its in-place resync, the reusable Txn and the pooled mapping scratch. A
// failure here means some per-admission allocation came back.
func TestAdmissionAllocsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not apply to the race detector's instrumented allocator")
	}
	c := allocsCluster(t)
	s, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := workload.GenerateEnv(workload.HighLevelParams(60, 0.03), rand.New(rand.NewSource(2)))

	cycle := func() {
		m, mErr := s.Map(env)
		if mErr != nil {
			t.Fatal(mErr)
		}
		if rErr := s.Release(m); rErr != nil {
			t.Fatal(rErr)
		}
	}
	for i := 0; i < 20; i++ {
		cycle() // create the scratch snapshot and fill the scratch pool
	}
	avg := testing.AllocsPerRun(200, cycle)
	t.Logf("admission steady state: %.1f allocs per Map+Release (budget %d)", avg, admissionAllocBudget)
	if avg > admissionAllocBudget {
		t.Fatalf("admission path allocates %.1f per Map+Release, budget is %d", avg, admissionAllocBudget)
	}
}

// TestRerouteAllocsBudget pins the repair/migrate reroute hot path: one
// snapshot-release-reroute cycle — the exact shape tryReroute and a
// committed migration pay per attempt — must stay within rerouteAllocBudget
// allocations once warm. The cycle syncs the session's scratch
// snapshot, releases a set of inter-host paths on it and re-routes them
// through the mapper with pooled scratch.
func TestRerouteAllocsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not apply to the race detector's instrumented allocator")
	}
	c := allocsCluster(t)
	s, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := workload.GenerateEnv(workload.HighLevelParams(60, 0.03), rand.New(rand.NewSource(2)))
	m, err := s.Map(env)
	if err != nil {
		t.Fatal(err)
	}

	// The broken set: every link the admission routed across the fabric
	// (trivial same-host paths cannot be "broken" by a link failure).
	var links []int
	for l, p := range m.LinkPath {
		if len(p.Nodes) > 1 {
			links = append(links, l)
		}
	}
	if len(links) == 0 {
		t.Fatal("admission produced no inter-host paths to reroute")
	}
	paths := make([]graph.Path, len(m.LinkPath))

	cycle := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		snap := s.scratchLocked()
		copy(paths, m.LinkPath)
		for _, l := range links {
			snap.ReleaseBandwidth(m.LinkPath[l], env.Link(l).BW)
		}
		ms := getMapScratch()
		rErr := reroute(snap, env, m.GuestHost, paths, links, &s.ar, ms)
		putMapScratch(ms)
		if rErr != nil {
			t.Fatal(rErr)
		}
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(200, cycle)
	t.Logf("reroute steady state: %.1f allocs per %d-link cycle (budget %d)", avg, len(links), rerouteAllocBudget)
	if avg > rerouteAllocBudget {
		t.Fatalf("reroute path allocates %.1f per cycle, budget is %d", avg, rerouteAllocBudget)
	}
}

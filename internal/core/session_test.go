package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

func sessionFixture(t *testing.T) (*cluster.Cluster, *Session) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c := mustTorus(t, specs, 8, 5)
	s, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, s
}

func smallEnv(seed int64, guests int) *virtual.Env {
	rng := rand.New(rand.NewSource(seed))
	return workload.GenerateEnv(workload.HighLevelParams(guests, 0.03), rng)
}

func TestSessionMapAndRelease(t *testing.T) {
	_, s := sessionFixture(t)
	before := s.ResidualProc()

	m, err := s.Map(smallEnv(2, 60))
	if err != nil {
		t.Fatal(err)
	}
	if s.Active() != 1 {
		t.Fatal("one environment should be active")
	}
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("session mapping invalid: %v", err)
	}

	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}
	if s.Active() != 0 {
		t.Fatal("no environment should remain active")
	}
	after := s.ResidualProc()
	for i := range before {
		if math.Abs(before[i]-after[i]) > 1e-9 {
			t.Fatalf("host %d residual CPU not restored: %v vs %v", i, before[i], after[i])
		}
	}
}

func TestSessionReleaseRestoresBandwidth(t *testing.T) {
	c, s := sessionFixture(t)
	m, err := s.Map(smallEnv(3, 80))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}
	// After release a second identical tenant must map identically —
	// only possible if every edge's bandwidth was fully returned.
	m2, err := s.Map(smallEnv(3, 80))
	if err != nil {
		t.Fatalf("remapping after release failed: %v", err)
	}
	for g := range m.GuestHost {
		if m.GuestHost[g] != m2.GuestHost[g] {
			t.Fatal("release did not fully restore state: placements differ")
		}
	}
	_ = c
}

func TestSessionMultiTenant(t *testing.T) {
	_, s := sessionFixture(t)
	var tenants []*virtual.Env
	var maps []*mapping.Mapping
	for i := int64(0); i < 3; i++ {
		env := smallEnv(10+i, 50)
		m, err := s.Map(env)
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
		tenants = append(tenants, env)
		maps = append(maps, m)
	}
	if s.Active() != 3 {
		t.Fatalf("Active = %d, want 3", s.Active())
	}
	// The combined deployment must respect the cluster's hard limits:
	// validate each against a shared manual ledger.
	led, _ := cluster.NewLedger(s.Cluster(), cluster.VMMOverhead{})
	for ti, m := range maps {
		env := tenants[ti]
		for g, node := range m.GuestHost {
			guest := env.Guest(virtual.GuestID(g))
			if err := led.ReserveGuest(node, guest.Proc, guest.Mem, guest.Stor); err != nil {
				t.Fatalf("tenant %d overcommits: %v", ti, err)
			}
		}
		for l, p := range m.LinkPath {
			if err := led.ReserveBandwidth(p, env.Link(l).BW); err != nil {
				t.Fatalf("tenant %d overcommits bandwidth: %v", ti, err)
			}
		}
	}
	for _, m := range maps {
		if err := s.Release(m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSessionFailedMapLeavesStateUntouched(t *testing.T) {
	_, s := sessionFixture(t)
	before := s.ResidualProc()
	// An unplaceable environment: one guest larger than any host.
	env := virtual.NewEnv()
	env.AddGuest("whale", 10, 1<<20, 10)
	if _, err := s.Map(env); !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("want ErrNoHostFits, got %v", err)
	}
	after := s.ResidualProc()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("failed map modified the session")
		}
	}
	if s.Active() != 0 {
		t.Fatal("failed map counted as active")
	}
}

// TestSessionMidRouteFailureLeavesStateUntouched fails an admission in
// the middle of the Networking stage — hosting succeeds, then the
// aggregate link demand cannot fit the switched fabric's 1000Mbps
// trunks — after earlier links already reserved bandwidth on the
// attempt's ledger.
func TestSessionMidRouteFailureLeavesStateUntouched(t *testing.T) {
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rand.New(rand.NewSource(7)))
	c, err := topology.Switched(specs, workload.SwitchPorts, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.HighLevelParams(140, 0.04)
	p.BWMin, p.BWMax = 150, 500
	env := workload.GenerateEnv(p, rand.New(rand.NewSource(11)))

	before := s.ResidualProc()
	if _, err := s.Map(env); !errors.Is(err, ErrNoPath) {
		t.Fatalf("want ErrNoPath, got %v", err)
	}
	after := s.ResidualProc()
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("failed admission changed residual[%d]: %v -> %v", i, before[i], after[i])
		}
	}
}

func TestSessionReleaseUnknownMapping(t *testing.T) {
	c, s := sessionFixture(t)
	stray := mapping.New(c, smallEnv(5, 10))
	if err := s.Release(stray); !errors.Is(err, ErrNotActive) {
		t.Fatalf("want ErrNotActive, got %v", err)
	}
	m, err := s.Map(smallEnv(6, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(m); !errors.Is(err, ErrNotActive) {
		t.Fatal("double release must fail")
	}
}

func TestSessionRejectsRetryingMapper(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c := mustTorus(t, specs, 8, 5)
	if _, err := NewSession(c, cluster.VMMOverhead{}, fakeMapper{}); err == nil {
		t.Fatal("non-incremental mappers must be rejected")
	}
}

type fakeMapper struct{}

func (fakeMapper) Name() string { return "fake" }
func (fakeMapper) Map(*cluster.Cluster, *virtual.Env) (*mapping.Mapping, error) {
	return nil, errors.New("unused")
}

func TestSessionOverheadError(t *testing.T) {
	c := mustTorus(t, uniformSpecs(4, 2000, 512, 2000), 2, 2)
	if _, err := NewSession(c, cluster.VMMOverhead{Mem: 1024}, nil); !errors.Is(err, cluster.ErrOverheadExceedsCapacity) {
		t.Fatalf("want overhead error, got %v", err)
	}
}

func TestSessionConcurrentTenants(t *testing.T) {
	_, s := sessionFixture(t)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	handles := make([]*mapping.Mapping, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := s.Map(smallEnv(int64(100+i), 20))
			errs[i] = err
			handles[i] = m
		}(i)
	}
	wg.Wait()
	deployed := 0
	for i, err := range errs {
		if err == nil {
			deployed++
			if vErr := handles[i].Validate(cluster.VMMOverhead{}); vErr != nil {
				t.Fatalf("tenant %d mapping invalid: %v", i, vErr)
			}
		}
	}
	if deployed == 0 {
		t.Fatal("no concurrent tenant deployed")
	}
	if s.Active() != deployed {
		t.Fatalf("Active = %d, want %d", s.Active(), deployed)
	}
	for _, m := range handles {
		if m != nil {
			if err := s.Release(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Active() != 0 {
		t.Fatal("sessions should be empty after releases")
	}
}

func TestSessionFailHostEvictsAndQuarantines(t *testing.T) {
	_, s := sessionFixture(t)
	m1, err := s.Map(smallEnv(30, 40))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Map(smallEnv(31, 40))
	if err != nil {
		t.Fatal(err)
	}
	// Fail a host that m1 uses.
	var victim graph.NodeID = -1
	for _, node := range m1.GuestHost {
		victim = node
		break
	}
	affected, err := s.FailHost(victim)
	if err != nil {
		t.Fatal(err)
	}
	foundM1 := false
	for _, m := range affected {
		if m == m1 {
			foundM1 = true
		}
		if err := s.Release(m); !errors.Is(err, ErrNotActive) {
			t.Fatal("affected mappings must already be evicted")
		}
	}
	if !foundM1 {
		t.Fatal("m1 uses the failed host and must be affected")
	}
	// Redeploy m1's environment: the new mapping must avoid the host.
	re, err := s.Map(m1.Env)
	if err != nil {
		t.Fatalf("redeploy after failure: %v", err)
	}
	for g, node := range re.GuestHost {
		if node == victim {
			t.Fatalf("guest %d placed on the failed host", g)
		}
	}
	// m2 untouched unless it used the host too.
	usesVictim := false
	for _, node := range m2.GuestHost {
		if node == victim {
			usesVictim = true
		}
	}
	if !usesVictim {
		if err := s.Release(m2); err != nil {
			t.Fatalf("unaffected mapping should still be active: %v", err)
		}
	}
}

func TestSessionFailHostResourceConservation(t *testing.T) {
	_, s := sessionFixture(t)
	before := s.ResidualProc()
	m, err := s.Map(smallEnv(32, 30))
	if err != nil {
		t.Fatal(err)
	}
	node := m.GuestHost[0]
	if _, err := s.FailHost(node); err != nil {
		t.Fatal(err)
	}
	// Everything the session held was released by the eviction.
	after := s.ResidualProc()
	for i := range before {
		if math.Abs(before[i]-after[i]) > 1e-9 {
			t.Fatalf("host %d residual not conserved after failure eviction", i)
		}
	}
	if err := s.RestoreHost(node); err != nil {
		t.Fatal(err)
	}
	// After restoration the original environment maps again, possibly
	// using the host.
	if _, err := s.Map(m.Env); err != nil {
		t.Fatalf("remap after restore: %v", err)
	}
}

func TestSessionFailHostValidation(t *testing.T) {
	c, s := sessionFixture(t)
	if _, err := s.FailHost(graph.NodeID(c.Net().NumNodes() + 5)); err == nil {
		t.Fatal("failing a non-host must error")
	}
	if err := s.RestoreHost(graph.NodeID(-1)); err == nil {
		t.Fatal("restoring a non-host must error")
	}
}

func TestSessionFailLink(t *testing.T) {
	// A ring cluster so that losing one link leaves an alternative route.
	rng := rand.New(rand.NewSource(40))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c, err := topology.Ring(specs, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A loose-latency environment so ring detours stay feasible.
	env := workload.GenerateEnv(workload.VirtualParams{
		Guests: 30, Density: 0.05,
		ProcMin: 50, ProcMax: 100,
		MemMin: 128, MemMax: 256,
		StorMin: 10, StorMax: 50,
		BWMin: 0.5, BWMax: 1,
		LatMin: 150, LatMax: 200,
	}, rng)
	before := s.ResidualProc() // pristine baseline
	m, err := s.Map(env)
	if err != nil {
		t.Fatal(err)
	}
	// Fail an edge some path uses.
	victim := -1
	for _, p := range m.LinkPath {
		if p.Len() > 0 {
			victim = p.Edges[0]
			break
		}
	}
	if victim == -1 {
		t.Skip("no inter-host paths in this draw")
	}
	affected, err := s.FailLink(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) == 0 {
		t.Fatal("the mapping uses the failed link and must be evicted")
	}
	// Eviction returns the session to its pristine residuals.
	after := s.ResidualProc()
	for i := range before {
		if math.Abs(before[i]-after[i]) > 1e-9 {
			t.Fatal("eviction must conserve resources")
		}
	}
	// Redeploy: the new routing must avoid the cut edge.
	re, err := s.Map(env)
	if err != nil {
		t.Fatalf("redeploy after link failure: %v", err)
	}
	for _, p := range re.LinkPath {
		for _, eid := range p.Edges {
			if eid == victim {
				t.Fatal("redeployed path crosses the cut edge")
			}
		}
	}
	if err := s.RestoreLink(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FailLink(-1); err == nil {
		t.Fatal("out-of-range edge must error")
	}
	if err := s.RestoreLink(999999); err == nil {
		t.Fatal("out-of-range restore must error")
	}
}

// TestSessionCloseRefusesLaterOperations closes a session with an
// environment deployed and a host failed: Close emits one EventClose and
// nothing else, and every later operation — and a second Close — is
// refused with ErrSessionClosed, committing and emitting nothing.
func TestSessionCloseRefusesLaterOperations(t *testing.T) {
	c, s := sessionFixture(t)
	m, err := s.Map(smallEnv(1, 6))
	if err != nil {
		t.Fatal(err)
	}
	hosts := c.HostNodes()
	if _, err := s.FailHost(hosts[len(hosts)-1]); err != nil {
		t.Fatal(err)
	}
	var events []EventType
	s.SetCommitHook(func(ev Event) { events = append(events, ev.Type) })
	before := s.ResidualProc()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, mapErr := s.MapTagged(smallEnv(2, 4), "late")
	_, failErr := s.FailHostAndRepair(hosts[0])
	_, cutErr := s.FailLink(0)
	for name, err := range map[string]error{
		"map":          mapErr,
		"release":      s.Release(m),
		"release tag":  s.ReleaseTagged("late"),
		"fail host":    failErr,
		"cut link":     cutErr,
		"restore host": s.RestoreHost(hosts[len(hosts)-1]),
		"restore link": s.RestoreLink(0),
		"close":        s.Close(),
	} {
		if !errors.Is(err, ErrSessionClosed) {
			t.Errorf("%s after Close: %v, want ErrSessionClosed", name, err)
		}
	}
	if res := s.Rebalance(0); res.Moves != 0 || res.Scored != 0 {
		t.Errorf("a rebalance after Close scored %d moves and committed %d", res.Scored, res.Moves)
	}
	if len(events) != 1 || events[0] != EventClose {
		t.Errorf("events %v, want one close", events)
	}
	if after := s.ResidualProc(); !slices.Equal(before, after) || s.Active() != 1 {
		t.Errorf("Close changed the ledger or the active set: %d active", s.Active())
	}
}

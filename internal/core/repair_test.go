package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// ringSession builds a ring cluster (every link cut leaves a detour) and
// an environment with loose latency budgets so detours stay feasible.
func ringSession(t *testing.T) (*Session, *virtual.Env) {
	t.Helper()
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
	env := workload.GenerateEnv(workload.VirtualParams{
		Guests: 30, Density: 0.05,
		ProcMin: 50, ProcMax: 100,
		MemMin: 128, MemMax: 256,
		StorMin: 10, StorMax: 50,
		BWMin: 0.5, BWMax: 1,
		LatMin: 150, LatMax: 200,
	}, rng)
	return s, env
}

// TestRepairLinkFailureKeepsPlacements pins the cheap path: after a link
// failure the repair engine must keep every guest placement and re-route
// only the broken paths around the cut edge.
func TestRepairLinkFailureKeepsPlacements(t *testing.T) {
	s, env := ringSession(t)
	m, err := s.Map(env)
	if err != nil {
		t.Fatal(err)
	}
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
	results, err := s.FailLinkAndRepair(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("the mapping uses the failed link and must be evicted")
	}
	for _, res := range results {
		if res.Outcome != RepairRepaired {
			t.Fatalf("link failure on a ring must be repairable in place, got %v (%v)", res.Outcome, res.Err)
		}
		if res.Route.Searches == 0 || res.Route.Pops < 2*res.Route.Searches {
			t.Fatalf("a path was re-routed around the cut edge, and the result counts %+v", res.Route)
		}
		for g := range res.New.GuestHost {
			if res.New.GuestHost[g] != res.Old.GuestHost[g] {
				t.Fatalf("guest %d moved during a repaired outcome", g)
			}
		}
		for _, p := range res.New.LinkPath {
			for _, eid := range p.Edges {
				if eid == victim {
					t.Fatal("repaired path crosses the cut edge")
				}
			}
		}
		if err := res.New.Validate(cluster.VMMOverhead{}); err != nil {
			t.Fatalf("repaired mapping violates Eq. (1)-(9): %v", err)
		}
		// The old handle is gone, the new one is live.
		if err := s.Release(res.Old); !errors.Is(err, ErrNotActive) {
			t.Fatal("evicted mapping must not be active")
		}
	}
	if s.Active() != len(results) {
		t.Fatalf("Active = %d, want %d repaired environments", s.Active(), len(results))
	}
}

// TestRepairHostFailureReplaces pins the fallback: after a host failure
// the cheap path is impossible (the host is quarantined), so the engine
// must fully re-map the evicted environments off the failed host.
func TestRepairHostFailureReplaces(t *testing.T) {
	_, s := sessionFixture(t)
	m, err := s.Map(smallEnv(50, 40))
	if err != nil {
		t.Fatal(err)
	}
	victim := m.GuestHost[0]
	results, err := s.FailHostAndRepair(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("the mapping uses the failed host and must be evicted")
	}
	for _, res := range results {
		if res.Outcome != RepairReplaced {
			t.Fatalf("host failure must force a full re-map, got %v (%v)", res.Outcome, res.Err)
		}
		if res.Route.Searches == 0 {
			t.Fatal("the re-map routed its inter-host links, and the result counts no search")
		}
		for g, node := range res.New.GuestHost {
			if node == victim {
				t.Fatalf("guest %d re-placed on the failed host", g)
			}
		}
		if err := res.New.Validate(cluster.VMMOverhead{}); err != nil {
			t.Fatalf("replacement mapping violates Eq. (1)-(9): %v", err)
		}
	}
}

// TestRepairUnrecoverable pins the terminal outcome: when the degraded
// cluster cannot hold an environment, repair reports it unrecoverable,
// the environment stays evicted, and its resources are fully returned.
func TestRepairUnrecoverable(t *testing.T) {
	c := mustTorus(t, uniformSpecs(4, 2000, 1024, 1000), 2, 2)
	s, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline := s.ResidualProc()
	// One guest per host: losing any host makes the environment unmappable.
	env := virtual.NewEnv()
	for i := 0; i < 4; i++ {
		env.AddGuest("g", 100, 1000, 100)
	}
	m, err := s.Map(env)
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.FailHostAndRepair(m.GuestHost[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Outcome != RepairUnrecoverable {
		t.Fatalf("results = %+v, want one unrecoverable", results)
	}
	if results[0].New != nil {
		t.Fatal("unrecoverable result must carry no new mapping")
	}
	if !errors.Is(results[0].Err, ErrNoHostFits) {
		t.Fatalf("Err = %v, want ErrNoHostFits", results[0].Err)
	}
	if s.Active() != 0 {
		t.Fatalf("Active = %d after unrecoverable repair", s.Active())
	}
	after := s.ResidualProc()
	for i := range baseline {
		if math.Abs(baseline[i]-after[i]) > 1e-9 {
			t.Fatalf("host %d residual not conserved after unrecoverable repair", i)
		}
	}
}

// TestFailRestoreSentinels pins the operator-typo protection: failing an
// already-failed target and restoring a healthy one are errors, not
// silent no-ops.
func TestFailRestoreSentinels(t *testing.T) {
	c, s := sessionFixture(t)
	host := c.Hosts()[0].Node

	if err := s.RestoreHost(host); !errors.Is(err, ErrNotFailed) {
		t.Fatalf("restoring a healthy host: got %v, want ErrNotFailed", err)
	}
	if _, err := s.FailHost(host); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FailHost(host); !errors.Is(err, ErrAlreadyFailed) {
		t.Fatalf("double host failure: got %v, want ErrAlreadyFailed", err)
	}
	if err := s.RestoreHost(host); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreHost(host); !errors.Is(err, ErrNotFailed) {
		t.Fatalf("double host restore: got %v, want ErrNotFailed", err)
	}

	if err := s.RestoreLink(0); !errors.Is(err, ErrNotFailed) {
		t.Fatalf("restoring a healthy link: got %v, want ErrNotFailed", err)
	}
	if _, err := s.FailLink(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FailLink(0); !errors.Is(err, ErrAlreadyFailed) {
		t.Fatalf("double link failure: got %v, want ErrAlreadyFailed", err)
	}
	if err := s.RestoreLink(0); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreLink(0); !errors.Is(err, ErrNotFailed) {
		t.Fatalf("double link restore: got %v, want ErrNotFailed", err)
	}

	if _, err := s.FailHost(graph.NodeID(-1)); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("failing a non-host: got %v, want ErrUnknownTarget", err)
	}
	if _, err := s.FailLink(1 << 30); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("failing an out-of-range edge: got %v, want ErrUnknownTarget", err)
	}
}

// TestFailHostEvictionOrderDeterministic is the headline bugfix
// regression: evictions must come back in admission order, stable across
// repeated fail cycles over freshly-allocated mappings — the pointer-
// address sort this replaces varied with the allocator's whims. Each
// trial churns the session (release half, admit more, force a GC) so
// recycled allocations make pointer order diverge from admission order.
func TestFailHostEvictionOrderDeterministic(t *testing.T) {
	var want []string
	for trial := 0; trial < 5; trial++ {
		c := mustTorus(t, uniformSpecs(4, 4000, 8192, 8000), 2, 2)
		s, err := NewSession(c, cluster.VMMOverhead{}, nil)
		if err != nil {
			t.Fatal(err)
		}

		labels := make(map[*mapping.Mapping]string)
		var admitted []*mapping.Mapping // admission order, including released
		released := make(map[*mapping.Mapping]bool)
		admit := func(label string, seed int64) {
			m, err := s.Map(smallEnv(seed, 6))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			labels[m] = label
			admitted = append(admitted, m)
		}
		for i := 0; i < 10; i++ {
			admit(fmt.Sprintf("a%d", i), int64(500+i))
		}
		for i := 0; i < 10; i += 2 {
			if err := s.Release(admitted[i]); err != nil {
				t.Fatal(err)
			}
			released[admitted[i]] = true
		}
		runtime.GC() // encourage the allocator to recycle the freed mappings
		for i := 0; i < 5; i++ {
			admit(fmt.Sprintf("b%d", i), int64(600+i))
		}

		victim := c.Hosts()[0].Node
		affected, err := s.FailHost(victim)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, m := range affected {
			got = append(got, labels[m])
		}
		// Expected: the active tenants that use the host, in admission order.
		var expect []string
		for _, m := range admitted {
			if released[m] {
				continue
			}
			for _, node := range m.GuestHost {
				if node == victim {
					expect = append(expect, labels[m])
					break
				}
			}
		}
		if !equalStrings(got, expect) {
			t.Fatalf("trial %d: eviction order %v, want admission order %v", trial, got, expect)
		}
		if trial == 0 {
			want = got
		} else if !equalStrings(want, got) {
			t.Fatalf("trial %d eviction order %v differs from trial 0's %v", trial, got, want)
		}
	}
	if len(want) == 0 {
		t.Fatal("no tenant used the failed host; the fixture is vacuous")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

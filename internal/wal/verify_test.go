package wal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/workload"
)

// balancedAgain admits six seeded environments on four uniform 2000-MIPS
// hosts and releases them all: the residuals return to 2000 give or take
// an ulp, and the running Σx² ends one ulp off its recompute.
func balancedAgain(t *testing.T) (*core.Session, spec.ClusterSpec) {
	t.Helper()
	specs := make([]topology.HostSpec, 4)
	for i := range specs {
		specs[i] = topology.HostSpec{Proc: 2000, Mem: 65536, Stor: 100000}
	}
	c, err := topology.Torus2D(specs, 2, 2, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	tags := []string{"e1", "e2", "e3", "e4", "e5", "e6"}
	for _, tag := range tags {
		if _, _, err := s.MapTagged(workload.GenerateEnv(workload.HighLevelParams(4, 0.03), rng), tag); err != nil {
			t.Fatal(err)
		}
	}
	for _, tag := range tags {
		if err := s.ReleaseTagged(tag); err != nil {
			t.Fatal(err)
		}
	}
	return s, spec.FromCluster(c)
}

// TestVerifyObjectiveAcceptsPerfectBalance: near a perfect balance the
// incremental σ is the square root of a last-ulp difference, 2e-5 away
// from a recompute of 1e-13 on a ledger that is exactly right, and
// recovery must still serve the session.
func TestVerifyObjectiveAcceptsPerfectBalance(t *testing.T) {
	s, _ := balancedAgain(t)
	if d := math.Abs(s.ObjectiveStdDev() - mapping.Objective(s.ResidualProc())); d <= objectiveTolerance {
		t.Fatalf("fixture no longer drifts (σ gap %g): it no longer covers the square-root case", d)
	}
	if err := VerifyObjective(s); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyObjectiveCatchesLostRelease: a residual vector that lost a
// release the accumulators saw is refused, balanced or loaded.
func TestVerifyObjectiveCatchesLostRelease(t *testing.T) {
	s, cs := balancedAgain(t)
	if _, _, err := s.MapTagged(workload.GenerateEnv(workload.HighLevelParams(4, 0.03), rand.New(rand.NewSource(1))), "e7"); err != nil {
		t.Fatal(err)
	}
	for _, active := range []bool{true, false} {
		if !active {
			if err := s.ReleaseTagged("e7"); err != nil {
				t.Fatal(err)
			}
		}
		sn := ExportSession("s1", cs, "", cluster.VMMOverhead{}, 0, s)
		sn.Ledger.Proc[0] -= 1e-3
		restored, _, err := RestoreSnap(sn)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyObjective(restored); err == nil {
			t.Fatalf("active=%v: a residual 1e-3 MIPS off its accumulators verified", active)
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/topology"
	"repro/internal/workload"
)

// pipelineTestbeds are the two clusters the gated benchmark runs on: the
// paper's 40 hosts behind 64-port switches, and the 8x8 10 Gbps / 1 ms
// torus, each with the environments that load it.
func pipelineTestbeds(t *testing.T) []struct {
	name string
	c    *cluster.Cluster
	env  workload.VirtualParams
} {
	t.Helper()
	paper := workload.GenerateHosts(workload.PaperClusterParams(), rand.New(rand.NewSource(1)))
	switched, err := topology.Switched(paper, 64, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.PaperClusterParams()
	p.Hosts = 64
	torus, err := topology.Torus2D(workload.GenerateHosts(p, rand.New(rand.NewSource(1))), 8, 8, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		c    *cluster.Cluster
		env  workload.VirtualParams
	}{
		{"switched", switched, workload.HighLevelParams(100, 0.02)},
		{"torus8x8", torus, workload.LowLevelParams(200, 0.02)},
	}
}

// TestOneShotEqualsFirstAdmission pins "one pipeline": Mapper.Map on a
// cluster and the first admission of a fresh Session on it run the same
// stages body on the same residuals, so they must place every guest on
// the same host and route every link over the same path, node for node
// and edge for edge, on both testbeds.
func TestOneShotEqualsFirstAdmission(t *testing.T) {
	for _, tb := range pipelineTestbeds(t) {
		t.Run(tb.name+"/HMN", func(t *testing.T) {
			h := &HMN{}
			mapped := 0
			for seed := int64(1); seed <= 10; seed++ {
				v := workload.GenerateEnv(tb.env, rand.New(rand.NewSource(seed)))
				one, errOne := h.Map(tb.c, v)

				s, err := NewSession(tb.c, cluster.VMMOverhead{}, h)
				if err != nil {
					t.Fatal(err)
				}
				first, _, errFirst := s.MapTagged(v, "")
				if fmt.Sprint(errOne) != fmt.Sprint(errFirst) {
					t.Fatalf("seed %d: one-shot says %v, first admission %v", seed, errOne, errFirst)
				}
				if errOne != nil {
					continue
				}
				mapped++
				if !slices.Equal(one.GuestHost, first.GuestHost) {
					t.Fatalf("seed %d: placements differ:\n one-shot %v\n session  %v", seed, one.GuestHost, first.GuestHost)
				}
				for l := range one.LinkPath {
					a, b := one.LinkPath[l], first.LinkPath[l]
					if !slices.Equal(a.Nodes, b.Nodes) || !slices.Equal(a.Edges, b.Edges) {
						t.Fatalf("seed %d: link %d routed %v one-shot, %v in the session", seed, l, a, b)
					}
				}
			}
			if mapped < 5 {
				t.Fatalf("%d of 10 seeds mapped: the comparison hardly ran", mapped)
			}
		})
	}
}

// TestStageTimesCoverMap: the three stage times are taken inside the
// mapper's share of an admission's lock-hold and nowhere else, so they
// can never exceed it, and on an admission with real work in it (500
// guests routed over the torus) they account for nearly all of it — what
// is left is the mapping's allocation and the scratch pool.
func TestStageTimesCoverMap(t *testing.T) {
	if raceEnabled {
		t.Skip("a ratio of wall times; the race detector's instrumentation is not what it measures")
	}
	torus := pipelineTestbeds(t)[1].c
	s, err := NewSession(torus, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for i := int64(0); i < 3 && best < 0.9; i++ { // a preempted attempt gets two more tries
		v := workload.GenerateEnv(workload.LowLevelParams(500, 0.02), rand.New(rand.NewSource(1000+i)))
		start := time.Now()
		m, st, err := s.MapTagged(v, "")
		hold := time.Since(start).Seconds()
		if err != nil {
			t.Fatal(err)
		}
		staged := st.Stages.HostingSeconds + st.Stages.MigrationSeconds + st.Stages.NetworkingSeconds
		mapper := hold - st.CommitSeconds
		if st.Stages.HostingSeconds <= 0 || st.Stages.NetworkingSeconds <= 0 || staged > mapper {
			t.Fatalf("stages %+v sum to %.6f s of the mapper's %.6f s", st.Stages, staged, mapper)
		}
		best = max(best, staged/mapper)
		t.Logf("hosting %.6f + migration %.6f + networking %.6f s = %.3f of the mapper's %.6f s",
			st.Stages.HostingSeconds, st.Stages.MigrationSeconds, st.Stages.NetworkingSeconds, staged/mapper, mapper)
		if err := s.Release(m); err != nil {
			t.Fatal(err)
		}
	}
	if best < 0.9 {
		t.Fatalf("the stage times cover %.3f of the mapper's share of the lock-hold, want >= 0.9", best)
	}
}

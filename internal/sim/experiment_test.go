package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// handMapping builds a two-host line with explicit placements.
func handMapping(t *testing.T) *mapping.Mapping {
	t.Helper()
	specs := []topology.HostSpec{
		{Proc: 100, Mem: 4096, Stor: 1000},
		{Proc: 200, Mem: 4096, Stor: 1000},
	}
	c, err := topology.Line(specs, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := virtual.NewEnv()
	v.AddGuest("a", 50, 128, 10)  // host 0
	v.AddGuest("b", 50, 128, 10)  // host 0
	v.AddGuest("c", 100, 128, 10) // host 1
	v.AddLink(0, 1, 1, 60)        // intra-host
	v.AddLink(1, 2, 1, 60)        // inter-host, 1 hop (5ms)
	m := mapping.New(c, v)
	m.GuestHost[0], m.GuestHost[1], m.GuestHost[2] = 0, 0, 1
	m.LinkPath[0] = graph.TrivialPath(0)
	m.LinkPath[1] = graph.Path{Nodes: []graph.NodeID{0, 1}, Edges: []int{0}}
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunExperimentHandComputed(t *testing.T) {
	m := handMapping(t)
	res := RunExperiment(m, ExperimentConfig{BaseSeconds: 1, TransferSeconds: 0.1})
	// Host 0 (cap 100): demands 50+50, works 50+50 -> WC makespan
	// = 100/100 = 1s for both guests. Host 1 (cap 200): demand 100, work
	// 100 -> rate 200 -> 0.5s.
	if math.Abs(res.GuestFinish[0]-1) > 1e-9 || math.Abs(res.GuestFinish[1]-1) > 1e-9 {
		t.Fatalf("host-0 guests = %v", res.GuestFinish[:2])
	}
	if math.Abs(res.GuestFinish[2]-0.5) > 1e-9 {
		t.Fatalf("host-1 guest = %v, want 0.5", res.GuestFinish[2])
	}
	if math.Abs(res.ComputeMakespan-1) > 1e-9 {
		t.Fatalf("ComputeMakespan = %v, want 1", res.ComputeMakespan)
	}
	// Transfers: intra-host instant (0); inter-host 0.1s + 5ms = 0.105s.
	if math.Abs(res.TransferMakespan-0.105) > 1e-9 {
		t.Fatalf("TransferMakespan = %v, want 0.105", res.TransferMakespan)
	}
	if res.Makespan != res.ComputeMakespan {
		t.Fatal("compute dominates here")
	}
	if res.Events == 0 {
		t.Fatal("the engine should have processed events")
	}
}

func TestRunExperimentTransferDominates(t *testing.T) {
	m := handMapping(t)
	res := RunExperiment(m, ExperimentConfig{BaseSeconds: 0.01, TransferSeconds: 5})
	if res.Makespan != res.TransferMakespan {
		t.Fatal("transfer phase should dominate")
	}
	if math.Abs(res.TransferMakespan-5.005) > 1e-9 {
		t.Fatalf("TransferMakespan = %v, want 5.005", res.TransferMakespan)
	}
}

func TestRunExperimentOverheadShrinksCapacity(t *testing.T) {
	m := handMapping(t)
	base := RunExperiment(m, ExperimentConfig{BaseSeconds: 1, TransferSeconds: 0.01})
	slow := RunExperiment(m, ExperimentConfig{BaseSeconds: 1, TransferSeconds: 0.01,
		Overhead: cluster.VMMOverhead{Proc: 50}})
	if slow.ComputeMakespan <= base.ComputeMakespan {
		t.Fatalf("overhead must slow the experiment: %v vs %v", slow.ComputeMakespan, base.ComputeMakespan)
	}
	// Host 0 capacity 50 with 100 MI total -> 2s.
	if math.Abs(slow.ComputeMakespan-2) > 1e-9 {
		t.Fatalf("ComputeMakespan = %v, want 2", slow.ComputeMakespan)
	}
}

func TestRunExperimentDefaults(t *testing.T) {
	m := handMapping(t)
	res := RunExperiment(m, ExperimentConfig{})
	if res.Makespan <= 0 {
		t.Fatal("defaulted config must still run")
	}
}

func TestBalancedMappingFinishesFaster(t *testing.T) {
	// The paper's core claim (§5.2 correlation): a balanced mapping runs
	// the experiment faster than an imbalanced one of the same workload.
	specs := []topology.HostSpec{
		{Proc: 1000, Mem: 8192, Stor: 8000},
		{Proc: 1000, Mem: 8192, Stor: 8000},
	}
	c, err := topology.Line(specs, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := virtual.NewEnv()
	for i := 0; i < 4; i++ {
		v.AddGuest("g", 100, 128, 10)
	}
	balanced := mapping.New(c, v)
	balanced.GuestHost = []graph.NodeID{0, 0, 1, 1}
	skewed := mapping.New(c, v)
	skewed.GuestHost = []graph.NodeID{0, 0, 0, 0}

	cfg := ExperimentConfig{BaseSeconds: 1, TransferSeconds: 0.001}
	rb := RunExperiment(balanced, cfg)
	rs := RunExperiment(skewed, cfg)
	if rb.ComputeMakespan >= rs.ComputeMakespan {
		t.Fatalf("balanced %v should beat skewed %v", rb.ComputeMakespan, rs.ComputeMakespan)
	}
}

func TestObjectiveCorrelatesWithMakespan(t *testing.T) {
	// End-to-end reproduction of the §5.2 claim: over a pool of mapping
	// strategies for one moderately loaded scenario — balanced (HMN),
	// random, and deliberately packed placements, spanning the objective
	// range the paper's four heuristics span — the objective function and
	// the emulated experiment's execution time correlate strongly and
	// positively (the paper reports r = 0.7).
	rng := rand.New(rand.NewSource(21))
	specsList := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c, err := topology.Torus2D(specsList, 8, 5, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := workload.GenerateEnv(workload.HighLevelParams(250, 0.015), rng)

	var objs, times []float64
	record := func(m *mapping.Mapping, res []float64) {
		objs = append(objs, mapping.Objective(res))
		times = append(times, RunExperiment(m, ExperimentConfig{TransferSeconds: 0.001}).Makespan)
	}

	if m, err := (&core.HMN{}).Map(c, v); err == nil {
		record(m, m.ResidualProc(cluster.VMMOverhead{}))
	}
	// Random placements.
	for i := 0; i < 8; i++ {
		m := mapping.New(c, v)
		led, _ := cluster.NewLedger(c, cluster.VMMOverhead{})
		ok := true
		for _, g := range v.Guests() {
			placed := false
			for attempts := 0; attempts < 200; attempts++ {
				n := c.HostNodes()[rng.Intn(c.NumHosts())]
				if led.Fits(n, g.Mem, g.Stor) {
					if err := led.ReserveGuest(n, g.Proc, g.Mem, g.Stor); err == nil {
						m.GuestHost[g.ID] = n
						placed = true
						break
					}
				}
			}
			if !placed {
				ok = false
				break
			}
		}
		if ok {
			record(m, led.ResidualProcAll())
		}
	}
	// Packed placements onto the first k hosts (round-robin, skipping
	// misfits) — the imbalanced end of the spectrum.
	for _, k := range []int{28, 32, 36} {
		m := mapping.New(c, v)
		led, _ := cluster.NewLedger(c, cluster.VMMOverhead{})
		nodes := c.HostNodes()[:k]
		ok := true
		for _, g := range v.Guests() {
			placed := false
			for off := 0; off < k; off++ {
				n := nodes[(int(g.ID)+off)%k]
				if led.Fits(n, g.Mem, g.Stor) {
					if err := led.ReserveGuest(n, g.Proc, g.Mem, g.Stor); err == nil {
						m.GuestHost[g.ID] = n
						placed = true
						break
					}
				}
			}
			if !placed {
				ok = false
				break
			}
		}
		if ok {
			record(m, led.ResidualProcAll())
		}
	}
	if len(objs) < 10 {
		t.Fatalf("too few mappings for the correlation test: %d", len(objs))
	}
	r := pearson(objs, times)
	if r < 0.4 {
		t.Fatalf("objective/makespan correlation %v, want strongly positive", r)
	}
}

func pearson(xs, ys []float64) float64 {
	mx, my := 0.0, 0.0
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx, syy float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
		syy += (ys[i] - my) * (ys[i] - my)
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

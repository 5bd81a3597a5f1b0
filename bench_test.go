// Benchmarks regenerating the paper's evaluation artifacts:
//
//   - BenchmarkTable2 measures each heuristic's mapping run on
//     representative scenario rows of Table 2 and reports the achieved
//     objective (objective metric) alongside the mapping time (ns/op).
//   - BenchmarkTable3 measures the emulated experiment on HMN and RA
//     mappings and reports its makespan (makespan_s metric) — the Table 3
//     quantity.
//   - BenchmarkFigure1 measures HMN's mapping time as the number of
//     virtual links grows on the torus (and, for contrast, the switched)
//     cluster — the Figure 1 series; the links metric carries the x-axis.
//   - BenchmarkAStarPrune and BenchmarkDijkstra measure the routing
//     primitives in isolation.
//
// Full-matrix table regeneration (30 repetitions, failure counts) is the
// job of cmd/hmnbench; benchmarks measure single representative runs.
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/exact"
	"repro/internal/exp"
	"repro/internal/ga"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/wal"
	"repro/internal/workload"
)

// benchInstance is a prepared (cluster, environment) pair.
type benchInstance struct {
	name  string
	c     *Cluster
	env   *virtual.Env
	ratio float64
}

// benchScenarios builds representative Table 2 rows: the easiest and
// hardest high-level rows plus the two low-level extremes, on a given
// topology.
func benchScenarios(b *testing.B, topo exp.Topology) []benchInstance {
	b.Helper()
	rows := []struct {
		label string
		scn   exp.Scenario
	}{
		{"2.5to1_d0.015", exp.Scenario{Ratio: 2.5, Density: 0.015, Class: exp.HighLevel}},
		{"7.5to1_d0.02", exp.Scenario{Ratio: 7.5, Density: 0.02, Class: exp.HighLevel}},
		{"20to1_d0.01", exp.Scenario{Ratio: 20, Density: 0.01, Class: exp.LowLevel}},
		{"50to1_d0.01", exp.Scenario{Ratio: 50, Density: 0.01, Class: exp.LowLevel}},
	}
	out := make([]benchInstance, 0, len(rows))
	for i, r := range rows {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
		var (
			c   *Cluster
			err error
		)
		if topo == exp.Switched {
			c, err = topology.Switched(specs, workload.SwitchPorts, workload.PhysLinkBW, workload.PhysLinkLat)
		} else {
			c, err = topology.Torus2D(specs, workload.TorusRows, workload.TorusCols, workload.PhysLinkBW, workload.PhysLinkLat)
		}
		if err != nil {
			b.Fatal(err)
		}
		env := workload.GenerateEnv(r.scn.Params(40), rng)
		out = append(out, benchInstance{name: r.label, c: c, env: env, ratio: r.scn.Ratio})
	}
	return out
}

func benchMapper(name string, seed int64) core.Mapper {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "HMN":
		return &core.HMN{}
	case "R":
		return &baseline.Random{Rand: rng, MaxTries: 50}
	case "RA":
		return &baseline.Random{Rand: rng, MaxTries: 50, UseAStar: true}
	case "HS":
		return &baseline.HostingSearch{Rand: rng, MaxTries: 50}
	}
	panic("unknown mapper " + name)
}

// BenchmarkTable2 regenerates the Table 2 comparison: per scenario row
// and heuristic, the time to compute a mapping and the objective reached.
// Failed attempts (the random baselines on the torus — Table 2's failure
// rows) report objective -1 and still measure the time burned.
func BenchmarkTable2(b *testing.B) {
	for _, topo := range []exp.Topology{exp.Torus, exp.Switched} {
		insts := benchScenarios(b, topo)
		for _, inst := range insts {
			for _, h := range []string{"HMN", "R", "RA", "HS"} {
				// The uninformed baselines burn their whole retry budget
				// on the heavy low-level rows; benchmark them on the
				// high-level rows only.
				if (h == "R" || h == "HS") && inst.ratio >= 20 {
					continue
				}
				b.Run(fmt.Sprintf("%s/%s/%s", topo, inst.name, h), func(b *testing.B) {
					b.ReportAllocs()
					obj := -1.0
					for i := 0; i < b.N; i++ {
						m, err := benchMapper(h, int64(i)).Map(inst.c, inst.env)
						if err == nil {
							obj = m.Objective(VMMOverhead{})
						}
					}
					b.ReportMetric(obj, "objective")
				})
			}
		}
	}
}

// BenchmarkTable3 regenerates the Table 3 quantity: the emulated
// experiment's execution on a prepared mapping, reporting the simulated
// makespan (the table's cell value) and measuring the simulator's own
// speed.
func BenchmarkTable3(b *testing.B) {
	for _, topo := range []exp.Topology{exp.Torus, exp.Switched} {
		insts := benchScenarios(b, topo)
		for _, inst := range insts {
			for _, h := range []string{"HMN", "RA"} {
				m, err := benchMapper(h, 1).Map(inst.c, inst.env)
				if err != nil {
					continue
				}
				cfg := sim.ExperimentConfig{BaseSeconds: 2, TransferSeconds: 0.05}
				b.Run(fmt.Sprintf("%s/%s/%s", topo, inst.name, h), func(b *testing.B) {
					makespan := 0.0
					for i := 0; i < b.N; i++ {
						makespan = sim.RunExperiment(m, cfg).Makespan
					}
					b.ReportMetric(makespan, "makespan_s")
				})
			}
		}
	}
}

// BenchmarkFigure1 regenerates the Figure 1 series: HMN mapping time as a
// function of the number of virtual links, on both cluster topologies.
// The links metric is the x-axis of the figure; ns/op is the y-axis.
func BenchmarkFigure1(b *testing.B) {
	for _, topo := range []exp.Topology{exp.Torus, exp.Switched} {
		for _, scn := range []exp.Scenario{
			{Ratio: 2.5, Density: 0.015, Class: exp.HighLevel},
			{Ratio: 5, Density: 0.02, Class: exp.HighLevel},
			{Ratio: 7.5, Density: 0.025, Class: exp.HighLevel},
			{Ratio: 20, Density: 0.01, Class: exp.LowLevel},
			{Ratio: 30, Density: 0.01, Class: exp.LowLevel},
			{Ratio: 40, Density: 0.01, Class: exp.LowLevel},
			{Ratio: 50, Density: 0.01, Class: exp.LowLevel},
		} {
			rng := rand.New(rand.NewSource(7))
			specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
			var (
				c   *Cluster
				err error
			)
			if topo == exp.Switched {
				c, err = topology.Switched(specs, workload.SwitchPorts, workload.PhysLinkBW, workload.PhysLinkLat)
			} else {
				c, err = topology.Torus2D(specs, workload.TorusRows, workload.TorusCols, workload.PhysLinkBW, workload.PhysLinkLat)
			}
			if err != nil {
				b.Fatal(err)
			}
			env := workload.GenerateEnv(scn.Params(40), rng)
			b.Run(fmt.Sprintf("%s/links_%d", topo, env.NumLinks()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := (&core.HMN{}).Map(c, env); err != nil {
						b.Skipf("instance infeasible: %v", err)
					}
				}
				b.ReportMetric(float64(env.NumLinks()), "links")
			})
		}
	}
}

// paperInstance is a 200-guest high-level environment on the paper's
// 8x5 torus.
func paperInstance(b *testing.B) (*Cluster, *virtual.Env) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c, err := topology.Torus2D(specs, 8, 5, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		b.Fatal(err)
	}
	env := workload.GenerateEnv(workload.HighLevelParams(200, 0.02), rng)
	return c, env
}

// BenchmarkAStarPrune measures the modified A*Prune search in the regimes
// the Networking stage runs it in, and in the one a casual caller gets.
//
//   - torus8x8_loaded is hmnperf's torus_route seen from inside: the 8x8
//     10 Gbps / 1 ms torus with the reservations of some 8000 routed
//     links on it, so that every edge has its own residual and
//     bottlenecks rarely tie; low-level demands (0.087-0.175 Mbps within
//     30-60 ms); and what core.routeLinks holds across searches — one
//     scratch, one path arena, the ar[] tables from the session cache.
//   - torus8x8_churn is the same with the residuals moving as they do in
//     the Networking stage: every path found is reserved, and the one
//     found 4000 searches earlier released. torus8x8_loaded holds the
//     residuals still, so its sweep's insertion pass never moves an
//     element and it under-reports the widest-path bound; this row is the
//     one to read a change to the bound on. It also reports the counts
//     the kernel's gates are written in, per search.
//   - torus200_loaded is torus8x8_loaded on the 20x10 torus of the
//     10 000-guest row of BENCH_scale_seed1.json, where paths are twice
//     as long and the candidate set is at its largest: the row that
//     times the sorted candidate list's insertion cost.
//   - switched40 is the same on the paper's switched cluster, where
//     nearly every neighbour of the switch is a dead-end leaf.
//   - cold_nil_opts passes nil options on the unloaded paper torus: each
//     search computes its own Dijkstra table, borrows a pooled scratch
//     and allocates its path, and every bottleneck ties at 1 Gbps.
func BenchmarkAStarPrune(b *testing.B) {
	for _, churn := range []bool{false, true} {
		name := "torus8x8_loaded"
		if churn {
			name = "torus8x8_churn"
		}
		b.Run(name, func(b *testing.B) {
			p := workload.PaperClusterParams()
			p.Hosts = 64
			c, err := topology.Torus2D(workload.GenerateHosts(p, rand.New(rand.NewSource(5))), 8, 8, 10000, 1)
			if err != nil {
				b.Fatal(err)
			}
			benchAStarLoaded(b, c, churn)
		})
	}
	b.Run("torus200_loaded", func(b *testing.B) {
		p := workload.PaperClusterParams()
		p.Hosts = 200
		c, err := topology.Torus2D(workload.GenerateHosts(p, rand.New(rand.NewSource(5))), 20, 10, 10000, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchAStarLoaded(b, c, false)
	})
	b.Run("switched40", func(b *testing.B) {
		specs := workload.GenerateHosts(workload.PaperClusterParams(), rand.New(rand.NewSource(5)))
		c, err := topology.Switched(specs, workload.SwitchPorts, workload.PhysLinkBW, workload.PhysLinkLat)
		if err != nil {
			b.Fatal(err)
		}
		benchAStarLoaded(b, c, false)
	})
	b.Run("cold_nil_opts", func(b *testing.B) {
		rng := rand.New(rand.NewSource(5))
		specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
		c, err := topology.Torus2D(specs, 8, 5, workload.PhysLinkBW, workload.PhysLinkLat)
		if err != nil {
			b.Fatal(err)
		}
		g := c.Net()
		bw := g.NominalBandwidth()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := graph.NodeID(i % 40)
			dst := graph.NodeID((i*7 + 13) % 40)
			if src == dst {
				continue
			}
			if _, ok := graph.AStarPrune(g, src, dst, 1.0, 45, bw, nil); !ok {
				b.Fatal("torus pair should be routable")
			}
		}
	})
}

// benchAStarLoaded times warmed-up searches between the hosts of c
// against residuals a seeded pass of routed-and-reserved links has left
// uneven. Without churn the residuals stay put while the clock runs, so
// every iteration does the same work; with it each path found is reserved
// and the one found 4000 searches earlier released, so the load stays
// that of the seeded pass while every search sees residuals the last one
// moved, and the work per search is reported in counts as well.
func benchAStarLoaded(b *testing.B, c *Cluster, churn bool) {
	type query struct {
		src, dst graph.NodeID
		bw, lat  float64
	}
	g := c.Net()
	hosts := c.HostNodes()
	rng := rand.New(rand.NewSource(7))
	low := workload.LowLevelParams(0, 0)
	draw := func() query {
		q := query{
			src: hosts[rng.Intn(len(hosts))],
			bw:  low.BWMin + (low.BWMax-low.BWMin)*rng.Float64(),
			lat: low.LatMin + (low.LatMax-low.LatMin)*rng.Float64(),
		}
		for q.dst = q.src; q.dst == q.src; {
			q.dst = hosts[rng.Intn(len(hosts))]
		}
		return q
	}
	ar := make(map[graph.NodeID][]float64, len(hosts))
	for _, h := range hosts {
		ar[h] = graph.DijkstraLatency(g, h)
	}
	residual := make([]float64, g.NumEdges())
	for e := range residual {
		residual[e] = g.Edge(e).Bandwidth
	}
	// reserve takes a path's bandwidth and, given a slot to remember it in,
	// first gives back the reservation the slot held. The arena never
	// reuses a path's storage, so the slot keeps its own copy of the edges.
	type reservation struct {
		edges []int
		bw    float64
	}
	reserve := func(path graph.Path, demand float64, slot *reservation) {
		if slot != nil {
			for _, e := range slot.edges {
				residual[e] += slot.bw
			}
			slot.edges, slot.bw = append(slot.edges[:0], path.Edges...), demand
		}
		for _, e := range path.Edges {
			residual[e] -= demand
		}
	}
	const seeded, window = 8000, 4000
	var held []reservation // the last window searches' reservations, oldest overwritten
	if churn {
		held = make([]reservation, window)
	}
	opts := &graph.AStarPruneOptions{Scratch: graph.NewAStarScratch(), Arena: graph.NewPathArena()}
	for i := 0; i < seeded; i++ {
		q := draw()
		opts.AR = ar[q.dst]
		if path, ok := graph.AStarPrune(g, q.src, q.dst, q.bw, q.lat, residual, opts); ok {
			var slot *reservation
			if churn && i >= seeded-window {
				slot = &held[i%window]
			}
			reserve(path, q.bw, slot)
		}
	}
	queries := make([]query, 1024)
	for i := range queries {
		queries[i] = draw()
	}
	before := opts.Scratch.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		opts.AR = ar[q.dst]
		path, ok := graph.AStarPrune(g, q.src, q.dst, q.bw, q.lat, residual, opts)
		if !ok {
			b.Fatalf("query %d (%d->%d, %.3f Mbps within %.1f ms) should be routable", i, q.src, q.dst, q.bw, q.lat)
		}
		if churn {
			reserve(path, q.bw, &held[i%window])
		}
	}
	if churn {
		st := opts.Scratch.Stats().Sub(before)
		b.ReportMetric(float64(st.Pops)/float64(b.N), "pops/op")
		b.ReportMetric(float64(st.Pushes)/float64(b.N), "pushes/op")
		b.ReportMetric(float64(st.Sweeps)/float64(b.N), "sweeps/op")
	}
}

// BenchmarkDijkstra measures the latency-table computation (the ar[]
// precomputation dominating the Networking stage per §5.2).
func BenchmarkDijkstra(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c, err := topology.Torus2D(specs, 8, 5, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		b.Fatal(err)
	}
	g := c.Net()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.DijkstraLatency(g, graph.NodeID(i%40))
	}
}

// BenchmarkExperimentSim measures the discrete-event simulator on a
// 2000-guest mapping (the heaviest Table 3 cell).
func BenchmarkExperimentSim(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c, err := topology.Switched(specs, 64, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		b.Fatal(err)
	}
	env := workload.GenerateEnv(workload.LowLevelParams(2000, 0.01), rng)
	m, err := (&core.HMN{}).Map(c, env)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.ExperimentConfig{BaseSeconds: 2, TransferSeconds: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunExperiment(m, cfg)
	}
}

// BenchmarkMap measures the full HMN pipeline — the headline hot path
// this repo's incremental kernels target — at three scales: the paper's
// heaviest row (2000 guests on the 40-host switched cluster), then 5000
// and 10000 guests on 100- and 200-host fabrics matching the extended
// BENCH_scale_seed1.json scenarios (density shrinks with guest count to
// hold ~10 links/guest, and the big fabrics use 10G/1ms trunks — the
// same parameters exp.ScaleScenarios uses, without which the aggregate
// virtual bandwidth saturates the physical fabric and mapping correctly
// fails). Compare against the map_seconds series of
// BENCH_scale_seed1.json.
func BenchmarkMap(b *testing.B) {
	cases := []struct {
		name    string
		hosts   int
		guests  int
		density float64
		linkBW  float64
		linkLat float64
	}{
		{"2000g_40h", 40, 2000, 0.01, workload.PhysLinkBW, workload.PhysLinkLat},
		{"5000g_100h", 100, 5000, 0.004, 10000, 1},
		{"10000g_200h", 200, 10000, 0.002, 10000, 1},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			params := workload.PaperClusterParams()
			params.Hosts = tc.hosts
			specs := workload.GenerateHosts(params, rng)
			c, err := topology.Switched(specs, 64, tc.linkBW, tc.linkLat)
			if err != nil {
				b.Fatal(err)
			}
			env := workload.GenerateEnv(workload.LowLevelParams(tc.guests, tc.density), rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (&core.HMN{}).Map(c, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactSolver measures the branch-and-bound optimum on the
// optimality-gap instance size (8 guests, 5 hosts).
func BenchmarkExactSolver(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	specs := workload.GenerateHosts(workload.ClusterParams{
		Hosts: 5, ProcMin: 1000, ProcMax: 3000,
		MemMin: 1024, MemMax: 3072, StorMin: 1000, StorMax: 3000,
	}, rng)
	c, err := topology.Ring(specs, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		b.Fatal(err)
	}
	env := workload.GenerateEnv(workload.VirtualParams{
		Guests: 8, Density: 0.3,
		ProcMin: 100, ProcMax: 400,
		MemMin: 256, MemMax: 1024,
		StorMin: 100, StorMax: 400,
		BWMin: 0.5, BWMax: 2,
		LatMin: 20, LatMax: 60,
	}, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Solve(c, env, exact.Options{}); err != nil {
			b.Skipf("instance infeasible: %v", err)
		}
	}
}

// BenchmarkDeployPlan measures turning a 2000-guest mapping into its
// per-host deployment artifacts.
func BenchmarkDeployPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c, err := topology.Torus2D(specs, 8, 5, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		b.Fatal(err)
	}
	env := workload.GenerateEnv(workload.LowLevelParams(2000, 0.01), rng)
	m, err := (&core.HMN{}).Map(c, env)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deploy.Build(m, VMMOverhead{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionMapRelease measures one tenant's deploy+teardown cycle
// on a shared cluster.
func BenchmarkSessionMapRelease(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c, err := topology.Torus2D(specs, 8, 5, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := core.NewSession(c, VMMOverhead{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	env := workload.GenerateEnv(workload.HighLevelParams(60, 0.03), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sess.Map(env)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Release(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebalanceRound measures one unbounded Session.Rebalance round
// on a quiescent session of each hmnperf testbed — 20–60-guest
// environments on the switched paper cluster, 6 live of 60 admitted
// FIFO; 500-guest low-level environments on the 8×8 torus, 4 live of 12
// — restored to the same fragmented state before every iteration.
// moves/op and searches/op repeat exactly (a round is a pure function of
// the state it starts from); ns/op is the round's lock-holds, roster
// rebuilds and re-routes included.
func BenchmarkRebalanceRound(b *testing.B) {
	testbeds := []struct {
		name     string
		live, n  int
		cluster  func(rng *rand.Rand) (*Cluster, error)
		generate func(rng *rand.Rand) *virtual.Env
	}{
		{"switched", 6, 60,
			func(rng *rand.Rand) (*Cluster, error) {
				return topology.Switched(workload.GenerateHosts(workload.PaperClusterParams(), rng),
					workload.SwitchPorts, workload.PhysLinkBW, workload.PhysLinkLat)
			},
			func(rng *rand.Rand) *virtual.Env {
				return workload.GenerateEnv(workload.HighLevelParams(20+rng.Intn(41), 0.02), rng)
			}},
		{"torus8x8", 4, 12,
			func(rng *rand.Rand) (*Cluster, error) {
				p := workload.PaperClusterParams()
				p.Hosts = 64
				return topology.Torus2D(workload.GenerateHosts(p, rng), 8, 8, 10000, 1)
			},
			func(rng *rand.Rand) *virtual.Env {
				return workload.GenerateEnv(workload.LowLevelParams(500, 0.02), rng)
			}},
	}
	for _, tb := range testbeds {
		b.Run(tb.name, func(b *testing.B) {
			c, err := tb.cluster(rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			sess, err := core.NewSession(c, VMMOverhead{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < tb.n; i++ {
				if _, err := sess.Map(tb.generate(rand.New(rand.NewSource(int64(1000 + i))))); err != nil {
					b.Fatal(err)
				}
				for sess.Active() > tb.live {
					if err := sess.Release(sess.Export().Active[0].M); err != nil {
						b.Fatal(err)
					}
				}
			}
			fragmented := sess.Export()
			var res core.RebalanceResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sess, err = core.RestoreSession(c, VMMOverhead{}, nil, fragmented)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res = sess.Rebalance(0)
			}
			if res.Scored != res.Moves+res.Skipped {
				b.Fatalf("round: %+v; every scored move commits or is a counted skip", res)
			}
			b.ReportMetric(float64(res.Moves), "moves/op")
			b.ReportMetric(float64(res.Route.Searches), "searches/op")
		})
	}
}

// BenchmarkSessionConcurrentAdmit measures one session under N
// closed-loop admitters on both hmnperf testbeds — switched 20–60-guest
// environments with 6 live, and 500-guest low-level environments on an
// 8×8 torus with 4 live. A concurrency mechanism is judged on the
// objective it leaves behind as well as on throughput (DESIGN.md §12,
// "optimistic admission"), so next to admits/s it reports eq10_mips, the
// mean Eq. (10) objective after each admission commit, and
// eq10_serial_mips, the same mean had the recorded commit order been
// executed one operation at a time. Both are computed after the clock
// stops, by re-executing the order a commit hook recorded: once
// committing the recorded mappings, once mapping afresh. The two columns
// see identical live sets, so any gap is placement quality alone.
//
// Lifetimes are keyed by index, not by client: environment i is
// released by whoever submits i+live, once i has committed. The live
// set is then the same for every admitter count, which per-client FIFOs
// do not give (N clients × a FIFO each holds N× the environments). Pin
// the op count with -benchtime <n>x when comparing two builds.
func BenchmarkSessionConcurrentAdmit(b *testing.B) {
	testbeds := []struct {
		name    string
		live    int
		pool    int
		cluster func(rng *rand.Rand) (*Cluster, error)
		env     func(rng *rand.Rand) *virtual.Env
	}{
		{"switched", 6, 256,
			func(rng *rand.Rand) (*Cluster, error) {
				specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
				return topology.Switched(specs, workload.SwitchPorts, workload.PhysLinkBW, workload.PhysLinkLat)
			},
			func(rng *rand.Rand) *virtual.Env {
				return workload.GenerateEnv(workload.HighLevelParams(20+rng.Intn(41), 0.02), rng)
			}},
		{"torus", 4, 32,
			func(rng *rand.Rand) (*Cluster, error) {
				p := workload.PaperClusterParams()
				p.Hosts = 64
				return topology.Torus2D(workload.GenerateHosts(p, rng), 8, 8, 10000, 1)
			},
			func(rng *rand.Rand) *virtual.Env {
				return workload.GenerateEnv(workload.LowLevelParams(500, 0.02), rng)
			}},
	}
	for _, tb := range testbeds {
		rng := rand.New(rand.NewSource(21))
		c, err := tb.cluster(rng)
		if err != nil {
			b.Fatal(err)
		}
		envs := make([]*virtual.Env, tb.pool)
		for i := range envs {
			envs[i] = tb.env(rng)
		}
		for _, admitters := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/admitters_%d", tb.name, admitters), func(b *testing.B) {
				sess, err := core.NewSession(c, VMMOverhead{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				// committed[i] closes once admission i has returned;
				// maps[i] is then its mapping, nil if it was rejected.
				maps := make([]*mapping.Mapping, b.N)
				committed := make([]chan struct{}, b.N)
				for i := range committed {
					committed[i] = make(chan struct{})
				}
				var history []core.Event
				sess.SetCommitHook(func(ev core.Event) { history = append(history, ev) })
				var next, admitted atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < admitters; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							i := int(next.Add(1) - 1)
							if i >= b.N {
								return
							}
							if old := i - tb.live; old >= 0 {
								<-committed[old]
								if maps[old] != nil {
									if err := sess.Release(maps[old]); err != nil {
										b.Error(err)
									}
								}
							}
							if m, err := sess.Map(envs[i%len(envs)]); err == nil {
								maps[i] = m
								admitted.Add(1)
							}
							close(committed[i])
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				n := admitted.Load()
				if n == 0 {
					b.Fatal("no admission succeeded")
				}
				b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "admits/s")
				b.ReportMetric(meanEq10(b, c, history, func(s *core.Session, a *core.AdmitInfo) *mapping.Mapping {
					if err := s.ReplayAdmit(a.Env, a.M, a.Tag, a.Seq); err != nil {
						b.Fatal(err)
					}
					return a.M
				}), "eq10_mips")
				b.ReportMetric(meanEq10(b, c, history, func(s *core.Session, a *core.AdmitInfo) *mapping.Mapping {
					m, _ := s.Map(a.Env) // a serial rejection only shrinks the sample
					return m
				}), "eq10_serial_mips")
				b.ReportMetric(float64(n)/float64(b.N), "accept_ratio")
			})
		}
	}
}

// meanEq10 re-executes a recorded commit order on a fresh session and
// returns the mean Eq. (10) objective after each admission. admit
// applies one recorded admission and returns the mapping it deployed.
func meanEq10(b *testing.B, c *Cluster, history []core.Event, admit func(*core.Session, *core.AdmitInfo) *mapping.Mapping) float64 {
	s, err := core.NewSession(c, VMMOverhead{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	deployed := make(map[uint64]*mapping.Mapping)
	sum, n := 0.0, 0
	for _, ev := range history {
		switch ev.Type {
		case core.EventAdmit:
			if m := admit(s, ev.Admit); m != nil {
				deployed[ev.Admit.Seq] = m
				sum += s.ObjectiveStdDev()
				n++
			}
		case core.EventRelease:
			if m := deployed[ev.ReleaseSeq]; m != nil {
				if err := s.Release(m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return sum / float64(n)
}

// BenchmarkFatTreeMapping measures HMN on a k=8 fat-tree (128 hosts) —
// a modern multipath fabric far denser than the paper's topologies.
func BenchmarkFatTreeMapping(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	params := workload.PaperClusterParams()
	params.Hosts = 128
	specs := workload.GenerateHosts(params, rng)
	c, err := topology.FatTree(specs, 8, workload.PhysLinkBW, 1)
	if err != nil {
		b.Fatal(err)
	}
	env := workload.GenerateEnv(workload.HighLevelParams(512, 0.01), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&core.HMN{}).Map(c, env); err != nil {
			b.Skipf("instance infeasible: %v", err)
		}
	}
}

// BenchmarkDFSTreeVsAStar contrasts the baseline's uninformed tree
// search with the modified A*Prune on identical torus queries.
func BenchmarkDFSTreeVsAStar(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c, err := topology.Torus2D(specs, 8, 5, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		b.Fatal(err)
	}
	g := c.Net()
	bw := g.NominalBandwidth()
	b.Run("dfs_tree", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		found := 0
		for i := 0; i < b.N; i++ {
			if _, ok := graph.DFSTreePath(g, graph.NodeID(i%40), graph.NodeID((i*7+13)%40), 1, 45, bw, r); ok {
				found++
			}
		}
		if b.N > 0 {
			b.ReportMetric(float64(found)/float64(b.N), "success_rate")
		}
	})
	b.Run("astar_prune", func(b *testing.B) {
		found := 0
		for i := 0; i < b.N; i++ {
			if _, ok := graph.AStarPrune(g, graph.NodeID(i%40), graph.NodeID((i*7+13)%40), 1, 45, bw, nil); ok {
				found++
			}
		}
		if b.N > 0 {
			b.ReportMetric(float64(found)/float64(b.N), "success_rate")
		}
	})
}

// BenchmarkGAMapper measures the memetic GA refinement on a paper-sized
// instance, reporting the objective it reaches (compare the HMN rows of
// BenchmarkTable2).
func BenchmarkGAMapper(b *testing.B) {
	c, env := paperInstance(b)
	obj := -1.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &ga.Mapper{Rand: rand.New(rand.NewSource(1)), Generations: 40}
		m, err := g.Map(c, env)
		if err != nil {
			b.Fatal(err)
		}
		obj = m.Objective(VMMOverhead{})
	}
	b.ReportMetric(obj, "objective")
}

// codecTestbeds are the two hmnperf shapes the serialization benchmarks
// run on: a 40-guest high-level environment on the switched paper
// cluster and a 500-guest low-level one (≈ 2.5 k links) on an 8x8 torus.
var codecTestbeds = []struct {
	name  string
	build func(rng *rand.Rand) (*Cluster, *virtual.Env, error)
}{
	{"switched_40g", func(rng *rand.Rand) (*Cluster, *virtual.Env, error) {
		c, err := topology.Switched(workload.GenerateHosts(workload.PaperClusterParams(), rng), workload.SwitchPorts, workload.PhysLinkBW, workload.PhysLinkLat)
		return c, workload.GenerateEnv(workload.HighLevelParams(40, 0.02), rng), err
	}},
	{"torus_500g", func(rng *rand.Rand) (*Cluster, *virtual.Env, error) {
		p := workload.PaperClusterParams()
		p.Hosts = 64
		c, err := topology.Torus2D(workload.GenerateHosts(p, rng), 8, 8, 10000, 1)
		return c, workload.GenerateEnv(workload.LowLevelParams(500, 0.02), rng), err
	}},
}

// BenchmarkSpecCodec measures the JSON on the admit path at the two
// gated hmnperf workloads' body sizes — a 40-guest high-level
// environment on the switched paper cluster and a 500-guest low-level
// one on the 8x8 torus: decoding the POST body (spec.DecodeStrict
// against the plain strict json.Decoder it falls back to), encoding the
// reply (spec.AppendJSON against the compact and the formerly indented
// json.Encoder) and encoding the admit record's WAL payload
// ((*wal.Record).AppendJSON against json.Marshal, and the record of an
// environment that still carries the compact bytes it arrived in, which
// appends them instead of rendering). It regenerates the codec table of
// DESIGN.md §12; MB/s is over the JSON bytes.
func BenchmarkSpecCodec(b *testing.B) {
	for _, tc := range codecTestbeds {
		c, env, err := tc.build(rand.New(rand.NewSource(9)))
		if err != nil {
			b.Fatal(err)
		}
		m, err := (&core.HMN{}).Map(c, env)
		if err != nil {
			b.Fatal(err)
		}
		req := server.MapEnvRequest{Env: spec.FromEnv(env)}
		resp := server.MapEnvResponse{ID: "e1", Mapping: spec.FromMapping(m, VMMOverhead{})}
		rec := &wal.Record{Kind: wal.KindAdmit, SID: "s1", Index: 1,
			Admit: &wal.AdmitRec{Seq: 1, Tag: "e1", Env: req.Env, M: resp.Mapping}}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		run := func(name string, size int, op func() error) {
			b.Run(tc.name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := op(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		rd := bytes.NewReader(nil)
		run("decode/std", len(body), func() error {
			rd.Reset(body)
			dec := json.NewDecoder(rd)
			dec.DisallowUnknownFields()
			return dec.Decode(new(server.MapEnvRequest))
		})
		run("decode/fast", len(body), func() error {
			rd.Reset(body)
			return spec.DecodeStrict(rd, new(server.MapEnvRequest))
		})
		var arrived server.MapEnvRequest
		if err := spec.DecodeStrict(bytes.NewReader(body), &arrived); err != nil {
			b.Fatal(err)
		}
		run("decode/to_env", len(body), func() error {
			_, err := arrived.Env.ToEnv()
			return err
		})
		var out bytes.Buffer
		reply, _ := spec.AppendJSON(nil, resp)
		run("encode/std_indent", len(reply), func() error {
			out.Reset()
			return spec.WriteIndentedJSON(&out, resp)
		})
		run("encode/std", len(reply), func() error {
			out.Reset()
			return json.NewEncoder(&out).Encode(resp)
		})
		run("encode/fast", len(reply), func() error {
			var err error
			reply, err = spec.AppendJSON(reply[:0], resp)
			return err
		})
		payload, _ := rec.AppendJSON(nil)
		run("wal_record/std", len(payload), func() error {
			_, err := json.Marshal(rec)
			return err
		})
		run("wal_record/fast", len(payload), func() error {
			payload, _ = rec.AppendJSON(payload[:0])
			return nil
		})
		admitted, err := arrived.Env.ToEnv()
		if err != nil {
			b.Fatal(err)
		}
		vrec := *rec
		vrec.Admit = &wal.AdmitRec{Seq: 1, Tag: "e1", Env: spec.FromEnv(admitted), M: resp.Mapping}
		if got, _ := vrec.AppendJSON(nil); admitted.Source() == nil || !bytes.Equal(got, payload) {
			b.Fatalf("%s: the record of a compact json.Marshal body is not the rendered record", tc.name)
		}
		run("wal_record/verbatim", len(payload), func() error {
			payload, _ = vrec.AppendJSON(payload[:0])
			return nil
		})
	}
}

// BenchmarkRecover measures the daemon's recovery pass (wal.Verify: the
// pass of wal.Recover, minus the repairs, so every iteration reads the
// same directory) over a churn log of each hmnperf shape, written once:
// the same environment admitted and released over and over with four
// live, as a commit hook logged it. Next to B/op and allocs/op it reports
// records/s and MB/s of log. The log itself is never held, and an
// admission the log releases is replayed as its effect and never built,
// so B/op is the four survivors' Env and Mapping plus the pass's own
// storage, whatever the length of the log. The …/snapshot case logs the
// same churn into a second directory that is compacted before the last
// eighth of it: recovery restores a snapshot of the four live
// environments, whose size it reports, and replays that eighth.
func BenchmarkRecover(b *testing.B) {
	const live = 4
	for _, tc := range codecTestbeds {
		c, env, err := tc.build(rand.New(rand.NewSource(9)))
		if err != nil {
			b.Fatal(err)
		}
		admits := 200_000 / (env.NumGuests() + env.NumLinks()) // ≈ 20 MB of log either way
		logDir, snapDir := b.TempDir(), b.TempDir()
		var wals []*wal.WAL
		for _, dir := range []string{logDir, snapDir} {
			w, _, err := wal.Recover(dir, wal.Hooks{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			wals = append(wals, w)
		}
		sess, err := core.NewSession(c, VMMOverhead{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		cs := spec.FromCluster(c)
		open := &wal.Record{Kind: wal.KindOpen, SID: "s1", Open: &wal.OpenRec{Cluster: cs}}
		for _, w := range wals {
			if err := w.Append(open); err != nil {
				b.Fatal(err)
			}
		}
		sess.SetCommitHook(func(ev core.Event) {
			rec := wal.RecordFromEvent("s1", VMMOverhead{}, ev)
			for _, w := range wals {
				if err := w.Append(rec); err != nil {
					b.Error(err)
				}
			}
		})
		export := func() ([]wal.SessionSnap, error) {
			return []wal.SessionSnap{wal.ExportSession("s1", cs, "", VMMOverhead{}, 0, sess)}, nil
		}
		var held []*mapping.Mapping
		for i := 0; i < admits; i++ {
			if i == admits-admits/8 {
				if err := wals[1].WriteSnapshot(export); err != nil {
					b.Fatal(err)
				}
			}
			if len(held) == live {
				if err := sess.Release(held[0]); err != nil {
					b.Fatal(err)
				}
				held = held[1:]
			}
			m, err := sess.Map(env)
			if err != nil {
				b.Fatal(err)
			}
			held = append(held, m)
		}
		for _, w := range wals {
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
		for _, run := range []struct{ name, dir string }{{tc.name, logDir}, {tc.name + "/snapshot", snapDir}} {
			b.Run(run.name, func(b *testing.B) {
				b.ReportAllocs()
				var rec *wal.Recovery
				for i := 0; i < b.N; i++ {
					if rec, err = wal.Verify(run.dir, wal.Hooks{}, nil); err != nil {
						b.Fatal(err)
					}
				}
				if len(rec.Sessions) != 1 || rec.Sessions[0].Session.Active() != live {
					b.Fatalf("recovered %d sessions, want one with %d live", len(rec.Sessions), live)
				}
				b.SetBytes(rec.Bytes)
				b.ReportMetric(float64(rec.Records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
				if rec.SnapshotBytes > 0 {
					b.ReportMetric(float64(rec.SnapshotBytes), "snapshot-B")
				}
			})
		}
	}
}

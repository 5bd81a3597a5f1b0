package exp

import (
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/exact"
	"repro/internal/ga"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// The seeded routing digests of the three mappers that route through
// HMN's Networking stage without being HMN: RA, the GA's realisation of
// its winner and the exact solver's greedy feasibility check. Each is
// FNV-64a over the placements and routed edges of a fixed set of
// instances (and, for the solver, its search-tree size, which the
// routing verdicts prune), so a change to the stage they share that
// moves any of their decisions moves a digest.
const (
	goldenRADigest          uint64 = 0xf326d63942a9bff0
	goldenGADigest          uint64 = 0x7ea0c275607688c6
	goldenExactGreedyDigest uint64 = 0x7a0d5c36040d7638
)

// digestPut hashes x as four little-endian bytes.
func digestPut(h hash.Hash64, x int) {
	h.Write([]byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24)})
}

// TestGoldenRADigest maps the quick sweep's first repetition — both
// topologies, every scenario, the low-level ones tight enough that
// tries fail on routing — with RA under the sweep's own seeds and
// retry budget.
func TestGoldenRADigest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scenarios = QuickScenarios()
	const raIndex = 2 // RA's place in the default heuristic list seeds its mapper
	if cfg.Heuristics[raIndex] != "RA" {
		t.Fatalf("default heuristics %v: RA moved", cfg.Heuristics)
	}
	h := fnv.New64a()
	mapped := 0
	for si, sc := range cfg.Scenarios {
		hosts := sc.HostsFor(cfg.Hosts)
		rng := rand.New(rand.NewSource(deriveSeed(cfg.Seed, int64(si), 0, 0)))
		specs := workload.GenerateHosts(clusterParams(hosts), rng)
		env := workload.GenerateEnv(sc.Params(hosts), rng)
		for _, topo := range cfg.Topologies {
			c, err := buildCluster(specs, topo, sc.LinkBWFor(workload.PhysLinkBW), sc.LinkLatFor(workload.PhysLinkLat))
			if err != nil {
				t.Fatal(err)
			}
			m, err := newBaseline("RA", cfg, deriveSeed(cfg.Seed, int64(si), 0, int64(100+raIndex+int(topo)*10))).Map(c, env)
			if err == nil {
				mapped++
			}
			digestMapping(h, m, err)
		}
	}
	if mapped == 0 {
		t.Fatal("RA mapped none of the instances: the digest pins only error texts")
	}
	if got := h.Sum64(); got != goldenRADigest {
		t.Fatalf("RA digest over %d mapped instances = %#x, want %#x: a placement or path moved", mapped, got, goldenRADigest)
	}
}

// gapDigestTestbeds returns the gap experiment's first twelve tiny
// instances twice: as drawn, and on the same hosts re-wired as a ring of
// 3 Mbps, 15 ms links, where links of 0.5–2 Mbps within 20–60 ms often
// find no room or no path short enough — so routing verdicts prune the
// solver's search and send the GA down its fallback list.
func gapDigestTestbeds(t *testing.T) (cs []*cluster.Cluster, envs []*virtual.Env) {
	t.Helper()
	for i := 0; i < 12; i++ {
		c, env := gapTestbed(GapConfig{Hosts: 5, Guests: 8, Seed: 1}, i)
		var specs []topology.HostSpec
		for _, h := range c.Hosts() {
			specs = append(specs, topology.HostSpec{Name: h.Name, Proc: h.Proc, Mem: h.Mem, Stor: h.Stor})
		}
		tight, err := topology.Ring(specs, 3, 15)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c, tight)
		envs = append(envs, env, env)
	}
	return cs, envs
}

// TestGoldenGADigest runs the GA, seeded as the gap experiment seeds
// it, on the gap digest instances.
func TestGoldenGADigest(t *testing.T) {
	cs, envs := gapDigestTestbeds(t)
	h := fnv.New64a()
	for i, c := range cs {
		m, err := (&ga.Mapper{Rand: rand.New(rand.NewSource(1 + int64(i/2)))}).Map(c, envs[i])
		digestMapping(h, m, err)
	}
	if got := h.Sum64(); got != goldenGADigest {
		t.Fatalf("GA digest = %#x, want %#x: a placement or path moved", got, goldenGADigest)
	}
}

// TestGoldenExactGreedyDigest solves the gap digest instances under the
// greedy routing check, hashing the optimal mapping and the number of
// placements explored.
func TestGoldenExactGreedyDigest(t *testing.T) {
	cs, envs := gapDigestTestbeds(t)
	h := fnv.New64a()
	for i, c := range cs {
		res, err := exact.Solve(c, envs[i], exact.Options{Routing: exact.RouteGreedy})
		if err != nil {
			digestMapping(h, nil, err)
			continue
		}
		digestPut(h, int(res.Nodes))
		digestMapping(h, res.Mapping, nil)
	}
	if got := h.Sum64(); got != goldenExactGreedyDigest {
		t.Fatalf("exact greedy digest = %#x, want %#x: a placement, a path or the search moved", got, goldenExactGreedyDigest)
	}
}

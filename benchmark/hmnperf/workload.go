package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// def is one workload: a testbed, a stream of environments and the
// churn the one closed-loop client plays against the daemon. Every
// count below is fixed work — the measured window is a number of
// operations, never a duration — so a seed reproduces the same
// placements, rejects and objective on every run.
type def struct {
	name string
	// fed serves the workload through server.FedServer (4 shards)
	// instead of the classic server.Server.
	fed     bool
	tenants int
	// live is the number of environments the FIFO churn keeps deployed.
	live int
	// pool is the number of distinct environments generated from the
	// seed; the client cycles through them with pre-marshalled bodies.
	pool int
	// warmup is the number of churn operations between prefill and the
	// warm-up/measure boundary (where the crash image is taken). It is
	// sized so that the set-up takes several seconds and a recovery, which
	// replays the warm-up's log, about two.
	warmup int
	// rate is the frozen calibration: operations per requested second
	// of measurement on the 2-core reference box. The window is
	// rate × --seconds operations.
	rate float64
	// failEvery > 0 adds one fail + one restore after every failEvery
	// admit/release pairs.
	failEvery int
	gatewayBW float64
	// sampleEvery validates one admit response in sampleEvery through
	// MappingSpec.ToMapping + Validate.
	sampleEvery int
	// rebalanceProbe runs one POST …/rebalance after the window of a
	// traced run. Off where a round takes seconds (8 s on torus_route's
	// 2000 deployed guests).
	rebalanceProbe bool
	// toy marks the shrunk copy the package test runs.
	toy      bool
	clusters func(rng *rand.Rand) ([]*cluster.Cluster, error)
	env      func(i int, rng *rand.Rand, toy bool) *virtual.Env
}

// shrunk is the workload at toy size: same code paths, a pool and a
// warm-up of a few dozen, and small torus environments.
func (d def) shrunk() def {
	d.toy, d.pool, d.warmup = true, 24, 12
	return d
}

// paperHosts draws the Table 1 host set.
func paperHosts(rng *rand.Rand) []topology.HostSpec {
	return workload.GenerateHosts(workload.PaperClusterParams(), rng)
}

func one(c *cluster.Cluster, err error) ([]*cluster.Cluster, error) {
	return []*cluster.Cluster{c}, err
}

var defs = []def{
	{
		// Small environments on the paper's switched cluster: spec, server
		// and wal do most of each admit, core Networking almost none.
		name:    "switched_churn",
		tenants: 1, live: 6, pool: 2000, warmup: 30000, rate: 5000, sampleEvery: 16, rebalanceProbe: true,
		clusters: func(rng *rand.Rand) ([]*cluster.Cluster, error) {
			return one(topology.Switched(paperHosts(rng), workload.SwitchPorts, workload.PhysLinkBW, workload.PhysLinkLat))
		},
		env: func(_ int, rng *rand.Rand, _ bool) *virtual.Env {
			return workload.GenerateEnv(workload.HighLevelParams(20+rng.Intn(41), 0.02), rng)
		},
	},
	{
		// 500-guest low-level environments on an 8x8 torus (10 Gbps / 1 ms,
		// which avoids latency-diameter infeasibility): A*Prune and the AR
		// cache are most of each admit, HTTP and the WAL a few percent.
		name:    "torus_route",
		tenants: 1, live: 4, pool: 200, warmup: 500, rate: 54, sampleEvery: 1,
		clusters: func(rng *rand.Rand) ([]*cluster.Cluster, error) {
			p := workload.PaperClusterParams()
			p.Hosts = 64
			return one(topology.Torus2D(workload.GenerateHosts(p, rng), 8, 8, 10000, 1))
		},
		env: func(_ int, rng *rand.Rand, toy bool) *virtual.Env {
			guests := 500
			if toy {
				guests = 120
			}
			return workload.GenerateEnv(workload.LowLevelParams(guests, 0.02), rng)
		},
	},
	{
		// 8 tenants over 4 shards of 4x4 torus; every 10th environment is
		// bigger than one shard's headroom, so the router's hash, best-fit
		// and split paths all fire, over the gateway and per-shard WALs.
		name: "fed_churn",
		fed:  true, tenants: 8, live: 12, pool: 1000, warmup: 3000, rate: 730, gatewayBW: 2000, sampleEvery: 8, rebalanceProbe: true,
		clusters: func(rng *rand.Rand) ([]*cluster.Cluster, error) {
			// The exp.federationClusters pool: CPU varies over the paper's
			// range, memory and storage are ample, because the router
			// reserves CPU only.
			out := make([]*cluster.Cluster, 4)
			for k := range out {
				hosts := make([]topology.HostSpec, 16)
				for i := range hosts {
					hosts[i] = topology.HostSpec{
						Name: fmt.Sprintf("h%d", k*16+i),
						Proc: 1000 + 2000*rng.Float64(),
						Mem:  65536, Stor: 100000,
					}
				}
				c, err := topology.Torus2D(hosts, 4, 4, 10000, 1)
				if err != nil {
					return nil, err
				}
				out[k] = c
			}
			return out, nil
		},
		env: func(i int, rng *rand.Rand, _ bool) *virtual.Env {
			guests := 20 + rng.Intn(61)
			if i%10 == 9 {
				guests = 300 + rng.Intn(41)
			}
			return workload.GenerateEnv(workload.HighLevelParams(guests, 0.06), rng)
		},
	},
	{
		// A host or link failure after every admit/release pair on the
		// paper's 5x8 torus: Repair's reroute and re-map, quarantine,
		// AR-cache invalidation, fail records and their replay. 3 live
		// environments of 40-80 guests keep the 40 hosts near 60 % memory;
		// 5 filled them and rejected 96 % of admissions.
		name:    "fail_repair",
		tenants: 1, live: 3, pool: 1000, warmup: 8000, rate: 2200, failEvery: 1, sampleEvery: 4, rebalanceProbe: true,
		clusters: func(rng *rand.Rand) ([]*cluster.Cluster, error) {
			return one(topology.Torus2D(paperHosts(rng), workload.TorusRows, workload.TorusCols, workload.PhysLinkBW, workload.PhysLinkLat))
		},
		env: func(_ int, rng *rand.Rand, _ bool) *virtual.Env {
			return workload.GenerateEnv(workload.HighLevelParams(40+rng.Intn(41), 0.02), rng)
		},
	},
}

// shards is the number of clusters the workload's testbed has.
func (d def) shards() int {
	if d.fed {
		return 4
	}
	return 1
}

func defByName(name string) (def, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return def{}, false
}

// poolEnv is one generated environment with its request body
// marshalled ahead of time, so generation and encoding stay outside
// the timed path.
type poolEnv struct {
	env  *virtual.Env
	body []byte
}

// generated is a workload instantiated from a seed.
type generated struct {
	def      def
	clusters []*cluster.Cluster
	specs    []spec.ClusterSpec
	pool     []poolEnv
}

// testbedSeed fixes the physical clusters. The testbed is the system's
// configuration, not its input: drawn from --seed it moved
// objective_mean by 20 % and accept_ratio between 0.975 and 1 from one
// seed to the next, which no bound could hold. The seed drives what the
// daemon is asked to do — the environment stream.
const testbedSeed = 1

// streamEnv separates the environments' draws of the one seed.
const streamEnv = 0x656e

func deriveSeed(seed int64, parts ...int64) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x7f4a7c15
	for _, p := range parts {
		h ^= uint64(p) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return int64(h >> 1)
}

// generate builds the testbed and draws the environment pool from the
// seed.
func generate(d def, seed int64) (*generated, error) {
	clusters, err := d.clusters(rand.New(rand.NewSource(testbedSeed)))
	if err != nil {
		return nil, fmt.Errorf("%s: build testbed: %w", d.name, err)
	}
	g := &generated{def: d, clusters: clusters, pool: make([]poolEnv, d.pool)}
	for _, c := range clusters {
		g.specs = append(g.specs, spec.FromCluster(c))
	}
	for i := range g.pool {
		env := d.env(i, rand.New(rand.NewSource(deriveSeed(seed, streamEnv, int64(i)))), d.toy)
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(server.MapEnvRequest{Env: spec.FromEnv(env)}); err != nil {
			return nil, fmt.Errorf("%s: marshal env %d: %w", d.name, i, err)
		}
		g.pool[i] = poolEnv{env: env, body: buf.Bytes()}
	}
	return g, nil
}

package exp

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// The federation scenario measures what sharding buys a multi-tester
// testbed: the same TOTAL host pool is served either as one big cluster
// (one lock domain, one ledger) or partitioned into N independent shard
// clusters behind the consistent-hash router. The workload — a churn of
// link-dense environments with a rolling release window — is identical
// in either case. Per-admission mapping cost is superlinear in cluster
// size (every virtual link pays a shortest-path search over the whole
// host graph), so N shards of H/N hosts admit the same stream several
// times faster than one shard of H hosts, on top of the lock-domain
// separation a concurrent front end exploits.

// federationStream tags the scenario's seed derivations.
const federationStream = 0x4645

// FederationConfig parameterises the sharded-throughput scenario.
type FederationConfig struct {
	Hosts  int   // TOTAL hosts across all shards; default 64
	Shards int   // shard count to compare against 1; default 4
	Ops    int   // admissions per run; default 120
	Guests int   // guests per environment; default 20
	Active int   // live environments the churn sustains; default 24
	Seed   int64 // default 1
	// Density is the virtual-link density of the generated environments;
	// default 0.06, dense enough that routing dominates admission cost.
	Density float64
	// GatewayBW budgets split admissions (0 = splits disabled, the
	// default: the scenario measures routed whole-environment admission).
	GatewayBW float64
}

func (cfg FederationConfig) withDefaults() FederationConfig {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 64
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 120
	}
	if cfg.Guests <= 0 {
		cfg.Guests = 20
	}
	if cfg.Active <= 0 {
		cfg.Active = 24
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Density <= 0 {
		cfg.Density = 0.06
	}
	return cfg
}

// FederationRun is one shard count's measurements.
type FederationRun struct {
	Shards          int     `json:"shards" gate:"key"`
	Hosts           int     `json:"hosts" gate:"key"`
	Ops             int     `json:"ops" gate:"key"`
	Admitted        int     `json:"admitted" gate:"count"`
	Failed          int     `json:"failed" gate:"count"`
	Splits          int     `json:"splits" gate:"count"`
	Fallbacks       int     `json:"fallbacks" gate:"count"`
	Seconds         float64 `json:"seconds" gate:"advisory"`
	AdmitsPerSec    float64 `json:"admits_per_sec" gate:"advisory"`
	AdmitP50        float64 `json:"admit_p50_seconds" gate:"advisory"`
	AdmitP99        float64 `json:"admit_p99_seconds" gate:"advisory"`
	PlacementDigest string  `json:"placement_digest" gate:"digest"`
}

// FederationResult compares the shard counts on the same workload.
type FederationResult struct {
	Runs []FederationRun `json:"runs"`
}

// Speedup is the aggregate-throughput ratio of the last run (the
// sharded one) over the first (the single-shard baseline).
func (r FederationResult) Speedup() float64 {
	if len(r.Runs) < 2 || r.Runs[0].AdmitsPerSec == 0 {
		return 0
	}
	return r.Runs[len(r.Runs)-1].AdmitsPerSec / r.Runs[0].AdmitsPerSec
}

// String renders the comparison for the CLI.
func (r FederationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Federation benchmark: fixed host pool partitioned across shards\n")
	fmt.Fprintf(&b, "  shards   hosts/shard   admitted   admits/s   p50 (ms)   p99 (ms)   fallbacks   placement digest\n")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "  %6d   %11d   %8d   %8.1f   %8.3f   %8.3f   %9d   %s\n",
			run.Shards, run.Hosts/run.Shards, run.Admitted, run.AdmitsPerSec,
			1e3*run.AdmitP50, 1e3*run.AdmitP99, run.Fallbacks, run.PlacementDigest)
	}
	if sp := r.Speedup(); sp > 0 {
		fmt.Fprintf(&b, "  aggregate speedup at %d shards: %.2fx\n", r.Runs[len(r.Runs)-1].Shards, sp)
	}
	return b.String()
}

// RunFederation plays the same admission churn at one shard and at
// cfg.Shards shards over the same total host pool.
func RunFederation(cfg FederationConfig) FederationResult {
	cfg = cfg.withDefaults()
	counts := []int{1}
	if cfg.Shards > 1 {
		counts = append(counts, cfg.Shards)
	}
	var res FederationResult
	for _, n := range counts {
		res.Runs = append(res.Runs, federationRun(cfg, n))
	}
	return res
}

// federationClusters partitions one fixed host pool into n equal torus
// shard clusters: host k of the pool lands on shard k/per regardless of
// n, so every shard count serves exactly the same hardware. Host CPU
// varies across the paper's range while memory and storage are
// deliberately ample — the router reserves CPU only, and the testbed
// must keep CPU the binding resource.
func federationClusters(cfg FederationConfig, n int) []*cluster.Cluster {
	per := cfg.Hosts / n
	rng := rand.New(rand.NewSource(deriveSeed(cfg.Seed, federationStream)))
	pool := make([]topology.HostSpec, n*per)
	for i := range pool {
		pool[i] = topology.HostSpec{
			Name: fmt.Sprintf("h%d", i),
			Proc: 1000 + 2000*rng.Float64(),
			Mem:  65536,
			Stor: 100000,
		}
	}
	out := make([]*cluster.Cluster, n)
	rows, cols := torusDims(per)
	for k := range out {
		c, err := topology.Torus2D(pool[k*per:(k+1)*per], rows, cols, 10000, 1)
		if err != nil {
			panic(err)
		}
		out[k] = c
	}
	return out
}

// federationRun plays the deterministic churn on an n-shard federation.
// The schedule is a pure function of cfg.Seed: environment i comes from
// (Seed, federationStream, i), the release order is FIFO once the
// active window fills, and admissions are submitted serially — routing
// happens on the submitting goroutine and each shard executes its
// operations in submission order, so the placement digest is
// byte-identical across reruns of the same seed and shard count.
func federationRun(cfg FederationConfig, n int) FederationRun {
	f, err := shard.New(federationClusters(cfg, n), shard.Config{GatewayBW: cfg.GatewayBW})
	if err != nil {
		panic(err)
	}
	defer f.Close()
	sid, err := f.OpenTenant()
	if err != nil {
		panic(err)
	}

	// Generate the whole environment stream outside the timed loop: the
	// scenario measures admission, not workload synthesis.
	envs := make([]*virtual.Env, cfg.Ops)
	for i := range envs {
		envs[i] = workload.GenerateEnv(workload.HighLevelParams(cfg.Guests, cfg.Density),
			rand.New(rand.NewSource(deriveSeed(cfg.Seed, federationStream, int64(i)))))
	}

	run := FederationRun{Shards: n, Hosts: (cfg.Hosts / n) * n, Ops: cfg.Ops}
	digest := fnv.New64a()
	admitSecs := make([]float64, 0, cfg.Ops)
	var window []string

	start := time.Now() //hmn:wallclock
	for i, env := range envs {
		admitStart := time.Now() //hmn:wallclock
		eid, pl, err := f.Admit(sid, env)
		admitSecs = append(admitSecs, time.Since(admitStart).Seconds()) //hmn:wallclock
		if err != nil {
			if !errors.Is(err, shard.ErrNoShardFits) && !errors.Is(err, shard.ErrGatewayExhausted) {
				panic(err)
			}
			run.Failed++
			continue
		}
		run.Admitted++
		fmt.Fprintf(digest, "%d:%s", i, eid)
		for _, fr := range pl.Fragments {
			fmt.Fprintf(digest, "|s%d", fr.Shard)
			for g, node := range fr.M.GuestHost {
				fmt.Fprintf(digest, " %d=%d", g, node)
			}
		}
		window = append(window, eid)
		// Structure-driven churn: once the window is full, every
		// admission retires the oldest tenant, keeping the federation at
		// a steady occupancy without any wall-clock dependence.
		if len(window) > cfg.Active {
			if err := f.Release(sid, window[0]); err != nil {
				panic(err)
			}
			window = window[1:]
		}
	}
	run.Seconds = time.Since(start).Seconds() //hmn:wallclock

	st := f.Stats()
	run.Splits = int(st.SplitAdmissions)
	run.Fallbacks = int(st.RouterFallbacks)
	if run.Seconds > 0 {
		run.AdmitsPerSec = float64(run.Admitted) / run.Seconds
	}
	run.AdmitP50 = stats.Percentile(admitSecs, 50)
	run.AdmitP99 = stats.Percentile(admitSecs, 99)
	run.PlacementDigest = fmt.Sprintf("%016x", digest.Sum64())
	return run
}

package exp

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// The federation experiment asks what partitioning one host pool into
// shards costs in packing, and how much of that split admission and the
// router's best-fit fallback buy back. One seeded tenant trace is
// submitted in order to three testbeds built from the same 64 hosts:
// one 8x8 torus, four 4x4 shards without a gateway, and the same four
// shards with a gateway that carries split admissions. Every field of a
// row is a count, a moment of the trace or a digest: the experiment is a
// pure function of the seed, and throughput is hmnperf's fed_churn.

// federationStream tags the experiment's seed derivations.
const federationStream = 0x4645

// The scenario, fixed: hmnperf's fed_churn trace on 64 hosts.
const (
	federationHosts   = 64
	federationOps     = 1000 // admissions per row: fed_churn's pool, once
	federationTenants = 8    // tenants submitting round-robin
	federationLive    = 12   // environments the FIFO window keeps live
	federationGateway = 2000 // row (iii)'s gateway budget in Mbps
)

// FederationRun is one testbed's row.
type FederationRun struct {
	Shards int `json:"shards" gate:"key"`
	// GatewayBW is the gateway budget in Mbps; 0 disables split
	// admission.
	GatewayBW float64 `json:"gateway_bw" gate:"key"`
	Ops       int     `json:"ops" gate:"key"`
	Admitted  int     `json:"admitted" gate:"count"`
	Failed    int     `json:"failed" gate:"count"`
	// FirstReject is the number of operations before the first reject
	// (Ops when none was rejected).
	FirstReject int `json:"ops_to_first_reject" gate:"count"`
	// Splits counts split admissions and Fallbacks the admissions the
	// router did not send to the tenant's hashed shard.
	Splits    int `json:"splits" gate:"count"`
	Fallbacks int `json:"fallbacks" gate:"count"`
	// GatewayHeld is the gateway bandwidth the live environments hold
	// when the trace ends and GatewayPeak the most they held after any
	// operation, in Mbps.
	GatewayHeld float64 `json:"gateway_held" gate:"moment"`
	GatewayPeak float64 `json:"gateway_peak" gate:"moment"`
	// ObjectiveMean is Eq. (10) across all 64 hosts, averaged over the
	// states after each operation.
	ObjectiveMean float64 `json:"objective_mean" gate:"moment"`
	// SearchesPerAdmit and PopsPerAdmit are the A*Prune searches and
	// candidates popped by every admission attempt, per admitted
	// environment: the routing work, counted rather than timed.
	SearchesPerAdmit float64 `json:"searches_per_admit" gate:"moment"`
	PopsPerAdmit     float64 `json:"pops_per_admit" gate:"moment"`
	PlacementDigest  string  `json:"placement_digest" gate:"digest"`
}

// FederationResult is the three rows, in the order above.
type FederationResult struct {
	Runs []FederationRun `json:"runs"`
}

// String renders the rows for the CLI.
func (r FederationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Federation: one %d-host pool, %d tenants, FIFO window of %d\n", federationHosts, federationTenants, federationLive)
	fmt.Fprintf(&b, "  shards  gateway   ops  admitted  first reject  splits  fallbacks  held / peak (Mbps)  Eq.(10) mean  searches/admit  pops/admit  placement digest\n")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "  %6d  %7.0f  %4d  %8d  %12d  %6d  %9d  %7.1f / %7.1f  %12.2f  %14.2f  %10.1f  %s\n",
			run.Shards, run.GatewayBW, run.Ops, run.Admitted, run.FirstReject, run.Splits, run.Fallbacks,
			run.GatewayHeld, run.GatewayPeak, run.ObjectiveMean, run.SearchesPerAdmit, run.PopsPerAdmit, run.PlacementDigest)
	}
	return b.String()
}

// RunFederation plays the trace seeded from seed on the three testbeds.
func RunFederation(seed int64) FederationResult {
	return runFederation(seed, federationOps)
}

// runFederation is RunFederation with a trace of ops admissions.
func runFederation(seed int64, ops int) FederationResult {
	return FederationResult{Runs: []FederationRun{
		federationRun(seed, ops, 1, 0),
		federationRun(seed, ops, 4, 0),
		federationRun(seed, ops, 4, federationGateway),
	}}
}

// federationClusters partitions one fixed host pool into n equal torus
// shard clusters: host k of the pool lands on shard k/per regardless of
// n, so every shard count serves exactly the same hardware. Host CPU
// varies across the paper's range while memory and storage are
// deliberately ample — the router reserves CPU only, and the testbed
// must keep CPU the binding resource.
func federationClusters(seed int64, n int) []*cluster.Cluster {
	per := federationHosts / n
	rng := rand.New(rand.NewSource(deriveSeed(seed, federationStream)))
	pool := make([]topology.HostSpec, federationHosts)
	for i := range pool {
		pool[i] = topology.HostSpec{
			Name: fmt.Sprintf("h%d", i),
			// Unfused, so the committed digests hold off amd64 too.
			Proc: 1000 + float64(2000*rng.Float64()),
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

// federationEnv is the trace's i-th environment, fed_churn's: 20-80
// guests, and 300-340 for every 10th, at link density 0.06.
func federationEnv(seed int64, i int) *virtual.Env {
	rng := rand.New(rand.NewSource(deriveSeed(seed, federationStream, int64(i))))
	guests := 20 + rng.Intn(61)
	if i%10 == 9 {
		guests = 300 + rng.Intn(41)
	}
	return workload.GenerateEnv(workload.HighLevelParams(guests, 0.06), rng)
}

// federationRun plays the trace on n shards behind a gateway of gateway
// Mbps. Tenant i mod 8 submits admission i; once more than 12
// environments are live, each admission releases the oldest. The
// operations run serially, so routing and every shard's mapping — and
// with them every field of the row — repeat exactly from the seed.
func federationRun(seed int64, ops, n int, gateway float64) FederationRun {
	var route graph.SearchStats
	f, err := shard.New(federationClusters(seed, n), shard.Config{
		GatewayBW: gateway,
		Hooks:     shard.Hooks{OnAdmit: func(st core.AdmitStats, _ float64) { route.Add(st.Route) }},
	})
	if err != nil {
		panic(err)
	}
	defer f.Close()
	tenants := make([]string, federationTenants)
	for i := range tenants {
		if tenants[i], err = f.OpenTenant(); err != nil {
			panic(err)
		}
	}

	run := FederationRun{Shards: n, GatewayBW: gateway, Ops: ops, FirstReject: ops}
	digest := fnv.New64a()
	type live struct{ sid, eid string }
	var window []live
	residuals := make([]float64, 0, federationHosts)
	objSum := 0.0
	for i := 0; i < ops; i++ {
		sid := tenants[i%federationTenants]
		eid, pl, err := f.Admit(sid, federationEnv(seed, i))
		switch {
		case errors.Is(err, shard.ErrUnknownTenant), errors.Is(err, shard.ErrClosed):
			panic(err)
		case err != nil:
			run.Failed++
			run.FirstReject = min(run.FirstReject, i)
			fmt.Fprintf(digest, "%d:", i)
			digestMapping(digest, nil, err)
		default:
			run.Admitted++
			fmt.Fprintf(digest, "%d:%s", i, eid)
			for _, fr := range pl.Fragments {
				fmt.Fprintf(digest, "|s%d", fr.Shard)
				digestMapping(digest, fr.M, nil)
			}
			window = append(window, live{sid, eid})
			if len(window) > federationLive {
				if err := f.Release(window[0].sid, window[0].eid); err != nil {
					panic(err)
				}
				window = window[1:]
			}
		}
		residuals = residuals[:0]
		for k := 0; k < n; k++ {
			sh, _ := f.Shard(k) // k < n: the shard exists
			residuals = append(residuals, sh.Session().ResidualProc()...)
		}
		objSum += stats.PopStdDev(residuals)
		run.GatewayPeak = max(run.GatewayPeak, f.Stats().GatewayInUse)
	}

	st := f.Stats()
	run.Splits = int(st.SplitAdmissions)
	run.Fallbacks = int(st.RouterFallbacks)
	run.GatewayHeld = st.GatewayInUse
	run.ObjectiveMean = objSum / float64(ops)
	if run.Admitted > 0 {
		run.SearchesPerAdmit = float64(route.Searches) / float64(run.Admitted)
		run.PopsPerAdmit = float64(route.Pops) / float64(run.Admitted)
	}
	run.PlacementDigest = fmt.Sprintf("%016x", digest.Sum64())
	return run
}

package exp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ReservationConfig parameterises the bandwidth-reservation ablation:
// the same mappings' transfers are simulated once at their reserved
// rates (the Eq. 9 service model) and once under best-effort max-min
// sharing of the raw physical links. The comparison quantifies what the
// admission control the paper's constraints encode is worth — and how
// much HMN's co-location (fewer, shorter physical flows) softens the
// difference compared to a random placement.
type ReservationConfig struct {
	Instances int   // default 10
	Hosts     int   // default 40
	Guests    int   // default 200
	Seed      int64 // default 1
	// Workers bounds concurrent instances; 0 means GOMAXPROCS. Any value
	// produces the same result: instances are seeded by index and merged
	// in index order.
	Workers int
}

// ReservationResult aggregates the ablation. Every field repeats
// exactly from the seed, for any worker count.
type ReservationResult struct {
	Instances int `json:"instances" gate:"count"`
	// Mean transfer makespans (seconds) per (mapper, network mode).
	HMNReserved   float64 `json:"hmn_reserved_seconds" gate:"moment"`
	HMNBestEffort float64 `json:"hmn_best_effort_seconds" gate:"moment"`
	RAReserved    float64 `json:"ra_reserved_seconds" gate:"moment"`
	RABestEffort  float64 `json:"ra_best_effort_seconds" gate:"moment"`
	// Mean inter-host flow counts per mapper.
	HMNFlows float64 `json:"hmn_flows" gate:"moment"`
	RAFlows  float64 `json:"ra_flows" gate:"moment"`
	// Worst fair-share-to-reserved rate ratio observed across all flows
	// and instances, per mapper. A value >= 1 certifies that even under
	// best-effort max-min sharing every virtual link would receive at
	// least its emulated bandwidth — the guarantee Eq. 9's admission
	// control encodes.
	HMNMinRateRatio float64 `json:"hmn_min_rate_ratio" gate:"moment"`
	RAMinRateRatio  float64 `json:"ra_min_rate_ratio" gate:"moment"`
}

// String renders the result for the CLI.
func (r ReservationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bandwidth-reservation ablation over %d torus instances\n", r.Instances)
	fmt.Fprintf(&b, "  transfer makespan (s):   reserved   best-effort\n")
	fmt.Fprintf(&b, "    HMN (%5.1f flows)     %9.3f   %11.3f\n", r.HMNFlows, r.HMNReserved, r.HMNBestEffort)
	fmt.Fprintf(&b, "    RA  (%5.1f flows)     %9.3f   %11.3f\n", r.RAFlows, r.RAReserved, r.RABestEffort)
	fmt.Fprintf(&b, "  worst fair-share/reserved rate ratio: HMN %.1f, RA %.1f (>= 1 certifies Eq. 9)\n",
		r.HMNMinRateRatio, r.RAMinRateRatio)
	fmt.Fprintf(&b, "  Reserved paces each transfer at its emulated vbw (fidelity);\n")
	fmt.Fprintf(&b, "  best-effort finishes early by consuming idle physical capacity.\n")
	return b.String()
}

// RunReservations executes the ablation on high-level torus instances.
func RunReservations(cfg ReservationConfig) ReservationResult {
	if cfg.Instances <= 0 {
		cfg.Instances = 10
	}
	if cfg.Hosts <= 0 {
		cfg.Hosts = 40
	}
	if cfg.Guests <= 0 {
		cfg.Guests = 200
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	// Instances run across the worker pool; each derives its generator
	// stream from (Seed, index) alone and fills only its own slot, and
	// the slots fold into the aggregate in index order afterwards, so
	// the result is the same for any worker count.
	outcomes := make([]resOutcome, cfg.Instances)
	forEachIndexed(cfg.Instances, cfg.Workers, func(i int) {
		outcomes[i] = reservationInstance(cfg, i)
	})

	var hmnRes, hmnBE, raRes, raBE, hmnFlows, raFlows []float64
	hmnRatio, raRatio := math.Inf(1), math.Inf(1)
	for _, oc := range outcomes {
		if oc.hmnOK {
			hmnRes = append(hmnRes, oc.hmn.reserved)
			hmnBE = append(hmnBE, oc.hmn.bestEffort)
			hmnFlows = append(hmnFlows, oc.hmn.flows)
			hmnRatio = min(hmnRatio, oc.hmn.worst)
		}
		if oc.raOK {
			raRes = append(raRes, oc.ra.reserved)
			raBE = append(raBE, oc.ra.bestEffort)
			raFlows = append(raFlows, oc.ra.flows)
			raRatio = min(raRatio, oc.ra.worst)
		}
	}
	return ReservationResult{
		Instances:       cfg.Instances,
		HMNReserved:     stats.Mean(hmnRes),
		HMNBestEffort:   stats.Mean(hmnBE),
		RAReserved:      stats.Mean(raRes),
		RABestEffort:    stats.Mean(raBE),
		HMNFlows:        stats.Mean(hmnFlows),
		RAFlows:         stats.Mean(raFlows),
		HMNMinRateRatio: hmnRatio,
		RAMinRateRatio:  raRatio,
	}
}

// resMeasure is one mapper's metrics on one instance.
type resMeasure struct {
	reserved, bestEffort, flows, worst float64
}

// resOutcome is one instance's contribution to a ReservationResult.
type resOutcome struct {
	hmnOK, raOK bool
	hmn, ra     resMeasure
}

// resStream tags the reservation ablation's seed derivations so its
// instances share no stream with any other experiment family.
const resStream = 0x4E57

// reservationInstance draws one torus instance and measures both mappers
// on it. Everything random is derived from (cfg.Seed, i), never from a
// stream shared across instances.
func reservationInstance(cfg ReservationConfig, i int) resOutcome {
	rng := rand.New(rand.NewSource(deriveSeed(cfg.Seed, resStream, int64(i))))
	specs := workload.GenerateHosts(clusterParams(cfg.Hosts), rng)
	c, err := buildCluster(specs, Torus, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		panic(err)
	}
	env := workload.GenerateEnv(workload.HighLevelParams(cfg.Guests, 0.02), rng)

	measure := func(mapper core.Mapper) (resMeasure, bool) {
		m, err := mapper.Map(c, env)
		if err != nil {
			return resMeasure{}, false
		}
		cfgR := sim.ExperimentConfig{BaseSeconds: 0.001, TransferSeconds: 1}
		cfgB := cfgR
		cfgB.Network = sim.BestEffort
		out := resMeasure{
			reserved:   sim.RunExperiment(m, cfgR).TransferMakespan,
			bestEffort: sim.RunExperiment(m, cfgB).TransferMakespan,
			flows:      float64(m.Summarize(cfgR.Overhead).InterHostLinks),
			worst:      math.Inf(1),
		}
		// Fair-share fidelity certificate.
		fl := make([]sim.Flow, env.NumLinks())
		for _, link := range env.Links() {
			fl[link.ID] = sim.Flow{Path: m.LinkPath[link.ID], Data: 1}
		}
		rates := sim.FlowRates(c.Net(), c.Net().NominalBandwidth(), fl)
		for _, link := range env.Links() {
			if link.BW <= 0 {
				continue
			}
			out.worst = min(out.worst, rates[link.ID]/link.BW)
		}
		return out, true
	}

	var oc resOutcome
	oc.hmn, oc.hmnOK = measure(&core.HMN{})
	oc.ra, oc.raOK = measure(&baseline.Random{
		UseAStar: true, Rand: rand.New(rand.NewSource(cfg.Seed + int64(i))), MaxTries: 300,
	})
	return oc
}

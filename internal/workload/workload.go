// Package workload regenerates the paper's experimental inputs (§5.1,
// Table 1): the 40-host heterogeneous cluster with uniformly drawn
// capacities, and the random connected virtual environments of the two
// workload classes — "high-level" (grid/cloud middleware tests: large VMs,
// up to 10 guests per host) and "low-level" (P2P protocol tests: tiny VMs,
// 20-50 guests per host).
//
// All generation is driven by an explicit *rand.Rand so that every
// experiment repetition is reproducible from its seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/topology"
	"repro/internal/virtual"
)

// ClusterParams describes the distribution host capacities are drawn
// from. Ranges are inclusive lower bounds and exclusive upper bounds,
// matching rand's conventions; the paper's "varied uniformly between"
// phrasing does not distinguish the two.
type ClusterParams struct {
	Hosts   int
	ProcMin float64 // MIPS
	ProcMax float64
	MemMin  int64 // MB
	MemMax  int64
	StorMin float64 // GB
	StorMax float64
}

// PaperClusterParams returns the physical-environment column of Table 1:
// 40 hosts, 1000-3000 MIPS, 1-3 GB memory, 1-3 TB storage.
func PaperClusterParams() ClusterParams {
	return ClusterParams{
		Hosts:   40,
		ProcMin: 1000, ProcMax: 3000,
		MemMin: 1024, MemMax: 3072,
		StorMin: 1000, StorMax: 3000,
	}
}

// GenerateHosts draws one HostSpec per host from p using rng. Per §5.1
// the same host set is reused for both cluster topologies of a test, so
// callers generate once and feed the result to several topology builders.
func GenerateHosts(p ClusterParams, rng *rand.Rand) []topology.HostSpec {
	specs := make([]topology.HostSpec, p.Hosts)
	for i := range specs {
		specs[i] = topology.HostSpec{
			Name: fmt.Sprintf("host-%d", i),
			Proc: uniform(rng, p.ProcMin, p.ProcMax),
			Mem:  uniformInt(rng, p.MemMin, p.MemMax),
			Stor: uniform(rng, p.StorMin, p.StorMax),
		}
	}
	return specs
}

// Dist selects the shape of the per-resource draws within their ranges.
// The paper's §5.1 is ambiguous — it says resources were "generated
// randomly, based in a normal distribution" but describes every range as
// "varied uniformly between" its bounds — so both are available; Uniform
// is the default (it matches the per-resource wording and makes range
// assertions exact).
type Dist int

const (
	// Uniform draws uniformly over [min, max).
	Uniform Dist = iota
	// TruncNormal draws from a normal centred on the range midpoint with
	// sigma = range/6 (so ±3 sigma spans the range), re-drawn until it
	// lands inside [min, max).
	TruncNormal
)

// VirtualParams describes the distribution a virtual environment is drawn
// from: the number of guests, the virtual-link graph density, and the
// per-guest and per-link resource ranges.
type VirtualParams struct {
	Guests  int
	Density float64 // fraction of the m(m-1)/2 possible links

	// Dist selects the draw shape for every resource range (default
	// Uniform; see Dist).
	Dist Dist

	ProcMin float64 // MIPS
	ProcMax float64
	MemMin  int64 // MB
	MemMax  int64
	StorMin float64 // GB
	StorMax float64

	BWMin  float64 // Mbps
	BWMax  float64
	LatMin float64 // ms
	LatMax float64
}

// HighLevelParams returns the high-level workload column of Table 1 for
// the given guest count and density: 128-256 MB memory, 100-200 GB
// storage, 50-100 MIPS, 0.5-1 Mbps links with 30-60 ms latency budgets.
// The paper uses this class for guest:host ratios up to 10:1 with
// densities 0.015-0.025.
func HighLevelParams(guests int, density float64) VirtualParams {
	return VirtualParams{
		Guests:  guests,
		Density: density,
		ProcMin: 50, ProcMax: 100,
		MemMin: 128, MemMax: 256,
		StorMin: 100, StorMax: 200,
		BWMin: 0.5, BWMax: 1.0,
		LatMin: 30, LatMax: 60,
	}
}

// LowLevelParams returns the low-level workload column of Table 1 for the
// given guest count and density: 19-38 MB memory, 19-38 GB storage, 19-38
// MIPS, 87-175 kbps links with 30-60 ms latency budgets. The paper uses
// this class for ratios of 20:1 and above with density 0.01.
func LowLevelParams(guests int, density float64) VirtualParams {
	return VirtualParams{
		Guests:  guests,
		Density: density,
		ProcMin: 19, ProcMax: 38,
		MemMin: 19, MemMax: 38,
		StorMin: 19, StorMax: 38,
		BWMin: 0.087, BWMax: 0.175,
		LatMin: 30, LatMax: 60,
	}
}

// GenerateEnv draws a virtual environment from p: guest resources are
// uniform in their ranges, and the virtual-link graph is a uniformly
// random connected graph whose link count is density * m(m-1)/2, but
// never below the m-1 links a connected graph requires (the paper's
// generator "guarantees that the output graph is connected", §5.1).
// Environments with a single guest have no links.
func GenerateEnv(p VirtualParams, rng *rand.Rand) *virtual.Env {
	draw := func(lo, hi float64) float64 { return drawDist(rng, p.Dist, lo, hi) }
	drawInt := func(lo, hi int64) int64 {
		if hi <= lo {
			return lo
		}
		return int64(drawDist(rng, p.Dist, float64(lo), float64(hi)))
	}
	env := virtual.NewEnv()
	for i := 0; i < p.Guests; i++ {
		env.AddGuest(
			fmt.Sprintf("guest-%d", i),
			draw(p.ProcMin, p.ProcMax),
			drawInt(p.MemMin, p.MemMax),
			draw(p.StorMin, p.StorMax),
		)
	}
	m := p.Guests
	if m < 2 {
		return env
	}
	pairs := m * (m - 1) / 2
	want := int(float64(p.Density*float64(pairs)) + 0.5)
	if want < m-1 {
		want = m - 1
	}
	if want > pairs {
		want = pairs
	}

	newLink := func(a, b virtual.GuestID) {
		env.AddLink(a, b,
			draw(p.BWMin, p.BWMax),
			draw(p.LatMin, p.LatMax))
	}

	// Random spanning tree first (connectivity guarantee), then extra
	// uniformly random distinct pairs until the target count is reached.
	have := make(map[[2]virtual.GuestID]bool, want)
	perm := rng.Perm(m)
	for i := 1; i < m; i++ {
		a := virtual.GuestID(perm[i])
		b := virtual.GuestID(perm[rng.Intn(i)])
		newLink(a, b)
		have[pairKey(a, b)] = true
	}
	for env.NumLinks() < want {
		a := virtual.GuestID(rng.Intn(m))
		b := virtual.GuestID(rng.Intn(m))
		if a == b {
			continue
		}
		k := pairKey(a, b)
		if have[k] {
			continue
		}
		have[k] = true
		newLink(a, b)
	}
	return env
}

func pairKey(a, b virtual.GuestID) [2]virtual.GuestID {
	if a > b {
		a, b = b, a
	}
	return [2]virtual.GuestID{a, b}
}

// drawDist samples within [lo, hi) under the requested distribution.
func drawDist(rng *rand.Rand, d Dist, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	if d == TruncNormal {
		mid := float64((lo + hi) / 2) // /2 compiles to *0.5, fusable with the add below
		sigma := (hi - lo) / 6
		for {
			x := float64(rng.NormFloat64()*sigma) + mid
			if x >= lo && x < hi {
				return x
			}
		}
	}
	return lo + float64(rng.Float64()*(hi-lo))
}

func uniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + float64(rng.Float64()*(hi-lo))
}

func uniformInt(rng *rand.Rand, lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + rng.Int63n(hi-lo)
}

// PhysLinkBW and PhysLinkLat are the physical interconnect parameters of
// Table 1: 1 Gbps links with 5 ms latency, for both cluster topologies.
const (
	PhysLinkBW  = 1000.0 // Mbps
	PhysLinkLat = 5.0    // ms
)

// SwitchPorts is the port count of the cascaded switches in the paper's
// switched topology (§5.1).
const SwitchPorts = 64

// TorusRows and TorusCols factor the 40-host cluster into the 2-D torus
// used throughout the evaluation.
const (
	TorusRows = 8
	TorusCols = 5
)

package sim

import (
	"math"
	"sort"

	"repro/internal/graph"
)

// NetworkMode selects how the emulated experiment's transfers use the
// physical links.
type NetworkMode int

const (
	// Reserved moves every transfer at its virtual link's reserved
	// bandwidth — the service the mapping's admission control (Eq. 9)
	// guarantees.
	Reserved NetworkMode = iota
	// BestEffort lets concurrent transfers share the raw physical links
	// max-min fairly with no reservations.
	BestEffort
)

// Flow is one data transfer over a fixed physical path: Data Mbit moved
// along Path. A zero-hop (intra-host) path transfers instantly.
type Flow struct {
	Path graph.Path
	Data float64 // Mbit
}

// SimulateFlows runs the flows concurrently from time zero under
// *max-min fair* bandwidth sharing of the physical links — the
// best-effort network model, in contrast to the reserved-bandwidth model
// the mapping guarantees (Eq. 9). It returns each flow's completion time
// in seconds (path latency plus transfer).
//
// Rates are recomputed by progressive filling at every flow completion:
// repeatedly find the link with the smallest fair share among its
// unfixed flows, fix those flows at that share, and deduct. This is the
// classic water-filling characterisation of max-min fairness; the
// simulation is event-driven and exact.
//
// capacity[e] is edge e's bandwidth in Mbps. Flows whose path has
// no edges complete after their latency only. A flow crossing a
// zero-capacity edge never completes (+Inf).
func SimulateFlows(net *graph.Graph, capacity []float64, flows []Flow) []float64 {
	n := len(flows)
	done := make([]float64, n)
	remaining := make([]float64, n)
	active := make([]bool, n)
	latency := make([]float64, n)

	activeCount := 0
	for i, f := range flows {
		latency[i] = f.Path.Latency(net) / 1000.0
		if f.Path.Len() == 0 || f.Data <= 0 {
			done[i] = latency[i]
			continue
		}
		remaining[i] = f.Data
		active[i] = true
		activeCount++
	}

	now := 0.0
	for activeCount > 0 {
		rates := maxMinRates(net, capacity, flows, active)
		// Earliest completion under the current rates.
		soonest := math.Inf(1)
		for i := range flows {
			if !active[i] {
				continue
			}
			if rates[i] <= 0 {
				continue // starved: a zero-capacity edge
			}
			if eta := remaining[i] / rates[i]; eta < soonest {
				soonest = eta
			}
		}
		if math.IsInf(soonest, 1) {
			// Every remaining flow is starved.
			for i := range flows {
				if active[i] {
					done[i] = math.Inf(1)
					active[i] = false
				}
			}
			break
		}
		now += soonest
		for i := range flows {
			if !active[i] || rates[i] <= 0 {
				continue
			}
			remaining[i] -= rates[i] * soonest
			if remaining[i] < 1e-9 {
				remaining[i] = 0
				active[i] = false
				activeCount--
				done[i] = now + latency[i]
			}
		}
	}
	return done
}

// FlowRates returns the max-min fair rate (Mbps) each flow would receive
// if all flows ran concurrently — the t=0 allocation of SimulateFlows.
// Zero-hop flows get +Inf. Exposed so callers can certify that a
// mapping's reserved rates survive fair sharing (every returned rate of
// a valid mapping is at least its virtual link's vbw, because Eq. 9
// bounds the aggregate demand on every physical link).
func FlowRates(net *graph.Graph, capacity []float64, flows []Flow) []float64 {
	active := make([]bool, len(flows))
	for i, f := range flows {
		active[i] = f.Path.Len() > 0
	}
	rates := maxMinRates(net, capacity, flows, active)
	for i := range flows {
		if flows[i].Path.Len() == 0 {
			rates[i] = math.Inf(1)
		}
	}
	return rates
}

// maxMinRates computes the max-min fair rate allocation for the active
// flows by progressive filling.
func maxMinRates(net *graph.Graph, capacity []float64, flows []Flow, active []bool) []float64 {
	rates := make([]float64, len(flows))
	fixed := make([]bool, len(flows))

	// Per-edge remaining capacity and unfixed flow lists.
	edgeFlows := make(map[int][]int)
	edgeCap := make(map[int]float64)
	unfixedOn := make(map[int]int)
	for i, f := range flows {
		if !active[i] {
			fixed[i] = true
			continue
		}
		for _, eid := range f.Path.Edges {
			if _, ok := edgeCap[eid]; !ok {
				edgeCap[eid] = capacity[eid]
			}
			edgeFlows[eid] = append(edgeFlows[eid], i)
			unfixedOn[eid]++
		}
	}

	// The bottleneck scan must visit edges in a fixed order: ranging over
	// the map would break ties between equally-bottlenecked edges
	// randomly, and with them the floating-point deduction order — the
	// allocation would differ between runs at the ULP level.
	edges := make([]int, 0, len(edgeCap))
	for eid := range edgeCap {
		edges = append(edges, eid)
	}
	sort.Ints(edges)

	for {
		// Bottleneck edge: smallest fair share among unfixed flows, ties
		// to the lowest edge ID.
		bottleneck := -1
		share := math.Inf(1)
		for _, eid := range edges {
			cnt := unfixedOn[eid]
			if cnt == 0 {
				continue
			}
			if s := edgeCap[eid] / float64(cnt); s < share {
				share = s
				bottleneck = eid
			}
		}
		if bottleneck == -1 {
			break // every flow fixed (or no edges at all)
		}
		// Fix the bottleneck's unfixed flows at the fair share and deduct
		// their consumption everywhere.
		for _, i := range edgeFlows[bottleneck] {
			if fixed[i] {
				continue
			}
			fixed[i] = true
			rates[i] = share
			for _, eid := range flows[i].Path.Edges {
				edgeCap[eid] -= share
				if edgeCap[eid] < 0 {
					edgeCap[eid] = 0
				}
				unfixedOn[eid]--
			}
		}
	}
	return rates
}

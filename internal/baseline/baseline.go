// Package baseline implements the three comparison heuristics of the
// paper's evaluation (§5):
//
//   - Random (R): guests are placed on uniformly random fitting hosts and
//     every virtual link is routed with a randomized constrained
//     depth-first search; the *whole* mapping is retried until it
//     succeeds or the try budget (100 000 in the paper) is exhausted.
//   - Random+A*Prune (RA): random placement as above, but links are
//     routed with the modified A*Prune of HMN's Networking stage.
//   - Hosting+Search (HS): HMN's deterministic Hosting stage places the
//     guests once, then randomized DFS routes the links; only the link
//     stage is retried. The paper singles this asymmetry out to explain
//     HS's much higher failure count: "in the Random approach, both
//     mapping of guests and of virtual links were retried, while in
//     [HS] only the last one were retried" (§5.2).
//
// All three satisfy the same constraints as HMN and are counted as failed
// exactly when the paper counts them as failed, so the experiment harness
// can reproduce Table 2's failure row.
package baseline

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// DefaultMaxTries is the paper's retry budget: "The random algorithm
// fails if it cannot find a valid mapping after 100000 tries" (§5).
const DefaultMaxTries = 100000

// ErrRetriesExhausted is returned when no valid mapping was found within
// the try budget.
var ErrRetriesExhausted = errors.New("baseline: retry budget exhausted without a valid mapping")

// Random is the paper's R heuristic: random placement + randomized DFS
// routing, whole-mapping retries.
type Random struct {
	// Overhead is deducted from every host before mapping (§3.1).
	Overhead cluster.VMMOverhead
	// MaxTries bounds the number of whole-mapping attempts;
	// 0 means DefaultMaxTries.
	MaxTries int
	// Rand drives placement and DFS order. nil seeds a fixed source.
	Rand *rand.Rand
	// UseAStar switches link routing from randomized DFS to the modified
	// A*Prune, turning R into RA.
	UseAStar bool
}

// Name implements core.Mapper.
func (r *Random) Name() string {
	if r.UseAStar {
		return "RA"
	}
	return "R"
}

// Map implements core.Mapper.
func (r *Random) Map(c *cluster.Cluster, v *virtual.Env) (*mapping.Mapping, error) {
	rng := r.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	tries := r.MaxTries
	if tries <= 0 {
		tries = DefaultMaxTries
	}
	for try := 0; try < tries; try++ {
		led, err := cluster.NewLedger(c, r.Overhead)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name(), err)
		}
		m := mapping.New(c, v)
		if !randomPlacement(led, v, m.GuestHost, rng) {
			continue
		}
		var ok bool
		if r.UseAStar {
			// RA is exactly "random placement + HMN networking".
			ok = core.RouteLinks(led, v, m.GuestHost, m.LinkPath) == nil
		} else {
			ok = routeDFS(led, v, m.GuestHost, m.LinkPath, rng)
		}
		if ok {
			return m, nil
		}
	}
	return nil, fmt.Errorf("%s after %d tries: %w", r.Name(), tries, ErrRetriesExhausted)
}

// HostingSearch is the paper's HS heuristic: HMN's Hosting stage places
// the guests (once — it is deterministic), then randomized DFS routes the
// links, retrying only the link stage.
type HostingSearch struct {
	// Overhead is deducted from every host before mapping (§3.1).
	Overhead cluster.VMMOverhead
	// MaxTries bounds the number of link-stage attempts;
	// 0 means DefaultMaxTries.
	MaxTries int
	// Rand drives the DFS order. nil seeds a fixed source.
	Rand *rand.Rand
}

// Name implements core.Mapper.
func (h *HostingSearch) Name() string { return "HS" }

// Map implements core.Mapper.
func (h *HostingSearch) Map(c *cluster.Cluster, v *virtual.Env) (*mapping.Mapping, error) {
	rng := h.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	tries := h.MaxTries
	if tries <= 0 {
		tries = DefaultMaxTries
	}
	// Hosting runs once: it is deterministic, so retrying it is pointless
	// — precisely the weakness §5.2 attributes to HS.
	base, err := cluster.NewLedger(c, h.Overhead)
	if err != nil {
		return nil, fmt.Errorf("HS: %w", err)
	}
	m := mapping.New(c, v)
	if err := core.HostingStage(base, v, m.GuestHost); err != nil {
		return nil, fmt.Errorf("HS hosting stage: %w", err)
	}
	for try := 0; try < tries; try++ {
		led := base.Clone()
		if routeDFS(led, v, m.GuestHost, m.LinkPath, rng) {
			return m, nil
		}
	}
	return nil, fmt.Errorf("HS after %d tries: %w", tries, ErrRetriesExhausted)
}

// randomPlacement assigns every guest to a uniformly random host among
// those that currently fit it, reserving as it goes. Returns false when
// some guest fits nowhere (the try fails).
func randomPlacement(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, rng *rand.Rand) bool {
	hosts := led.Cluster().HostNodes()
	fitting := make([]graph.NodeID, 0, len(hosts))
	for _, g := range v.Guests() {
		fitting = fitting[:0]
		for _, n := range hosts {
			if led.Fits(n, g.Mem, g.Stor) {
				fitting = append(fitting, n)
			}
		}
		if len(fitting) == 0 {
			return false
		}
		node := fitting[rng.Intn(len(fitting))]
		if err := led.ReserveGuest(node, g.Proc, g.Mem, g.Stor); err != nil {
			return false // unreachable: Fits was just checked
		}
		assign[g.ID] = node
	}
	return true
}

// routeDFS routes every link with the uninformed randomized DFS-tree
// search in link-ID order (the random baselines impose no bandwidth
// ordering and no bottleneck optimisation). Returns false on the first
// unroutable link. The tree search is incomplete by design — it is the
// paper's baseline, not a solver — so a failure here does not mean no
// path exists, only that this try did not find one.
func routeDFS(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path, rng *rand.Rand) bool {
	net := led.Cluster().Net()
	bw := led.Residuals()
	for _, link := range v.Links() {
		src, dst := assign[link.From], assign[link.To]
		if src == dst {
			paths[link.ID] = graph.TrivialPath(src)
			continue
		}
		p, ok := graph.DFSTreePath(net, src, dst, link.BW, link.Lat, bw, rng)
		if !ok {
			return false
		}
		if err := led.ReserveBandwidth(p, link.BW); err != nil {
			return false // unreachable: DFS checked the same ledger view
		}
		paths[link.ID] = p
	}
	return true
}

var (
	_ core.Mapper = (*Random)(nil)
	_ core.Mapper = (*HostingSearch)(nil)
)

package core

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// Consolidator is the paper's §6 future-work variant of HMN: "one could
// be interested in a mapping whose goal is to minimize the amount of
// hosts used in each emulation". It reuses HMN's Hosting and Networking
// stages but replaces the Migration stage with a consolidation stage that
// empties lightly used hosts by best-fit repacking of their guests, so an
// emulator can power the freed hosts down or hand them to another tester.
//
// All hard constraints of §3.2 still hold; only the optimisation goal
// changes. The zero value is a valid configuration.
type Consolidator struct {
	// Overhead is deducted from every host before mapping (§3.1).
	Overhead cluster.VMMOverhead
	// AStar tunes the Networking stage's A*Prune search.
	AStar graph.AStarPruneOptions
	// MaxPasses caps consolidation sweeps; 0 means run until no host can
	// be emptied.
	MaxPasses int
}

// Name implements Mapper.
func (x *Consolidator) Name() string { return "HMN-C" }

// Map places the guests with HMN's Hosting stage, consolidates them onto
// as few hosts as possible, and routes the virtual links with the
// Networking stage.
func (x *Consolidator) Map(c *cluster.Cluster, v *virtual.Env) (*mapping.Mapping, error) {
	m, _, err := mapOnce(x, x.Overhead, c, v, newARCache())
	return m, err
}

// stageOptions implements stagedMapper: the paper's Hosting and
// Networking, with the caller's A*Prune tuning.
func (x *Consolidator) stageOptions() stageOptions {
	return stageOptions{hostResort: true, order: OrderDescendingBW, astar: x.AStar}
}

// stage2 is the consolidation stage; st.Moves counts the hosts emptied.
func (x *Consolidator) stage2(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, hi *hostIndex, _ *mapScratch, st *MigrationStats) {
	st.Moves = consolidate(led, v, assign, x.MaxPasses, hi)
}

// consolidate empties hosts one at a time: it repeatedly selects the
// non-empty host with the fewest guests and tries to re-place every one
// of its guests onto other already-used hosts, best-fit (tightest
// remaining memory first) to preserve packing headroom. A host is only
// emptied atomically — if any of its guests fits nowhere else, the host
// keeps all of them. The sweep repeats until no host can be emptied (or
// maxPasses is hit). Returns the number of hosts emptied.
//
// hi is the Hosting stage's live host index: the ledger hook keeps it
// consistent through every repack move, and receiver scans walk its
// deterministic slice instead of ranging a map.
func consolidate(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, maxPasses int, hi *hostIndex) int {
	onHost := make(map[graph.NodeID][]virtual.GuestID)
	for g, node := range assign {
		onHost[node] = append(onHost[node], virtual.GuestID(g))
	}

	emptied := 0
	passes := 0
	for {
		passes++
		if maxPasses > 0 && passes > maxPasses {
			return emptied
		}

		// Candidate donors: non-empty hosts, fewest guests first (ties by
		// node ID for determinism).
		var donors []graph.NodeID
		for node, gs := range onHost {
			if len(gs) > 0 {
				donors = append(donors, node)
			}
		}
		sort.Slice(donors, func(i, j int) bool {
			a, b := len(onHost[donors[i]]), len(onHost[donors[j]])
			if a != b {
				return a < b
			}
			return donors[i] < donors[j]
		})

		movedAny := false
		for _, donor := range donors {
			if tryEmptyHost(led, v, assign, onHost, donor, hi) {
				emptied++
				movedAny = true
				break // donor set changed; re-rank
			}
		}
		if !movedAny {
			return emptied
		}
	}
}

// tryEmptyHost attempts to move every guest off donor onto other
// non-empty hosts. The relocation is atomic: on any failure all tentative
// moves are rolled back. The receiver scan walks the host index's slice;
// the best-fit winner does not depend on its order because the (slack,
// node) selection key is a total order.
func tryEmptyHost(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, onHost map[graph.NodeID][]virtual.GuestID, donor graph.NodeID, hi *hostIndex) bool {
	guests := append([]virtual.GuestID(nil), onHost[donor]...)
	// Biggest guests first: the standard best-fit-decreasing order.
	sort.Slice(guests, func(i, j int) bool {
		a, b := v.Guest(guests[i]), v.Guest(guests[j])
		if a.Mem != b.Mem {
			return a.Mem > b.Mem
		}
		return guests[i] < guests[j]
	})

	type move struct {
		g    virtual.GuestID
		dest graph.NodeID
	}
	var moves []move
	rollback := func() {
		for _, mv := range moves {
			guest := v.Guest(mv.g)
			led.ReleaseGuest(mv.dest, guest.Proc, guest.Mem, guest.Stor)
			mustReserve(led, donor, guest)
		}
	}

	for _, gid := range guests {
		guest := v.Guest(gid)
		// Receivers: other non-empty hosts, tightest fitting memory
		// first (best fit).
		var best graph.NodeID = -1
		var bestSlack int64
		for _, node := range hi.order {
			if node == donor || len(onHost[node]) == 0 || !led.Fits(node, guest.Mem, guest.Stor) {
				continue
			}
			slack := led.ResidualMem(node) - guest.Mem
			if best == -1 || slack < bestSlack || (slack == bestSlack && node < best) {
				best, bestSlack = node, slack
			}
		}
		if best == -1 {
			rollback()
			return false
		}
		led.ReleaseGuest(donor, guest.Proc, guest.Mem, guest.Stor)
		if err := led.ReserveGuest(best, guest.Proc, guest.Mem, guest.Stor); err != nil {
			mustReserve(led, donor, guest)
			rollback()
			return false
		}
		moves = append(moves, move{gid, best})
	}

	// Commit.
	for _, mv := range moves {
		assign[mv.g] = mv.dest
		onHost[mv.dest] = append(onHost[mv.dest], mv.g)
	}
	onHost[donor] = onHost[donor][:0]
	return true
}

// HostsUsed counts the hosts carrying at least one guest under assign.
func HostsUsed(assign []graph.NodeID) int {
	used := map[graph.NodeID]bool{}
	for _, node := range assign {
		if node != mapping.Unassigned {
			used[node] = true
		}
	}
	return len(used)
}

var _ stagedMapper = (*Consolidator)(nil)

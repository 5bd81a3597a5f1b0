package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// hosting is HMN stage 1 (§4.1): a preliminary assignment of guests to
// hosts that co-locates the endpoints of high-bandwidth virtual links.
// links is every virtual link of v in descending bandwidth order
// (sortLinksByBW); the host index keeps the hosts in descending
// residual-CPU order across every placement. Guests touched by no
// virtual link are placed afterwards by the same first-fit rule. assign
// entries must start as mapping.Unassigned; on success every entry holds
// a host node and the ledger reflects all reservations.
func hosting(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, hi *hostIndex, links []virtual.Link) error {
	for _, link := range links {
		a, b := v.Guest(link.From), v.Guest(link.To)
		aDone := assign[a.ID] != mapping.Unassigned
		bDone := assign[b.ID] != mapping.Unassigned
		switch {
		case aDone && bDone:
			continue

		case !aDone && !bDone:
			// Try the first host for both guests together.
			if node, ok := hi.firstFit(both(a, b), nil); ok {
				// The index moves between the two reservations, but both
				// target the explicit node, so the order change is
				// harmless.
				hi.place(node, a, assign)
				hi.place(node, b, assign)
				continue
			}
			// Split: the most CPU-intensive guest goes to the first host
			// that fits it, the other to the next host after that one.
			first, second := a, b
			if second.Proc > first.Proc {
				first, second = second, first
			}
			n1, ok := hi.firstFit(first, nil)
			if !ok {
				return fmt.Errorf("%w: guest %q (%dMB/%gGB)", ErrNoHostFits, first.Name, first.Mem, first.Stor)
			}
			n2, ok := hi.firstFitAfter(second, n1)
			if !ok {
				return fmt.Errorf("%w: guest %q (%dMB/%gGB)", ErrNoHostFits, second.Name, second.Mem, second.Stor)
			}
			hi.place(n1, first, assign)
			hi.place(n2, second, assign)

		default:
			// Exactly one endpoint assigned: pull the other to the same
			// host when it fits, else first-fit anywhere.
			placed, missing := a, b
			if !aDone {
				placed, missing = b, a
			}
			target := assign[placed.ID]
			if !led.Fits(target, missing.Mem, missing.Stor) {
				var ok bool
				target, ok = hi.firstFit(missing, nil)
				if !ok {
					return fmt.Errorf("%w: guest %q (%dMB/%gGB)", ErrNoHostFits, missing.Name, missing.Mem, missing.Stor)
				}
			}
			hi.place(target, missing, assign)
		}
	}

	// Isolated guests (no virtual links) still need a home.
	for _, g := range v.Guests() {
		if assign[g.ID] != mapping.Unassigned {
			continue
		}
		node, ok := hi.firstFit(g, nil)
		if !ok {
			return fmt.Errorf("%w: guest %q (%dMB/%gGB)", ErrNoHostFits, g.Name, g.Mem, g.Stor)
		}
		hi.place(node, g, assign)
	}
	return nil
}

// both aggregates the demands of two guests so firstFit can test whether
// a single host holds the pair. The pair needs no name: the fit tests
// read only the resource fields, and errors always name a real guest —
// concatenating names here was a per-pair allocation on the hot path.
func both(a, b virtual.Guest) virtual.Guest {
	return virtual.Guest{
		Proc: a.Proc + b.Proc,
		Mem:  a.Mem + b.Mem,
		Stor: a.Stor + b.Stor,
	}
}

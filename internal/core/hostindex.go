package core

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/virtual"
)

// hostIndex maintains the Hosting stage's ordered view of the hosts —
// descending residual CPU, ties broken by node ID (§4.1) — incrementally
// instead of re-sorting after every placement. It registers itself as the
// ledger's proc hook, so *any* residual-CPU mutation (a Hosting
// placement, a Migration move, a repair re-map)
// repositions exactly the host that changed: one binary search plus a
// block shift, O(log H + d) for displacement d, against the seed's
// O(H log H) full resort per placement.
//
// The key (residual desc, node asc) is a strict total order, so the
// incrementally maintained permutation is byte-identical to what the old
// full stable re-sort produced.
//
// The index lives for one mapping attempt on one ledger; callers attach
// it via newHostIndex and must detach the hook (led.SetProcHook(nil))
// when the attempt ends. Like the ledger itself it is single-owner state
// under the session capability: never shared across goroutines.
type hostIndex struct {
	led *cluster.Ledger
	// order holds every host node, descending residual CPU, node ID
	// ascending on ties.
	order []graph.NodeID
	// pos maps dense host index -> position in order.
	pos []int
	// nodeOf maps dense host index -> graph node, so hook callbacks need
	// no cluster lookup.
	nodeOf []graph.NodeID
}

// newHostIndex builds the order from the ledger's current residuals and
// attaches the index to the ledger's proc hook. The order/pos/nodeOf
// arrays come from ms, so repeated admissions reuse them; the hostIndex
// struct itself is one small allocation per attempt.
func newHostIndex(led *cluster.Ledger, ms *mapScratch) *hostIndex {
	c := led.Cluster()
	ms.hiOrder = sized(ms.hiOrder, c.NumHosts())
	ms.hiPos = sized(ms.hiPos, c.NumHosts())
	ms.hiNode = sized(ms.hiNode, c.NumHosts())
	for i, h := range c.Hosts() {
		ms.hiOrder[i] = h.Node
		ms.hiNode[i] = h.Node
	}
	hi := &hostIndex{led: led, order: ms.hiOrder, pos: ms.hiPos, nodeOf: ms.hiNode}
	slices.SortFunc(hi.order, func(a, b graph.NodeID) int {
		ra, rb := led.ResidualProc(a), led.ResidualProc(b)
		if ra != rb {
			if ra > rb {
				return -1
			}
			return 1
		}
		return int(a) - int(b)
	})
	for p, n := range hi.order {
		hi.pos[c.HostIdx(n)] = p
	}
	led.SetProcHook(hi.fix)
	return hi
}

// fix repositions the host with dense index i after its residual CPU
// changed. Invariant on entry: every host except i is in order. The new
// position is found by binary search over the order with i conceptually
// removed (which is sorted), then the gap is closed with one block copy.
func (hi *hostIndex) fix(i int) {
	ord := hi.order
	p := hi.pos[i]
	node := hi.nodeOf[i]
	r := hi.led.ResidualProc(node)

	// q = number of other hosts sorting strictly before node = its final
	// position. Conceptual index m of the self-removed array maps to
	// ord[m] for m < p and ord[m+1] otherwise.
	lo, hiB := 0, len(ord)-1
	for lo < hiB {
		mid := (lo + hiB) / 2
		other := ord[mid]
		if mid >= p {
			other = ord[mid+1]
		}
		ro := hi.led.ResidualProc(other)
		if ro > r || (ro == r && other < node) {
			lo = mid + 1
		} else {
			hiB = mid
		}
	}
	q := lo
	if q == p {
		return
	}
	c := hi.led.Cluster()
	if q > p {
		copy(ord[p:q], ord[p+1:q+1])
	} else {
		copy(ord[q+1:p+1], ord[q:p])
	}
	ord[q] = node
	for k := min(p, q); k <= max(p, q); k++ {
		hi.pos[c.HostIdx(ord[k])] = k
	}
}

// place reserves guest g on node; the proc hook repositions the host.
func (hi *hostIndex) place(node graph.NodeID, g virtual.Guest, assign []graph.NodeID) {
	// Reservation cannot fail: callers check Fits first, and CPU is not
	// a constraint.
	if err := hi.led.ReserveGuest(node, g.Proc, g.Mem, g.Stor); err != nil {
		panic(fmt.Sprintf("core: placement after Fits check failed: %v", err))
	}
	assign[g.ID] = node
}

// firstFit returns the first host in index order that fits g, skipping
// hosts in the skip set, or false when none does.
func (hi *hostIndex) firstFit(g virtual.Guest, skip map[graph.NodeID]bool) (graph.NodeID, bool) {
	for _, node := range hi.order {
		if skip != nil && skip[node] {
			continue
		}
		if hi.led.Fits(node, g.Mem, g.Stor) {
			return node, true
		}
	}
	return graph.NodeID(0), false
}

// firstFitAfter returns the first host that fits g strictly after the
// position of node `after` in the current order, or false. This
// implements §4.1's "the second guest is assigned to the next host which
// the guest fits in".
func (hi *hostIndex) firstFitAfter(g virtual.Guest, after graph.NodeID) (graph.NodeID, bool) {
	idx := hi.pos[hi.led.Cluster().HostIdx(after)]
	for i := idx + 1; i < len(hi.order); i++ {
		if hi.led.Fits(hi.order[i], g.Mem, g.Stor) {
			return hi.order[i], true
		}
	}
	return graph.NodeID(0), false
}

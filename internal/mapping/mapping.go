// Package mapping defines the output of the mapping problem (§3.2): the
// assignment of every guest to a host (the G_i sets) and of every virtual
// link to a loop-free physical path (the P_j sequences), together with a
// from-scratch validator for the formal constraints Eq. (1)-(9) and the
// load-balance objective function Eq. (10)-(12).
//
// The validator recomputes everything from the cluster, the virtual
// environment and the mapping alone — it shares no state with the
// heuristics that produced the mapping, so it doubles as the oracle the
// test suite checks every mapper against.
package mapping

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/virtual"
)

// Unassigned marks a guest that has not been placed yet.
const Unassigned graph.NodeID = -1

// Mapping records where every guest runs and which physical path carries
// every virtual link. GuestHost is indexed by virtual.GuestID; LinkPath by
// virtual link ID. A virtual link whose endpoints share a host carries the
// trivial path (zero hops) — per §3.2 it consumes no physical resources.
type Mapping struct {
	Cluster *cluster.Cluster
	Env     *virtual.Env

	GuestHost []graph.NodeID
	LinkPath  []graph.Path
}

// New returns a mapping with every guest unassigned and every link
// path empty.
func New(c *cluster.Cluster, v *virtual.Env) *Mapping {
	m := &Mapping{
		Cluster:   c,
		Env:       v,
		GuestHost: make([]graph.NodeID, v.NumGuests()),
		LinkPath:  make([]graph.Path, v.NumLinks()),
	}
	for i := range m.GuestHost {
		m.GuestHost[i] = Unassigned
	}
	return m
}

// HostOf returns the host node guest g is assigned to, or Unassigned.
func (m *Mapping) HostOf(g virtual.GuestID) graph.NodeID { return m.GuestHost[g] }

// GuestsOn returns the IDs of the guests assigned to host node, in guest
// ID order — one G_i set of Eq. (1).
func (m *Mapping) GuestsOn(node graph.NodeID) []virtual.GuestID {
	var out []virtual.GuestID
	for g, h := range m.GuestHost {
		if h == node {
			out = append(out, virtual.GuestID(g))
		}
	}
	return out
}

// ResidualProc returns the residual CPU of every host after deducting the
// VMM overhead and the demands of the guests assigned to it — the
// rproc(c_i) values of Eq. (11), in host declaration order. Unassigned
// guests contribute nothing.
func (m *Mapping) ResidualProc(overhead cluster.VMMOverhead) []float64 {
	c := m.Cluster
	res := make([]float64, c.NumHosts())
	for i, h := range c.Hosts() {
		res[i] = h.Proc - overhead.Proc
	}
	for g, node := range m.GuestHost {
		if c.IsHost(node) { // neither Unassigned nor a switch
			res[c.HostIdx(node)] -= m.Env.Guest(virtual.GuestID(g)).Proc
		}
	}
	return res
}

// Objective evaluates the paper's objective function (Eq. 10): the
// population standard deviation of the residual CPU across hosts. Lower
// is better balanced.
func (m *Mapping) Objective(overhead cluster.VMMOverhead) float64 {
	return Objective(m.ResidualProc(overhead))
}

// Objective computes Eq. (10) from a residual-CPU vector: the population
// standard deviation of rproc.
func Objective(residualProc []float64) float64 {
	return stats.PopStdDev(residualProc)
}

// Validate checks the mapping against every constraint of §3.2 and
// returns a descriptive error naming the first violated equation:
//
//	Eq. (1) every guest assigned to exactly one existing host
//	Eq. (2) per-host memory         Eq. (3) per-host storage
//	Eq. (4) path starts at the source guest's host
//	Eq. (5) path ends at the destination guest's host
//	Eq. (6) path links are contiguous
//	Eq. (7) the path is loop-free
//	Eq. (8) accumulated path latency within the virtual link's budget
//	Eq. (9) aggregate bandwidth on every physical link within capacity
//
// The VMM overhead is deducted from every host first (§3.1). A link whose
// guests share a host must carry the trivial path on that host.
func (m *Mapping) Validate(overhead cluster.VMMOverhead) error {
	c, v := m.Cluster, m.Env
	if len(m.GuestHost) != v.NumGuests() {
		return fmt.Errorf("mapping: GuestHost has %d entries for %d guests", len(m.GuestHost), v.NumGuests())
	}
	if len(m.LinkPath) != v.NumLinks() {
		return fmt.Errorf("mapping: LinkPath has %d entries for %d links", len(m.LinkPath), v.NumLinks())
	}

	// Eq. (1): each guest mapped exactly once, to a host node.
	for g, node := range m.GuestHost {
		if node == Unassigned {
			return fmt.Errorf("mapping: guest %d unassigned (Eq. 1)", g)
		}
		if !c.IsHost(node) {
			return fmt.Errorf("mapping: guest %d assigned to non-host node %d (Eq. 1)", g, node)
		}
	}

	// Eq. (2) and Eq. (3): per-host memory and storage, after overhead.
	memUse := map[graph.NodeID]int64{}
	storUse := map[graph.NodeID]float64{}
	for g, node := range m.GuestHost {
		guest := v.Guest(virtual.GuestID(g))
		memUse[node] += guest.Mem
		storUse[node] += guest.Stor
	}
	for _, h := range c.Hosts() {
		if avail := h.Mem - overhead.Mem; memUse[h.Node] > avail {
			return fmt.Errorf("mapping: host %q (node %d) memory %dMB exceeds available %dMB (Eq. 2)",
				h.Name, h.Node, memUse[h.Node], avail)
		}
		if avail := h.Stor - overhead.Stor; storUse[h.Node] > avail {
			return fmt.Errorf("mapping: host %q (node %d) storage %.1fGB exceeds available %.1fGB (Eq. 3)",
				h.Name, h.Node, storUse[h.Node], avail)
		}
	}

	// Per-link path constraints.
	net := c.Net()
	bwUse := make([]float64, net.NumEdges())
	for _, link := range v.Links() {
		p := m.LinkPath[link.ID]
		// Structural checks: contiguity (Eq. 6) and loop-freedom (Eq. 7).
		if err := p.Validate(net); err != nil {
			return fmt.Errorf("mapping: link %d: %w (Eq. 6/7)", link.ID, err)
		}
		src, dst := m.GuestHost[link.From], m.GuestHost[link.To]
		// Endpoints (Eq. 4, Eq. 5). Virtual links are undirected in the
		// generator, so a path in either orientation is accepted.
		forward := p.Origin() == src && p.Destination() == dst
		backward := p.Origin() == dst && p.Destination() == src
		if !forward && !backward {
			return fmt.Errorf("mapping: link %d path %v does not join hosts %d and %d (Eq. 4/5)",
				link.ID, p, src, dst)
		}
		if src == dst && p.Len() != 0 {
			return fmt.Errorf("mapping: link %d is intra-host but carries a %d-hop path", link.ID, p.Len())
		}
		// Latency budget (Eq. 8).
		if lat := p.Latency(net); lat > link.Lat+1e-9 {
			return fmt.Errorf("mapping: link %d latency %.3fms exceeds budget %.3fms (Eq. 8)",
				link.ID, lat, link.Lat)
		}
		for _, eid := range p.Edges {
			bwUse[eid] += link.BW
		}
	}

	// Aggregate bandwidth per physical link (Eq. 9).
	for _, e := range net.Edges() {
		if bwUse[e.ID] > e.Bandwidth+1e-9 {
			return fmt.Errorf("mapping: physical link %d (%d-%d) carries %.3fMbps over its %.3fMbps capacity (Eq. 9)",
				e.ID, e.A, e.B, bwUse[e.ID], e.Bandwidth)
		}
	}
	return nil
}

// Stats summarises a validated mapping for reporting.
type Stats struct {
	Guests         int
	Links          int
	IntraHostLinks int     // links whose guests share a host (trivial paths)
	InterHostLinks int     // links that consumed physical bandwidth
	TotalHops      int     // physical links traversed across all paths
	MaxPathLen     int     // longest routed path in hops
	MeanPathLen    float64 // mean hops over inter-host links
	UsedHosts      int     // hosts running at least one guest
	Objective      float64 // Eq. 10 value
}

// Summarize computes reporting statistics for the mapping. It assumes the
// mapping has been validated.
func (m *Mapping) Summarize(overhead cluster.VMMOverhead) Stats {
	s := Stats{
		Guests:    m.Env.NumGuests(),
		Links:     m.Env.NumLinks(),
		Objective: m.Objective(overhead),
	}
	used := map[graph.NodeID]bool{}
	for _, node := range m.GuestHost {
		if node != Unassigned {
			used[node] = true
		}
	}
	s.UsedHosts = len(used)
	hops := 0
	for _, p := range m.LinkPath {
		if p.Len() == 0 {
			s.IntraHostLinks++
			continue
		}
		s.InterHostLinks++
		hops += p.Len()
		if p.Len() > s.MaxPathLen {
			s.MaxPathLen = p.Len()
		}
	}
	s.TotalHops = hops
	if s.InterHostLinks > 0 {
		s.MeanPathLen = float64(hops) / float64(s.InterHostLinks)
	}
	return s
}

// Clone returns a deep copy of the mapping (paths are deep-copied too).
func (m *Mapping) Clone() *Mapping {
	cp := &Mapping{
		Cluster:   m.Cluster,
		Env:       m.Env,
		GuestHost: append([]graph.NodeID(nil), m.GuestHost...),
		LinkPath:  make([]graph.Path, len(m.LinkPath)),
	}
	for i, p := range m.LinkPath {
		cp.LinkPath[i] = p.Clone()
	}
	return cp
}

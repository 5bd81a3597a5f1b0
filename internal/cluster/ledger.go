package cluster

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
)

// ErrOverheadExceedsCapacity is returned by NewLedger when the VMM
// overhead alone does not fit on some host.
var ErrOverheadExceedsCapacity = errors.New("cluster: VMM overhead exceeds a host's capacity")

// Ledger tracks the residual resources of a cluster while a mapping is
// being constructed: per-host CPU, memory and storage, and per-edge
// bandwidth. The VMM overhead is deducted once at construction (§3.1).
//
// Memory and storage are hard constraints (Eq. 2 and Eq. 3): Fits and
// ReserveGuest enforce them. CPU is deliberately *not* a constraint —
// it is the quantity the objective function balances (§3.2) — so residual
// CPU may go negative. Bandwidth is a hard constraint per physical link
// (Eq. 9).
//
// A Ledger belongs to a single mapping attempt and is not safe for
// concurrent use; concurrent experiments each build their own. It has no
// lock of its own, so its mutable state is annotated with the external
// capability token "session": the caller must either hold the owning
// *core.Session's mutex or be the ledger's sole owner (a private clone,
// a one-shot mapping attempt). Methods marked //hmn:locked session carry
// that obligation to their callers.
type Ledger struct {
	c *Cluster
	// residual CPU per host index (may go negative)
	proc []float64 //hmn:guardedby session
	// residual memory per host index
	mem []int64 //hmn:guardedby session
	// residual storage per host index
	stor []float64 //hmn:guardedby session
	// residual bandwidth per edge ID
	bw []float64 //hmn:guardedby session
	// routable bandwidth per edge ID: 0 while the edge is cut, bw[e]
	// otherwise — the vector every path search reads (see Residuals).
	// Each write of bw or cutEdges rewrites its entries.
	route []float64 //hmn:guardedby session
	// per host index: no new guests accepted
	quarantined []bool //hmn:guardedby session
	// per edge ID: carries no new traffic
	cutEdges []bool //hmn:guardedby session
	// moved by CutEdge/RestoreEdge; keys derived caches. Zero is reserved
	// for the canonical no-cuts topology so restoring the last cut edge
	// returns to it and re-warms generation-keyed caches.
	topoGen uint64 //hmn:guardedby session
	// count of currently cut edges and the monotonic generation allocator
	// behind topoGen; see CutEdge/RestoreEdge.
	cutCount int    //hmn:guardedby session
	genSeq   uint64 //hmn:guardedby session

	// Running Σx and Σx² of the residual-CPU vector (Kahan-compensated),
	// maintained by every proc mutation so the Eq. (10) objective and the
	// Migration stage's what-if evaluations are O(1) instead of O(hosts).
	sumProc   kahanSum //hmn:guardedby session
	sumProcSq kahanSum //hmn:guardedby session

	// procHook, when set, observes every single-host residual-CPU change
	// (by dense host index, after the ledger is updated). The Hosting
	// stage's incremental host order hangs off it. Clones drop the hook:
	// it closes over state owned by this ledger's consumer.
	procHook func(host int) //hmn:guardedby session
}

// kahanSum is a compensated float64 accumulator: it keeps the running
// Σ of many small deltas within a few ulps of the exact sum, so the
// incremental objective stays within the 1e-9 band the property tests
// cross-check against the two-pass stats.PopStdDev recompute. Every
// product fed to one, or read against one, is converted (float64(x*x))
// so that no architecture fuses it into a multiply-add: the sums, and the
// decisions read from them, must round alike everywhere.
type kahanSum struct{ s, c float64 }

func (k *kahanSum) add(x float64) {
	y := x - k.c
	t := k.s + y
	k.c = (t - k.s) - y
	k.s = t
}

// NewLedger returns a ledger initialised to each host's capacity minus the
// VMM overhead and each edge's installed bandwidth. It fails with
// ErrOverheadExceedsCapacity if any host cannot even hold the VMM.
func NewLedger(c *Cluster, overhead VMMOverhead) (*Ledger, error) {
	l := &Ledger{
		c:           c,
		proc:        make([]float64, len(c.hosts)),
		mem:         make([]int64, len(c.hosts)),
		stor:        make([]float64, len(c.hosts)),
		bw:          make([]float64, c.net.NumEdges()),
		route:       make([]float64, c.net.NumEdges()),
		quarantined: make([]bool, len(c.hosts)),
		cutEdges:    make([]bool, c.net.NumEdges()),
	}
	for i, h := range c.hosts {
		l.proc[i] = h.Proc - overhead.Proc
		l.mem[i] = h.Mem - overhead.Mem
		l.stor[i] = h.Stor - overhead.Stor
		if l.mem[i] < 0 || l.stor[i] < 0 || l.proc[i] < 0 {
			return nil, fmt.Errorf("%w: host %q (node %d)", ErrOverheadExceedsCapacity, h.Name, h.Node)
		}
	}
	for _, e := range c.net.Edges() {
		l.bw[e.ID] = e.Bandwidth
	}
	copy(l.route, l.bw)
	for _, p := range l.proc {
		l.sumProc.add(p)
		l.sumProcSq.add(float64(p * p))
	}
	return l, nil
}

// applyProc is the single funnel for residual-CPU changes: it shifts the
// residual of dense host index i by delta, maintains the running Σx/Σx²,
// and notifies the proc hook. Every proc mutation (ReserveGuest,
// ReleaseGuest, Txn commit) goes through it so the incremental objective
// and any attached host order can never drift from the ledger.
//
//hmn:locked session
func (l *Ledger) applyProc(i int, delta float64) {
	old := l.proc[i]
	nw := old + delta
	l.proc[i] = nw
	l.sumProc.add(delta)
	l.sumProcSq.add(float64(nw*nw) - float64(old*old))
	if l.procHook != nil {
		l.procHook(i)
	}
}

// SetProcHook installs fn to observe every single-host residual-CPU
// change, called with the dense host index after the ledger has been
// updated. Passing nil detaches. At most one hook is active; consumers
// that attach one (the Hosting stage's incremental host order) must
// detach it when their mapping attempt ends. Clones never inherit it.
//
//hmn:locked session
func (l *Ledger) SetProcHook(fn func(host int)) { l.procHook = fn }

// ObjectiveStdDev returns the load-balance objective of Eq. (10) — the
// population standard deviation of the residual-CPU vector — in O(1)
// from the running sums.
//
//hmn:locked session
func (l *Ledger) ObjectiveStdDev() float64 {
	return l.stdDevFromSums(l.sumProcSq.s)
}

// DeltaStdDev returns the change the Eq. (10) objective would undergo if
// a guest demanding mips CPU moved from the host at origin to the host
// at dest: negative means the move improves load balance. It is the O(1)
// what-if behind the Migration stage: Σx is invariant under a move (the
// origin residual gains exactly what the dest residual loses) and Σx²
// shifts by 2·mips·(origin−dest) + 2·mips², so no ledger mutation or
// full recompute is needed per candidate.
//
//hmn:locked session
func (l *Ledger) DeltaStdDev(origin, dest graph.NodeID, mips float64) float64 {
	po := l.proc[l.c.hostIdx(origin)]
	pd := l.proc[l.c.hostIdx(dest)]
	sumSq := l.sumProcSq.s
	after := sumSq + float64(2*mips*(po-pd)) + float64(2*mips*mips)
	return l.stdDevFromSums(after) - l.stdDevFromSums(sumSq)
}

// stdDevFromSums evaluates the population standard deviation from Σx²,
// using the ledger's running Σx. Negative variances from floating-point
// cancellation clamp to zero.
//
//hmn:locked session
func (l *Ledger) stdDevFromSums(sumSq float64) float64 {
	n := float64(len(l.proc))
	if n == 0 {
		return 0
	}
	mean := l.sumProc.s / n
	v := sumSq/n - float64(mean*mean)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Cluster returns the cluster this ledger accounts for.
func (l *Ledger) Cluster() *Cluster { return l.c }

// Clone returns an independent copy of the ledger, used for what-if
// evaluation during the Migration stage and by retrying baselines. The
// proc hook is deliberately not inherited: it closes over structures
// owned by whoever attached it to the source ledger.
//
//hmn:locked session
func (l *Ledger) Clone() *Ledger {
	return &Ledger{
		c:           l.c,
		proc:        append([]float64(nil), l.proc...),
		mem:         append([]int64(nil), l.mem...),
		stor:        append([]float64(nil), l.stor...),
		bw:          append([]float64(nil), l.bw...),
		route:       append([]float64(nil), l.route...),
		quarantined: append([]bool(nil), l.quarantined...),
		cutEdges:    append([]bool(nil), l.cutEdges...),
		topoGen:     l.topoGen,
		cutCount:    l.cutCount,
		genSeq:      l.genSeq,
		sumProc:     l.sumProc,
		sumProcSq:   l.sumProcSq,
	}
}

// Fits reports whether a guest demanding mem MB and stor GB satisfies the
// hard constraints (Eq. 2, Eq. 3) on the host at node. CPU is not checked
// — per §3.2 it is the optimisation variable, not a constraint.
//
//hmn:locked session
func (l *Ledger) Fits(node graph.NodeID, mem int64, stor float64) bool {
	i := l.c.hostIdx(node)
	return !l.quarantined[i] && l.mem[i] >= mem && l.stor[i] >= stor
}

// Quarantine marks the host at node as accepting no further guests:
// Fits reports false and ReserveGuest refuses, while resources already
// reserved there remain accounted until released. Mapping heuristics
// driven by Fits thus route around the host. Used to model host
// failures and administrative draining.
//
// Quarantine a host between mapping attempts, not while one is running:
// the Migration stage assumes it can restore a reservation it just
// released on the same host.
//
//hmn:locked session
func (l *Ledger) Quarantine(node graph.NodeID) {
	i := l.c.hostIdx(node)
	l.quarantined[i] = true
}

// Quarantined reports whether the host at node is quarantined.
//
//hmn:locked session
func (l *Ledger) Quarantined(node graph.NodeID) bool {
	return l.quarantined[l.c.hostIdx(node)]
}

// Unquarantine readmits the host at node.
//
//hmn:locked session
func (l *Ledger) Unquarantine(node graph.NodeID) {
	i := l.c.hostIdx(node)
	l.quarantined[i] = false
}

// ReserveGuest deducts a guest's demands from the host at node. It returns
// an error (leaving the ledger untouched) when memory or storage would go
// negative; residual CPU is allowed to go negative.
//
//hmn:locked session
func (l *Ledger) ReserveGuest(node graph.NodeID, proc float64, mem int64, stor float64) error {
	i := l.c.hostIdx(node)
	if l.quarantined[i] {
		return fmt.Errorf("cluster: host node %d is quarantined", node)
	}
	if l.mem[i] < mem {
		return fmt.Errorf("cluster: host node %d: memory %dMB short of %dMB demand", node, l.mem[i], mem)
	}
	if l.stor[i] < stor {
		return fmt.Errorf("cluster: host node %d: storage %.1fGB short of %.1fGB demand", node, l.stor[i], stor)
	}
	l.applyProc(i, -proc)
	l.mem[i] -= mem
	l.stor[i] -= stor
	return nil
}

// ReleaseGuest returns a guest's demands to the host at node. It is the
// inverse of ReserveGuest and is used when the Migration stage moves a
// guest away.
//
//hmn:locked session
func (l *Ledger) ReleaseGuest(node graph.NodeID, proc float64, mem int64, stor float64) {
	i := l.c.hostIdx(node)
	l.applyProc(i, proc)
	l.mem[i] += mem
	l.stor[i] += stor
}

// ResidualProc returns the residual CPU of the host at node in MIPS.
//
//hmn:locked session
func (l *Ledger) ResidualProc(node graph.NodeID) float64 { return l.proc[l.c.hostIdx(node)] }

// ResidualMem returns the residual memory of the host at node in MB.
//
//hmn:locked session
func (l *Ledger) ResidualMem(node graph.NodeID) int64 { return l.mem[l.c.hostIdx(node)] }

// ResidualStor returns the residual storage of the host at node in GB.
//
//hmn:locked session
func (l *Ledger) ResidualStor(node graph.NodeID) float64 { return l.stor[l.c.hostIdx(node)] }

// ResidualProcAll returns a copy of the residual CPU of every host, in
// host declaration order — the rproc vector of Eq. 11 that the objective
// function (Eq. 10) takes the population standard deviation of.
//
//hmn:locked session
func (l *Ledger) ResidualProcAll() []float64 {
	return append([]float64(nil), l.proc...)
}

// ResidualBandwidth returns the residual bandwidth of the given edge,
// or 0 while the edge is cut: Residuals()[edgeID].
//
//hmn:locked session
func (l *Ledger) ResidualBandwidth(edgeID int) float64 { return l.route[edgeID] }

// CutEdge marks a physical link as carrying no new traffic: its residual
// bandwidth reads as zero (so every path search routes around it) and
// ReserveBandwidth refuses paths that cross it. Bandwidth already
// reserved on it stays accounted until released. Models link failures
// and maintenance. Cutting an already-cut edge is a no-op.
//
//hmn:locked session
func (l *Ledger) CutEdge(edgeID int) {
	if l.cutEdges[edgeID] {
		return
	}
	l.cutEdges[edgeID] = true
	l.route[edgeID] = 0
	l.cutCount++
	l.genSeq++
	l.topoGen = l.genSeq
}

// EdgeCut reports whether the edge is currently cut.
//
//hmn:locked session
func (l *Ledger) EdgeCut(edgeID int) bool { return l.cutEdges[edgeID] }

// RestoreEdge readmits a previously cut edge. Restoring an edge that is
// not cut is a no-op. When the last cut edge is restored the generation
// returns to the reserved zero value of the no-cuts topology, so caches
// warmed before the failure become valid again instead of being rebuilt.
//
//hmn:locked session
func (l *Ledger) RestoreEdge(edgeID int) {
	if !l.cutEdges[edgeID] {
		return
	}
	l.cutEdges[edgeID] = false
	l.route[edgeID] = l.bw[edgeID]
	l.cutCount--
	if l.cutCount == 0 {
		l.topoGen = 0
		return
	}
	l.genSeq++
	l.topoGen = l.genSeq
}

// TopoGen returns the ledger's topology generation. Generation 0 always
// means "no edges cut"; every state with at least one cut edge gets a
// fresh generation from a monotonic allocator, so two distinct cut sets
// never share one. Caches derived from the routable topology — the
// Networking stage's Dijkstra ar[] tables — key their entries by it, so
// a link failure or restoration invalidates them without any explicit
// registration, and a failure fully healed re-validates the canonical
// tables. Clones inherit the generation of their source; only the
// session's live ledger ever moves it (clones never cut edges), so
// generations from one allocator never alias.
//
//hmn:locked session
func (l *Ledger) TopoGen() uint64 { return l.topoGen }

// Residuals returns the routable bandwidth of every edge, indexed by edge
// ID — the residual vector the search algorithms in internal/graph read:
// an edge's residual bandwidth, or 0 while it is cut. The vector is the
// ledger's own, never reallocated and rewritten in place by every
// reservation, release, commit, cut and restore, so it reflects changes
// made after it was obtained. Callers read it and must not write it.
//
//hmn:locked session
func (l *Ledger) Residuals() []float64 { return l.route }

// BandwidthFunc is Residuals under its old name, kept because the frozen
// benchmark harness (benchmark/hmnperf) calls it; it goes with the next
// change to that harness.
//
//hmn:locked session
func (l *Ledger) BandwidthFunc() []float64 { return l.route }

// ReserveBandwidth deducts bw Mbps from every edge of path, checking all
// edges before modifying any so that a failure leaves the ledger
// untouched. The trivial (intra-host) path reserves nothing.
//
//hmn:locked session
func (l *Ledger) ReserveBandwidth(path graph.Path, bw float64) error {
	for _, eid := range path.Edges {
		if l.cutEdges[eid] {
			return fmt.Errorf("cluster: edge %d is cut", eid)
		}
		if l.bw[eid] < bw {
			return fmt.Errorf("cluster: edge %d residual %.3fMbps short of %.3fMbps demand", eid, l.bw[eid], bw)
		}
	}
	for _, eid := range path.Edges {
		l.bw[eid] -= bw
		l.route[eid] = l.bw[eid] // not cut: checked above
	}
	return nil
}

// ReleaseBandwidth returns bw Mbps to every edge of path; the inverse of
// ReserveBandwidth.
//
//hmn:locked session
func (l *Ledger) ReleaseBandwidth(path graph.Path, bw float64) {
	for _, eid := range path.Edges {
		l.bw[eid] += bw
		if !l.cutEdges[eid] {
			l.route[eid] = l.bw[eid]
		}
	}
}

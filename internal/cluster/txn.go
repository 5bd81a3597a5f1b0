package cluster

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Txn accumulates the net reservations of one mapping attempt — guest
// demands per host and path bandwidth per edge — computed against a
// snapshot ledger, so a session can validate them against the live
// residuals and apply them atomically. It is the commit half of the
// admission pipeline (snapshot → map → validate-and-commit): the
// mapping speculates on a private copy, so a failed attempt leaves the
// live ledger untouched, and Commit applies the survivor's net effect —
// live, and again at WAL replay, where it decides whether a recorded
// mapping still fits the restored state.
//
// A Txn aggregates: adding two guests on the same host or two paths over
// the same edge accumulates their demands, exactly as the serialized
// reservations would. It is not safe for concurrent use.
//
// Storage is dense and epoch-stamped so a Txn can be Reset and reused
// without allocating: demands live in per-host and per-edge arrays
// sized once to the cluster, a row is live only when its epoch stamp
// matches the current epoch, and the touched rows are tracked in two
// compact lists. The admission hot path keeps transactions in a pool
// and reuses them for the life of the process.
type Txn struct {
	c *Cluster

	epoch     uint32
	hostEpoch []uint32 // by host index; row live when == epoch
	edgeEpoch []uint32 // by edge ID; row live when == epoch

	hproc []float64 // by host index
	hmem  []int64   // by host index
	hstor []float64 // by host index
	ebw   []float64 // by edge ID

	hostList []int32 // touched host indices, insertion order
	edgeList []int32 // touched edge IDs, insertion order
}

// NewTxn returns an empty transaction against this ledger's cluster.
// The transaction's arrays are sized to the cluster once; Reset reuses
// them, so hot paths should pool and reset rather than reallocate.
func (l *Ledger) NewTxn() *Txn {
	return &Txn{
		c:         l.c,
		epoch:     1,
		hostEpoch: make([]uint32, len(l.c.hosts)),
		edgeEpoch: make([]uint32, l.c.net.NumEdges()),
		hproc:     make([]float64, len(l.c.hosts)),
		hmem:      make([]int64, len(l.c.hosts)),
		hstor:     make([]float64, len(l.c.hosts)),
		ebw:       make([]float64, l.c.net.NumEdges()),
		hostList:  make([]int32, 0, 64),
		edgeList:  make([]int32, 0, 256),
	}
}

// Reset empties the transaction for reuse without releasing its
// storage: the epoch stamp advances, invalidating every row in O(1).
func (t *Txn) Reset() {
	t.epoch++
	if t.epoch == 0 { // wrapped: stale stamps could alias, scrub them
		clear(t.hostEpoch)
		clear(t.edgeEpoch)
		t.epoch = 1
	}
	t.hostList = t.hostList[:0]
	t.edgeList = t.edgeList[:0]
}

// Cluster returns the cluster the transaction was built for.
func (t *Txn) Cluster() *Cluster { return t.c }

// AddGuest records a guest's demands on the host at node.
func (t *Txn) AddGuest(node graph.NodeID, proc float64, mem int64, stor float64) {
	i := t.c.hostIdx(node)
	if t.hostEpoch[i] != t.epoch {
		t.hostEpoch[i] = t.epoch
		t.hproc[i], t.hmem[i], t.hstor[i] = 0, 0, 0
		t.hostList = append(t.hostList, int32(i))
	}
	t.hproc[i] += proc
	t.hmem[i] += mem
	t.hstor[i] += stor
}

// AddPath records bw Mbps on every edge of path. The trivial (intra-host)
// path records nothing.
func (t *Txn) AddPath(p graph.Path, bw float64) { t.AddEdges(p.Edges, bw) }

// AddEdges records bw Mbps on every edge of a path given by its edge IDs
// alone.
func (t *Txn) AddEdges(edges []int, bw float64) {
	for _, eid := range edges {
		if t.edgeEpoch[eid] != t.epoch {
			t.edgeEpoch[eid] = t.epoch
			t.ebw[eid] = 0
			t.edgeList = append(t.edgeList, int32(eid))
		}
		t.ebw[eid] += bw
	}
}

// Hosts returns the number of distinct hosts the transaction touches.
func (t *Txn) Hosts() int { return len(t.hostList) }

// Edges returns the number of distinct edges the transaction touches.
func (t *Txn) Edges() int { return len(t.edgeList) }

// Commit validates every reservation in t against the live residuals —
// quarantine state, memory and storage per host (Eq. 2, Eq. 3), cut
// state and aggregate bandwidth per edge (Eq. 9) — and applies them all,
// or returns an error describing the first conflict while leaving the
// ledger untouched. Residual CPU is applied but never validated, exactly
// like ReserveGuest (§3.2 treats it as the optimisation variable, not a
// constraint). Hosts and edges are checked in ascending index order so a
// given conflict always produces the same error, and applied in the same
// order so WAL replay reproduces the floating-point results bit for bit.
//
// Commit is the validate-and-apply entry point of the admission
// pipeline: callers hold the owning session's lock (or own
// the ledger outright), as on every other ledger mutation. It sorts the
// touched-row lists in place but does not Reset the transaction.
//
//hmn:locked session
func (l *Ledger) Commit(t *Txn) error {
	if t.c != l.c {
		return fmt.Errorf("cluster: transaction built for a different cluster")
	}
	slices.Sort(t.hostList)
	for _, hi := range t.hostList {
		i := int(hi)
		node := l.c.hosts[i].Node
		if l.quarantined[i] {
			return fmt.Errorf("cluster: host node %d is quarantined", node)
		}
		if l.mem[i] < t.hmem[i] {
			return fmt.Errorf("cluster: host node %d: memory %dMB short of %dMB demand", node, l.mem[i], t.hmem[i])
		}
		if l.stor[i] < t.hstor[i] {
			return fmt.Errorf("cluster: host node %d: storage %.1fGB short of %.1fGB demand", node, l.stor[i], t.hstor[i])
		}
	}
	slices.Sort(t.edgeList)
	for _, ei := range t.edgeList {
		e := int(ei)
		if l.cutEdges[e] {
			return fmt.Errorf("cluster: edge %d is cut", e)
		}
		if l.bw[e] < t.ebw[e] {
			return fmt.Errorf("cluster: edge %d residual %.3fMbps short of %.3fMbps demand", e, l.bw[e], t.ebw[e])
		}
	}
	for _, hi := range t.hostList {
		i := int(hi)
		l.applyProc(i, -t.hproc[i])
		l.mem[i] -= t.hmem[i]
		l.stor[i] -= t.hstor[i]
	}
	for _, ei := range t.edgeList {
		e := int(ei)
		l.bw[e] -= t.ebw[e]
	}
	return nil
}

package cluster

import "fmt"

// LedgerState is the serializable form of a ledger's mutable state: the
// residual vectors, the degradation flags and the topology-generation
// allocator. It exists for the WAL snapshot layer (internal/wal): a
// ledger restored from a state and then driven by the same canonical
// operation sequence reproduces the original ledger bit-for-bit, because
// every residual is stored verbatim (Go's JSON encoder emits the
// shortest representation that round-trips a float64 exactly).
//
// The Kahan compensation terms of the running Σx/Σx² accumulators are
// deliberately not part of the state: they are rebuilt from the proc
// vector on restore, which keeps the incremental Eq. (10) objective
// within the usual 1e-9 band of the two-pass recompute but may differ
// from the uninterrupted run in the last few ulps. The residual vectors
// themselves — the state that admission decisions read — are exact.
type LedgerState struct {
	Proc        []float64 `json:"proc"`
	Mem         []int64   `json:"mem"`
	Stor        []float64 `json:"stor"`
	BW          []float64 `json:"bw"`
	Quarantined []bool    `json:"quarantined,omitempty"`
	CutEdges    []bool    `json:"cut_edges,omitempty"`
	TopoGen     uint64    `json:"topo_gen,omitempty"`
	CutCount    int       `json:"cut_count,omitempty"`
	GenSeq      uint64    `json:"gen_seq,omitempty"`
}

// State exports the ledger's mutable state for snapshotting.
//
//hmn:locked session
func (l *Ledger) State() LedgerState {
	return LedgerState{
		Proc:        append([]float64(nil), l.proc...),
		Mem:         append([]int64(nil), l.mem...),
		Stor:        append([]float64(nil), l.stor...),
		BW:          append([]float64(nil), l.bw...),
		Quarantined: append([]bool(nil), l.quarantined...),
		CutEdges:    append([]bool(nil), l.cutEdges...),
		TopoGen:     l.topoGen,
		CutCount:    l.cutCount,
		GenSeq:      l.genSeq,
	}
}

// RestoreLedger rebuilds a ledger over c from a snapshotted state. The
// state's vectors must match the cluster's dimensions — a snapshot can
// only be restored against the cluster it was taken from. The Kahan
// accumulators are rebuilt from the restored proc vector (see
// LedgerState).
func RestoreLedger(c *Cluster, st LedgerState) (*Ledger, error) {
	if len(st.Proc) != len(c.hosts) || len(st.Mem) != len(c.hosts) || len(st.Stor) != len(c.hosts) {
		return nil, fmt.Errorf("cluster: ledger state has %d/%d/%d host vectors for %d hosts",
			len(st.Proc), len(st.Mem), len(st.Stor), len(c.hosts))
	}
	if len(st.BW) != c.net.NumEdges() {
		return nil, fmt.Errorf("cluster: ledger state has %d bandwidth entries for %d edges",
			len(st.BW), c.net.NumEdges())
	}
	quarantined := st.Quarantined
	if quarantined == nil {
		quarantined = make([]bool, len(c.hosts))
	}
	cut := st.CutEdges
	if cut == nil {
		cut = make([]bool, c.net.NumEdges())
	}
	if len(quarantined) != len(c.hosts) || len(cut) != c.net.NumEdges() {
		return nil, fmt.Errorf("cluster: ledger state degradation flags do not match the cluster")
	}
	l := &Ledger{
		c:           c,
		proc:        append([]float64(nil), st.Proc...),
		mem:         append([]int64(nil), st.Mem...),
		stor:        append([]float64(nil), st.Stor...),
		bw:          append([]float64(nil), st.BW...),
		quarantined: append([]bool(nil), quarantined...),
		cutEdges:    append([]bool(nil), cut...),
		topoGen:     st.TopoGen,
		cutCount:    st.CutCount,
		genSeq:      st.GenSeq,
	}
	for _, p := range l.proc {
		l.sumProc.add(p)
		l.sumProcSq.add(float64(p * p))
	}
	return l, nil
}

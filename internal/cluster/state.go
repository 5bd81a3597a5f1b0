package cluster

import "fmt"

// LedgerState is the serializable form of a ledger's mutable state: the
// residual vectors, the degradation flags, the topology-generation
// allocator and the running sums of the Eq. (10) objective. It exists
// for the WAL snapshot layer (internal/wal): a ledger restored from a
// state and then driven by the same canonical operation sequence
// reproduces the original ledger bit-for-bit, because every value is
// stored verbatim (Go's JSON encoder emits the shortest representation
// that round-trips a float64 exactly).
//
// SumProc and SumProcSq are the Kahan accumulators of Σx and Σx² over the
// proc vector, each as {sum, compensation}. Every Eq. (10) what-if reads
// them, so a restored ledger must carry them exactly for the run after a
// restart to decide as the uninterrupted one would. A state without them
// (a snapshot an older build wrote) rebuilds both from the proc vector,
// within the usual 1e-9 band of the two-pass recompute but possibly a
// few ulps from the live sums.
type LedgerState struct {
	Proc        []float64   `json:"proc"`
	Mem         []int64     `json:"mem"`
	Stor        []float64   `json:"stor"`
	BW          []float64   `json:"bw"`
	Quarantined []bool      `json:"quarantined,omitempty"`
	CutEdges    []bool      `json:"cut_edges,omitempty"`
	TopoGen     uint64      `json:"topo_gen,omitempty"`
	CutCount    int         `json:"cut_count,omitempty"`
	GenSeq      uint64      `json:"gen_seq,omitempty"`
	SumProc     *[2]float64 `json:"sum_proc,omitempty"`
	SumProcSq   *[2]float64 `json:"sum_proc_sq,omitempty"`
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
		SumProc:     &[2]float64{l.sumProc.s, l.sumProc.c},
		SumProcSq:   &[2]float64{l.sumProcSq.s, l.sumProcSq.c},
	}
}

// RestoreLedger rebuilds a ledger over c from a snapshotted state. The
// state's vectors must match the cluster's dimensions — a snapshot can
// only be restored against the cluster it was taken from. The Kahan
// accumulators are the state's, or rebuilt from the restored proc vector
// when it carries none (see LedgerState).
func RestoreLedger(c *Cluster, st LedgerState) (*Ledger, error) {
	if len(st.Proc) != len(c.hosts) || len(st.Mem) != len(c.hosts) || len(st.Stor) != len(c.hosts) {
		return nil, fmt.Errorf("cluster: ledger state has %d/%d/%d host vectors for %d hosts",
			len(st.Proc), len(st.Mem), len(st.Stor), len(c.hosts))
	}
	if len(st.BW) != c.net.NumEdges() {
		return nil, fmt.Errorf("cluster: ledger state has %d bandwidth entries for %d edges",
			len(st.BW), c.net.NumEdges())
	}
	if (st.SumProc == nil) != (st.SumProcSq == nil) {
		return nil, fmt.Errorf("cluster: ledger state carries one of its two running sums")
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
	if st.SumProc != nil {
		l.sumProc = kahanSum{s: st.SumProc[0], c: st.SumProc[1]}
		l.sumProcSq = kahanSum{s: st.SumProcSq[0], c: st.SumProcSq[1]}
		return l, nil
	}
	for _, p := range l.proc {
		l.sumProc.add(p)
		l.sumProcSq.add(float64(p * p))
	}
	return l, nil
}

package cluster

// The flat-copy ledger snapshot a session's attempts speculate on. A
// snapshot is a Clone whose six arrays are sized once and
// then overwritten in place by SyncFrom, so the steady-state admission
// path never allocates. Every resync copies the whole ledger: O(H+E),
// which on every committed workload is less copying than the write
// journal this replaced (DESIGN §12, audit verdict of PR 16).

// EnableJournal does nothing. Its one caller is
// benchmark/hmnperf/layers.go, which this repo's benchmark rules freeze;
// the method goes with the next [benchmark] PR.
func (l *Ledger) EnableJournal() {}

// Snapshot returns an independent copy of the ledger that SyncFrom can
// later refresh in place. Like Clone, the proc hook is not inherited.
//
//hmn:locked session
func (l *Ledger) Snapshot() *Ledger { return l.Clone() }

// SyncFrom makes the snapshot bit-identical to src again by overwriting
// every row and scalar of l with src's, reusing l's arrays — the
// allocation-free equivalent of Clone into existing storage. The proc
// hook of l is preserved. The caller must own both ledgers (hold the
// session lock): the snapshot must not be mid-mapping and src must not
// be mutating concurrently.
//
//hmn:locked session
func (l *Ledger) SyncFrom(src *Ledger) {
	if l.c != src.c {
		panic("cluster: SyncFrom across clusters")
	}
	copy(l.proc, src.proc)
	copy(l.mem, src.mem)
	copy(l.stor, src.stor)
	copy(l.bw, src.bw)
	copy(l.quarantined, src.quarantined)
	copy(l.cutEdges, src.cutEdges)
	l.copyScalars(src)
}

//hmn:locked session
func (l *Ledger) copyScalars(src *Ledger) {
	l.topoGen = src.topoGen
	l.cutCount = src.cutCount
	l.genSeq = src.genSeq
	l.sumProc = src.sumProc
	l.sumProcSq = src.sumProcSq
}

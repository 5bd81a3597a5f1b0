package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// Session manages a cluster shared by several emulation experiments over
// time: virtual environments are mapped incrementally against the
// residual resources left by the environments already deployed, and
// releasing an environment returns its hosts' memory, storage and CPU
// and its paths' bandwidth to the pool.
//
// The paper assumes "the entire cluster is available for a single tester
// per time" (§3.2); a session generalises that to the multi-tester
// testbed its §6 envisions. Each environment is still mapped by HMN
// against a ledger primed with the current residuals.
//
// A Session is safe for concurrent use, one lock-hold per operation: Map,
// Repair and Rebalance's moves each take the session lock, copy the live
// residuals into the session's scratch snapshot, run the mapper or the
// router on that copy, and commit the net effect to the live ledger
// atomically before unlocking. Every concurrent history of a session is
// therefore the serial execution of its commit order — the paper's one
// environment at a time (§3.2) — and a failed attempt leaves the ledger
// untouched. Concurrency is across sessions, each with its own lock.
//
// Besides the ledger and its deployments, the session owns three pieces
// of state it reuses from one operation to the next, all under the same
// lock: the scratch snapshot every attempt runs on (snap), the
// transaction every commit goes through (txn) and the Networking
// stage's latency tables (ar).
type Session struct {
	mu sync.Mutex
	// c is the immutable cluster, readable without the lock; s.led is
	// guarded state and must not be touched off-lock.
	c      *cluster.Cluster
	led    *cluster.Ledger //hmn:guardedby mu
	mapper *HMN
	// active maps each deployed environment to its admission sequence
	// number and caller tag. The sequence is the session's only ordering
	// authority: eviction and repair process environments oldest-first,
	// so failure handling is deterministic (the repo-wide rule that all
	// randomness flows through explicit seeds extends to iteration
	// order). The tag is an opaque caller label (hmnd's environment ID)
	// that rides the commit events and snapshots so a recovered daemon
	// can re-bind its HTTP identifiers; repairs carry it over.
	active  map[*mapping.Mapping]activeEntry //hmn:guardedby mu
	nextSeq uint64                           //hmn:guardedby mu
	// ar keeps the Networking stage's latency tables for every
	// admission, repair and migration; see latencyTables.
	ar latencyTables //hmn:guardedby mu
	// snap is the scratch copy of led every attempt speculates on: a
	// cluster.Ledger.Snapshot made on first use, whose arrays SyncFrom
	// then overwrites in place, so an attempt copies the ledger without
	// allocating a clone. One suffices — attempts never overlap.
	snap *cluster.Ledger //hmn:guardedby mu
	// txn is the reusable admission transaction every commit funnels
	// through; epoch-stamped reset makes reuse O(touched), not O(state).
	txn *cluster.Txn //hmn:guardedby mu

	// hook observes every committed operation in commit order, under the
	// lock; see SetCommitHook. opCount is the per-session operation
	// index the events are stamped with.
	hook    func(Event) //hmn:guardedby mu
	opCount uint64      //hmn:guardedby mu
	// closed is set by Close; every later operation is refused.
	closed bool //hmn:guardedby mu
}

// activeEntry is the session-side bookkeeping of one deployed
// environment: its admission sequence number and the caller's tag.
type activeEntry struct {
	seq uint64
	tag string
}

// NewSession opens a session on c with the VMM overhead deducted once.
// mapper is the HMN every environment is mapped with; nil means a
// default HMN. No other Mapper can run incrementally (the retrying
// baselines rebuild their ledgers internally), so any other is refused.
func NewSession(c *cluster.Cluster, overhead cluster.VMMOverhead, mapper Mapper) (*Session, error) {
	led, err := cluster.NewLedger(c, overhead)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	h, err := sessionHMN(mapper, overhead)
	if err != nil {
		return nil, err
	}
	return &Session{
		c:      c,
		led:    led,
		mapper: h,
		active: make(map[*mapping.Mapping]activeEntry),
	}, nil
}

// MapperByName resolves the wire name of the session mapper — "HMN", also
// the default for an empty name — shared by the HTTP layer and WAL
// recovery so a logged session reopens with exactly the mapper it ran
// with.
func MapperByName(name string, overhead cluster.VMMOverhead) (Mapper, error) {
	if name != "" && name != "HMN" {
		return nil, fmt.Errorf("unknown mapper %q (want HMN)", name)
	}
	return &HMN{Overhead: overhead}, nil
}

// sessionHMN is the HMN a session runs for mapper: mapper itself, or a
// default one with the session's overhead when mapper is nil.
func sessionHMN(mapper Mapper, overhead cluster.VMMOverhead) (*HMN, error) {
	if mapper == nil {
		return &HMN{Overhead: overhead}, nil
	}
	h, ok := mapper.(*HMN)
	if !ok {
		return nil, fmt.Errorf("session: mapper %s cannot run incrementally (only HMN can)", mapper.Name())
	}
	return h, nil
}

// Cluster returns the session's cluster.
func (s *Session) Cluster() *cluster.Cluster { return s.c }

// Active returns the number of environments currently deployed.
func (s *Session) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

// ResidualProc returns a snapshot of the residual CPU per host, in host
// declaration order — the live rproc vector across all deployed
// environments.
func (s *Session) ResidualProc() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.ResidualProcAll()
}

// ObjectiveStdDev returns the live Eq. (10) objective — the population
// standard deviation of residual CPU across hosts — from the ledger's
// incremental Σ/Σ² accumulators, in O(1).
func (s *Session) ObjectiveStdDev() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.ObjectiveStdDev()
}

// AdmitStats reports how one Map call was admitted.
type AdmitStats struct {
	// CommitSeconds is the admission's share of the lock-hold that is not
	// the mapper: syncing the scratch snapshot, then validate-and-commit
	// and the commit hook.
	CommitSeconds float64
	// Route counts the admission's A*Prune work: searches, candidates
	// popped and pushed.
	Route graph.SearchStats
	// Stages is the mapper's share of the lock-hold by stage — the three
	// times Figure 1 is drawn from — with stage 2's counters.
	Stages StageStats
}

// Map deploys v against the session's current residual resources. On
// failure the residuals are left exactly as they were (the attempt runs
// on the scratch snapshot and commits atomically).
func (s *Session) Map(v *virtual.Env) (*mapping.Mapping, error) {
	m, _, err := s.MapTagged(v, "")
	return m, err
}

// scratchLocked overwrites the session's scratch snapshot with the live
// ledger (SyncFrom: a flat copy of every row, no allocation) and returns
// it, for one attempt to speculate on. Callers hold s.mu until they are
// done with it.
//
//hmn:locked mu
func (s *Session) scratchLocked() *cluster.Ledger {
	if s.snap == nil {
		s.snap = s.led.Snapshot()
	}
	s.snap.SyncFrom(s.led)
	return s.snap
}

// MapTagged is Map reporting how the admission went (AdmitStats), with a
// caller tag attached to it:
// the tag rides the commit event and the session snapshot (hmnd passes
// its environment ID), and repairs carry it to replacement mappings.
//
// It is one lock-hold around mapLocked, so its verdict is the serial
// execution's: contention can never reject an environment the residuals
// can hold, nor admit one onto hosts Hosting would no longer choose.
func (s *Session) MapTagged(v *virtual.Env, tag string) (*mapping.Mapping, AdmitStats, error) {
	var st AdmitStats
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, st, ErrSessionClosed
	}
	m, seq, err := s.mapLocked(v, tag, &st)
	if err != nil {
		return nil, st, err
	}
	start := time.Now() //hmn:wallclock
	s.emitAdmitLocked(seq, tag, v, m)
	st.CommitSeconds += time.Since(start).Seconds() //hmn:wallclock
	return m, st, nil
}

// mapLocked is the session's one mapping attempt, shared by admission
// and repair: sync the scratch snapshot from the live ledger, run the
// mapper on it — never on the live ledger, so a mapping that fails
// half-way leaves no reservation behind — then collapse the finished
// mapping into the reusable transaction and commit it. The snapshot is
// the live state for the whole attempt (the caller holds s.mu), so a
// mapper error is final and the commit cannot lose a race.
//
// The per-attempt allocations live in the constructors it calls
// (mapping.New, the scratch pools); TestAdmissionAllocsBudget holds the
// total.
//
//hmn:locked mu
func (s *Session) mapLocked(v *virtual.Env, tag string, st *AdmitStats) (*mapping.Mapping, uint64, error) {
	start := time.Now() //hmn:wallclock
	snap := s.scratchLocked()
	st.CommitSeconds += time.Since(start).Seconds() //hmn:wallclock

	m := mapping.New(s.c, v)
	ms := getMapScratch()
	err := stages(s.mapper, snap, v, m, &s.ar, ms, &st.Stages)
	st.Route.Add(st.Stages.Route)
	putMapScratch(ms)
	if err != nil {
		return nil, 0, err
	}

	start = time.Now() //hmn:wallclock
	seq, err := s.commitTxnLocked(v, m, tag)
	st.CommitSeconds += time.Since(start).Seconds() //hmn:wallclock
	if err != nil {
		return nil, 0, err
	}
	return m, seq, nil
}

// fillAdmissionTxn collapses a finished mapping into its net effect on
// the ledger — each guest's demands on its final host and each path's
// bandwidth — accumulated into txn, which must be fresh or Reset.
// Intermediate moves the Migration stage made cancel out by
// construction, so validating the transaction is validating Eq. (2),
// (3) and (9) for the mapping as committed.
func fillAdmissionTxn(txn *cluster.Txn, v *virtual.Env, m *mapping.Mapping) {
	for g, node := range m.GuestHost {
		guest := v.Guest(virtual.GuestID(g))
		txn.AddGuest(node, guest.Proc, guest.Mem, guest.Stor)
	}
	for l, p := range m.LinkPath {
		txn.AddPath(p, v.Link(l).BW)
	}
}

// commitTxnLocked is the single canonical commit funnel: it collapses m
// into its net transaction, validates it against the live residuals and
// applies it atomically (cluster.Ledger.Commit applies per-host
// aggregates in ascending host order, then per-edge aggregates in
// ascending edge order), then registers m as active under the next
// sequence number. Every admission — mapped, repaired or replayed —
// commits through here, so the live ledger evolves as a
// deterministic sequence of canonical applications keyed by the
// admission sequence; replaying the same sequence (internal/wal)
// reproduces the residual vectors bit-for-bit. Callers hold s.mu.
//
//hmn:locked mu
func (s *Session) commitTxnLocked(v *virtual.Env, m *mapping.Mapping, tag string) (uint64, error) {
	if s.txn == nil {
		s.txn = s.led.NewTxn()
	}
	s.txn.Reset()
	fillAdmissionTxn(s.txn, v, m)
	if err := s.led.Commit(s.txn); err != nil {
		return 0, err
	}
	return s.admitLocked(m, tag), nil
}

// emitAdmitLocked emits an EventAdmit, building the event only when a
// hook is listening: the AdmitInfo allocation otherwise survives every
// steady-state admission for nothing. The operation index advances
// either way (see emitLocked). Callers hold s.mu.
//
//hmn:locked mu
func (s *Session) emitAdmitLocked(seq uint64, tag string, v *virtual.Env, m *mapping.Mapping) {
	if s.hook == nil {
		s.opCount++
		return
	}
	s.emitLocked(Event{Type: EventAdmit, Admit: &AdmitInfo{Seq: seq, Tag: tag, Env: v, M: m}})
}

// admitLocked registers m as active. Callers hold s.mu and have already
// applied m's reservations to s.led.
//
//hmn:locked mu
func (s *Session) admitLocked(m *mapping.Mapping, tag string) uint64 {
	s.nextSeq++
	s.active[m] = activeEntry{seq: s.nextSeq, tag: tag}
	return s.nextSeq
}

// SessionStats are monotonic totals over a session's lifetime.
type SessionStats struct {
	// Conflicts and Fallbacks are always zero: they counted the lost
	// races and serialized retries of optimistic admission, which is
	// gone. They survive only because the frozen benchmark/hmnperf reads
	// them; the next [benchmark] PR deletes both (ROADMAP item 5(c)).
	Conflicts uint64
	Fallbacks uint64
	// ARCacheHits and ARCacheMisses count the latency tables an
	// attempt took from, respectively computed into, the session's
	// kept ones: one per distinct destination host per routing pass.
	ARCacheHits   uint64
	ARCacheMisses uint64
}

// AdmissionStats returns the session's admission counters.
func (s *Session) AdmissionStats() SessionStats {
	s.mu.Lock()
	st := SessionStats{ARCacheHits: s.ar.hits, ARCacheMisses: s.ar.misses}
	s.mu.Unlock()
	return st
}

// ActiveMappings returns the currently deployed mappings in admission
// order, oldest first. Repaired environments carry fresh admission
// numbers, so the slice reflects the order the current deployments were
// committed, not the order their tenants first arrived.
func (s *Session) ActiveMappings() []*mapping.Mapping {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*mapping.Mapping, 0, len(s.active))
	for m := range s.active {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return s.active[out[i]].seq < s.active[out[j]].seq })
	return out
}

// FailedHosts returns how many hosts are currently failed (quarantined).
func (s *Session) FailedHosts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, h := range s.led.Cluster().Hosts() {
		if s.led.Quarantined(h.Node) {
			n++
		}
	}
	return n
}

// CutLinks returns how many physical links are currently cut.
func (s *Session) CutLinks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for e := 0; e < s.led.Cluster().Net().NumEdges(); e++ {
		if s.led.EdgeCut(e) {
			n++
		}
	}
	return n
}

// ErrUnknownTarget is returned by the failure primitives when the named
// node is not a host or the edge ID is out of range.
var ErrUnknownTarget = errors.New("core: no such host or link")

// ErrAlreadyFailed is returned by FailHost/FailLink when the target is
// already failed — failing it again would silently report zero evictions
// and hide that the operator is re-draining a dead target.
var ErrAlreadyFailed = errors.New("core: target is already failed")

// ErrNotFailed is returned by RestoreHost/RestoreLink when the target
// was never failed: an operator typo must not "restore" a healthy host
// and mask the still-failed one.
var ErrNotFailed = errors.New("core: target is not failed")

// ErrSessionClosed is returned by every operation that would commit to a
// session after Close, and by Close itself the second time.
var ErrSessionClosed = errors.New("core: session is closed")

// Close ends the session in one commit: it emits EventClose, the
// session's last event, and refuses every admission, release, failure,
// restoration and rebalancing move after it. The deployed environments
// are not released one by one — the session, ledger and all, is
// discarded — so an operation that queued behind the close can neither
// commit nor emit an event after it.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.closed = true
	s.emitLocked(Event{Type: EventClose})
	return nil
}

// FailHost models the failure (or administrative draining) of one host:
// no future deployment will place guests on it, and every currently
// active environment that has guests there is evicted from the session —
// its healthy-host resources and path bandwidth are returned, and the
// affected mappings are reported (in admission order, oldest first) so
// their owners can redeploy with Map or hand them to Repair. Unaffected
// environments keep running untouched.
func (s *Session) FailHost(node graph.NodeID) ([]*mapping.Mapping, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	affected, entries, err := s.failHostLocked(node)
	if err != nil {
		return nil, err
	}
	s.emitLocked(Event{Type: EventFail, Fail: &FailInfo{Kind: "host", Target: int(node), Evicted: seqsOf(entries)}})
	return affected, nil
}

//hmn:locked mu
func (s *Session) failHostLocked(node graph.NodeID) ([]*mapping.Mapping, []activeEntry, error) {
	if s.closed {
		return nil, nil, ErrSessionClosed
	}
	if !s.led.Cluster().IsHost(node) {
		return nil, nil, fmt.Errorf("%w: node %d is not a host", ErrUnknownTarget, node)
	}
	if s.led.Quarantined(node) {
		return nil, nil, fmt.Errorf("%w: host %d", ErrAlreadyFailed, node)
	}
	var affected []*mapping.Mapping
	for m := range s.active {
		for _, h := range m.GuestHost {
			if h == node {
				affected = append(affected, m)
				break
			}
		}
	}
	s.sortByAdmission(affected)
	entries := s.entriesOfLocked(affected)
	// Evict before quarantining: release must restore resources on the
	// failing host too, so the ledger stays consistent if the host is
	// later readmitted.
	for _, m := range affected {
		s.releaseLocked(m)
	}
	s.led.Quarantine(node)
	return affected, entries, nil
}

// entriesOfLocked captures the admission entries (sequence number and
// tag) of ms, which must all be active — the fail paths call it before
// releaseLocked erases the bookkeeping, so the repair engine can carry
// tags to replacement mappings. Callers hold s.mu.
//
//hmn:locked mu
func (s *Session) entriesOfLocked(ms []*mapping.Mapping) []activeEntry {
	if len(ms) == 0 {
		return nil
	}
	entries := make([]activeEntry, len(ms))
	for i, m := range ms {
		entries[i] = s.active[m]
	}
	return entries
}

// seqsOf projects captured entries onto their sequence numbers.
func seqsOf(entries []activeEntry) []uint64 {
	if len(entries) == 0 {
		return nil
	}
	seqs := make([]uint64, len(entries))
	for i, e := range entries {
		seqs[i] = e.seq
	}
	return seqs
}

// FailLink models the failure of one physical link: no future routing
// will cross it, and every active environment whose paths use it is
// evicted (resources returned) and reported in admission order for
// redeployment. Guests are unaffected directly — only the routing
// changes — but the environment is evicted as a whole, since its
// remaining paths hold reservations sized for the old routing; Repair
// restores the placements and re-routes only the broken paths when it
// can.
func (s *Session) FailLink(edgeID int) ([]*mapping.Mapping, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	affected, entries, err := s.failLinkLocked(edgeID)
	if err != nil {
		return nil, err
	}
	s.emitLocked(Event{Type: EventFail, Fail: &FailInfo{Kind: "link", Target: edgeID, Evicted: seqsOf(entries)}})
	return affected, nil
}

//hmn:locked mu
func (s *Session) failLinkLocked(edgeID int) ([]*mapping.Mapping, []activeEntry, error) {
	if s.closed {
		return nil, nil, ErrSessionClosed
	}
	if edgeID < 0 || edgeID >= s.led.Cluster().Net().NumEdges() {
		return nil, nil, fmt.Errorf("%w: edge %d out of range", ErrUnknownTarget, edgeID)
	}
	if s.led.EdgeCut(edgeID) {
		return nil, nil, fmt.Errorf("%w: edge %d", ErrAlreadyFailed, edgeID)
	}
	var affected []*mapping.Mapping
	for m := range s.active {
	scan:
		for _, p := range m.LinkPath {
			for _, eid := range p.Edges {
				if eid == edgeID {
					affected = append(affected, m)
					break scan
				}
			}
		}
	}
	s.sortByAdmission(affected)
	entries := s.entriesOfLocked(affected)
	for _, m := range affected {
		s.releaseLocked(m)
	}
	s.led.CutEdge(edgeID)
	return affected, entries, nil
}

// sortByAdmission orders mappings by their admission sequence number,
// oldest first. Callers hold s.mu and pass mappings still in s.active.
//
//hmn:locked mu
func (s *Session) sortByAdmission(ms []*mapping.Mapping) {
	sort.Slice(ms, func(i, j int) bool { return s.active[ms[i]].seq < s.active[ms[j]].seq })
}

// RestoreLink readmits a previously failed physical link. Restoring a
// link that is not failed returns ErrNotFailed.
func (s *Session) RestoreLink(edgeID int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	if edgeID < 0 || edgeID >= s.led.Cluster().Net().NumEdges() {
		return fmt.Errorf("%w: edge %d out of range", ErrUnknownTarget, edgeID)
	}
	if !s.led.EdgeCut(edgeID) {
		return fmt.Errorf("%w: edge %d", ErrNotFailed, edgeID)
	}
	s.led.RestoreEdge(edgeID)
	s.emitLocked(Event{Type: EventRestore, Restore: &RestoreInfo{Kind: "link", Target: edgeID}})
	return nil
}

// RestoreHost readmits a previously failed host. Restoring a host that
// is not failed returns ErrNotFailed.
func (s *Session) RestoreHost(node graph.NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	if !s.led.Cluster().IsHost(node) {
		return fmt.Errorf("%w: node %d is not a host", ErrUnknownTarget, node)
	}
	if !s.led.Quarantined(node) {
		return fmt.Errorf("%w: host %d", ErrNotFailed, node)
	}
	s.led.Unquarantine(node)
	s.emitLocked(Event{Type: EventRestore, Restore: &RestoreInfo{Kind: "host", Target: int(node)}})
	return nil
}

// ErrNotActive is returned by Release for a mapping the session does not
// currently hold.
var ErrNotActive = errors.New("core: mapping is not active in this session")

// Release tears an environment down, returning every resource it held.
func (s *Session) Release(m *mapping.Mapping) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	entry, ok := s.active[m]
	if !ok {
		return ErrNotActive
	}
	s.releaseLocked(m)
	s.emitLocked(Event{Type: EventRelease, ReleaseSeq: entry.seq})
	return nil
}

// ReleaseTagged tears down the environment admitted under tag, whatever
// mapping currently stands for it. A migrate or a repair replaces an
// environment's *mapping.Mapping while its tag and seq stay, so a caller
// that other goroutines' commits can overtake — a daemon with a
// background rebalancer — must name what it releases by tag: a pointer
// it read a moment ago may already be ErrNotActive. The lookup happens
// under the session lock, atomically with the release. Callers keep
// their tags unique; the empty tag, which untagged admissions share,
// names nothing.
func (s *Session) ReleaseTagged(tag string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	if tag != "" {
		for m, entry := range s.active {
			if entry.tag == tag {
				s.releaseLocked(m)
				s.emitLocked(Event{Type: EventRelease, ReleaseSeq: entry.seq})
				return nil
			}
		}
	}
	return ErrNotActive
}

//hmn:locked mu
func (s *Session) releaseLocked(m *mapping.Mapping) {
	for g, node := range m.GuestHost {
		guest := m.Env.Guest(virtual.GuestID(g))
		s.led.ReleaseGuest(node, guest.Proc, guest.Mem, guest.Stor)
	}
	for l, p := range m.LinkPath {
		s.led.ReleaseBandwidth(p, m.Env.Link(l).BW)
	}
	delete(s.active, m)
}

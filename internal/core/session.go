package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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
// testbed its §6 envisions (and to the HMN-C consolidation use case,
// where freed hosts host the next experiment). Each environment is still
// mapped by a plain Mapper — HMN by default — against a ledger primed
// with the current residuals.
//
// A Session is safe for concurrent use. Map admits optimistically: it
// clones the residual state under a brief lock, runs the full HMN
// pipeline on the private snapshot with no lock held, then re-acquires
// the lock, validates every reservation against the live residuals and
// commits them atomically. A bounded number of conflicts falls back to
// the same attempt with the lock held throughout, so contention can cost
// retries but never an admission that serial execution would have
// accepted.
type Session struct {
	mu sync.Mutex
	// c is the immutable cluster, readable without the lock; s.led is
	// guarded state and must not be touched off-lock.
	c        *cluster.Cluster
	led      *cluster.Ledger //hmn:guardedby mu
	mapper   sessionMapper
	overhead cluster.VMMOverhead
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
	// version counts committed state changes (admissions, releases,
	// failures, restorations). An optimistic attempt records it at
	// snapshot time; an unchanged version at commit time proves the
	// snapshot is still the live state.
	version uint64 //hmn:guardedby mu
	// optimisticRetries bounds the optimistic attempts before Map falls
	// back to mapping under the lock; 0 forces the serialized path.
	optimisticRetries int
	// ar caches Dijkstra latency tables across admissions; see arCache.
	ar *arCache
	// snapFree recycles attempt snapshots: each is a cluster.Ledger.Snapshot
	// whose arrays SyncFrom overwrites in place, so an admission copies
	// the ledger without allocating a clone.
	snapFree []*cluster.Ledger //hmn:guardedby mu
	// txn is the reusable admission transaction every commit funnels
	// through; epoch-stamped reset makes reuse O(touched), not O(state).
	txn *cluster.Txn //hmn:guardedby mu

	// hook observes every committed operation in commit order, under the
	// lock; see SetCommitHook. opCount is the per-session operation
	// index the events are stamped with.
	hook    func(Event) //hmn:guardedby mu
	opCount uint64      //hmn:guardedby mu

	optimisticCommits atomic.Uint64
	conflicts         atomic.Uint64
	fallbacks         atomic.Uint64
}

// activeEntry is the session-side bookkeeping of one deployed
// environment: its admission sequence number and the caller's tag.
type activeEntry struct {
	seq uint64
	tag string
}

// defaultOptimisticRetries is how many optimistic attempts Map makes
// before serializing. Conflicts need the live residuals to move during
// the few milliseconds a mapping takes, so first retries usually land;
// by the third failure the session is contended enough that the
// serialized path is cheaper than another wasted pipeline run.
const defaultOptimisticRetries = 3

// sessionMapper is the subset of mappers a session can drive
// incrementally: they must accept a pre-primed ledger. HMN and its
// variants qualify; the retrying baselines do not (they rebuild ledgers
// internally).
type sessionMapper interface {
	// arc is the session's Dijkstra-table cache; one-shot callers pass
	// nil and recompute per mapping. ms carries the attempt's reusable
	// buffers (may be nil, which allocates per call).
	mapOnLedger(led *cluster.Ledger, v *virtual.Env, m *mapping.Mapping, arc *arCache, ms *mapScratch) error
	// rerouteOnLedger re-runs only the Networking stage for the named
	// virtual links, keeping guest placements fixed — the repair
	// engine's cheap path after a link failure.
	rerouteOnLedger(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path, linkIDs []int, arc *arCache, ms *mapScratch) error
}

// mapOnLedger runs the three HMN stages against an existing ledger. One
// host index serves Hosting and Migration; its ledger hook is detached
// before returning so the ledger outlives the attempt hook-free.
func (h *HMN) mapOnLedger(led *cluster.Ledger, v *virtual.Env, m *mapping.Mapping, arc *arCache, ms *mapScratch) error {
	hi := newHostIndexIn(led, !h.DisableHostResort, ms)
	defer led.SetProcHook(nil)
	if err := hostingIndexedIn(led, v, m.GuestHost, hi, ms); err != nil {
		return fmt.Errorf("HMN hosting stage: %w", err)
	}
	if !h.DisableMigration {
		migrateScoped(led, v, m.GuestHost, h.Metric, h.MaxMigrations, h.Scope, hi, h.ExactObjective, nil, ms)
	}
	if err := network(led, v, m.GuestHost, m.LinkPath, h.NetworkOrder, h.AStar, h.Rand, arc, ms); err != nil {
		return fmt.Errorf("HMN networking stage: %w", err)
	}
	return nil
}

// rerouteOnLedger re-routes a link subset with HMN's Networking options.
func (h *HMN) rerouteOnLedger(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path, linkIDs []int, arc *arCache, ms *mapScratch) error {
	return routeLinks(led, v, assign, paths, linkIDs, h.NetworkOrder, h.AStar, h.Rand, arc, ms)
}

// mapOnLedger runs Hosting, consolidation and Networking against an
// existing ledger.
func (x *Consolidator) mapOnLedger(led *cluster.Ledger, v *virtual.Env, m *mapping.Mapping, arc *arCache, ms *mapScratch) error {
	hi := newHostIndexIn(led, true, ms)
	defer led.SetProcHook(nil)
	if err := hostingIndexedIn(led, v, m.GuestHost, hi, ms); err != nil {
		return fmt.Errorf("HMN-C hosting stage: %w", err)
	}
	consolidateIndexed(led, v, m.GuestHost, x.MaxPasses, hi)
	if err := network(led, v, m.GuestHost, m.LinkPath, OrderDescendingBW, x.AStar, nil, arc, ms); err != nil {
		return fmt.Errorf("HMN-C networking stage: %w", err)
	}
	return nil
}

// rerouteOnLedger re-routes a link subset with HMN-C's Networking options.
func (x *Consolidator) rerouteOnLedger(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, paths []graph.Path, linkIDs []int, arc *arCache, ms *mapScratch) error {
	return routeLinks(led, v, assign, paths, linkIDs, OrderDescendingBW, x.AStar, nil, arc, ms)
}

// NewSession opens a session on c with the VMM overhead deducted once.
// mapper selects the placement algorithm for every environment; nil
// means a default HMN. Only HMN and Consolidator values are accepted.
func NewSession(c *cluster.Cluster, overhead cluster.VMMOverhead, mapper Mapper) (*Session, error) {
	led, err := cluster.NewLedger(c, overhead)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	sm, err := sessionMapperFor(mapper, overhead)
	if err != nil {
		return nil, err
	}
	return &Session{
		c:                 c,
		led:               led,
		mapper:            sm,
		overhead:          overhead,
		active:            make(map[*mapping.Mapping]activeEntry),
		optimisticRetries: defaultOptimisticRetries,
		ar:                newARCache(),
	}, nil
}

// MapperByName resolves the wire name of a session-capable mapper —
// "HMN" (also the default for an empty name) or "HMN-C" — shared by the
// HTTP layer and WAL recovery so a logged session reopens with exactly
// the mapper it ran with.
func MapperByName(name string, overhead cluster.VMMOverhead) (Mapper, error) {
	switch name {
	case "", "HMN":
		return &HMN{Overhead: overhead}, nil
	case "HMN-C":
		return &Consolidator{Overhead: overhead}, nil
	default:
		return nil, fmt.Errorf("unknown mapper %q (want HMN or HMN-C)", name)
	}
}

// sessionMapperFor validates that mapper can drive a session
// incrementally; nil selects the default HMN.
func sessionMapperFor(mapper Mapper, overhead cluster.VMMOverhead) (sessionMapper, error) {
	switch m := mapper.(type) {
	case nil:
		return &HMN{Overhead: overhead}, nil
	case sessionMapper:
		return m, nil
	default:
		return nil, fmt.Errorf("session: mapper %s cannot run incrementally (needs a ledger-driven mapper such as HMN or HMN-C)", mapper.Name())
	}
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
	// Conflicts is how many optimistic attempts lost their validation
	// race and were retried.
	Conflicts int
	// Fallback reports that the admission exhausted its optimistic
	// retries and ran fully serialized under the session lock.
	Fallback bool
	// CommitSeconds is the total time spent holding the session lock —
	// the snapshot clone plus every validate-and-commit (or, on the
	// fallback, the whole serialized mapping).
	CommitSeconds float64
	// Route counts the A*Prune work of every attempt the admission made,
	// lost races included: searches, candidates popped and pushed.
	Route graph.SearchStats
}

// Map deploys v against the session's current residual resources. On
// failure the residuals are left exactly as they were (every attempt
// runs on a private snapshot and commits atomically).
func (s *Session) Map(v *virtual.Env) (*mapping.Mapping, error) {
	m, _, err := s.MapTagged(v, "")
	return m, err
}

// MapWithStats is Map, also reporting how the admission went: how many
// optimistic attempts conflicted, whether the serialized fallback ran,
// and the time spent holding the session lock. The mapping result is
// identical either way.
func (s *Session) MapWithStats(v *virtual.Env) (*mapping.Mapping, AdmitStats, error) {
	return s.MapTagged(v, "")
}

// snapshotLocked hands out an attempt snapshot of the live ledger:
// a recycled one overwritten in place by SyncFrom (a flat copy of
// every row, no allocation), or a fresh cluster.Ledger.Snapshot when
// the pool is empty. Callers hold s.mu and must return the snapshot
// with freeSnapshotLocked once the attempt is over.
//
//hmn:locked mu
//hmn:noalloc
func (s *Session) snapshotLocked() *cluster.Ledger {
	if n := len(s.snapFree); n > 0 {
		snap := s.snapFree[n-1]
		s.snapFree[n-1] = nil
		s.snapFree = s.snapFree[:n-1]
		snap.SyncFrom(s.led)
		return snap
	}
	return s.led.Snapshot()
}

// freeSnapshotLocked recycles an attempt snapshot. Callers hold s.mu
// and must not touch snap afterwards.
//
//hmn:locked mu
//hmn:noalloc
func (s *Session) freeSnapshotLocked(snap *cluster.Ledger) {
	s.snapFree = append(s.snapFree, snap) //hmn:allocok grows to the high-water snapshot count, then recycles
}

// MapTagged is MapWithStats with a caller tag attached to the admission:
// the tag rides the commit event and the session snapshot (hmnd passes
// its environment ID), and repairs carry it to replacement mappings.
//
// It is a retry loop around admitOnce, the session's one admission
// attempt: up to optimisticRetries attempts map with no lock held, and
// the one after them holds the lock across the mapping, so its verdict
// is the serial path's — contention can never reject an environment the
// residuals can hold.
//
// The loop and the attempt are annotated allocation-free: the
// per-attempt allocations live in the designated constructors they call
// (mapping.New, the scratch pools), so any new allocating construct
// added here is a hotpathalloc diagnostic.
//
//hmn:noalloc
func (s *Session) MapTagged(v *virtual.Env, tag string) (*mapping.Mapping, AdmitStats, error) {
	var st AdmitStats
	for try := 0; ; try++ {
		if try >= s.optimisticRetries {
			st.Fallback = true
			s.fallbacks.Add(1)
		}
		m, final, err := s.admitOnce(v, tag, st.Fallback, &st)
		if final {
			return m, st, err
		}
		// A conflicting commit, or a mapping failure on residuals that
		// have since changed (the failure may be stale): retry against a
		// fresh snapshot.
		st.Conflicts++
		s.conflicts.Add(1)
	}
}

// admitOnce is one admission attempt: pin a snapshot of the live ledger
// under the lock, run the mapper on it, then — under the lock again —
// validate the mapping's net demands against the live residuals, commit
// them atomically and emit the admit event. held keeps the lock across
// the mapping (the serialized attempt); otherwise the expensive part —
// hosting, migration and every A*Prune search — runs with no lock held
// and other commits may land meanwhile.
//
// final reports whether the outcome stands. A success always does. A
// failure does only if nothing committed since the snapshot was taken,
// because then the snapshot IS the live state and the failure is the
// serialized semantics; once the state has moved, a mapping error may be
// stale and a refused commit is a lost validation race (the mapping
// would still have been admissible had its final placements and path
// bandwidths fitted the live residuals — Commit checks exactly that and
// applies atomically, or rejects without touching the ledger), so the
// caller retries. A held attempt never sees the state move.
//
//hmn:noalloc
func (s *Session) admitOnce(v *virtual.Env, tag string, held bool, st *AdmitStats) (m *mapping.Mapping, final bool, err error) {
	start := time.Now() //hmn:wallclock
	s.mu.Lock()
	snap := s.snapshotLocked()
	ver := s.version
	if !held {
		s.mu.Unlock()
		st.CommitSeconds += time.Since(start).Seconds() //hmn:wallclock
	}

	m = mapping.New(s.c, v)
	ms := getMapScratch()
	err = s.mapper.mapOnLedger(snap, v, m, s.ar, ms)
	st.Route.Add(ms.route)
	putMapScratch(ms)

	if !held {
		start = time.Now() //hmn:wallclock
		s.mu.Lock()
	}
	s.freeSnapshotLocked(snap)
	live := s.version == ver
	if err == nil {
		var seq uint64
		if seq, err = s.commitTxnLocked(v, m, tag); err == nil {
			s.emitAdmitLocked(seq, tag, v, m)
		}
	}
	s.mu.Unlock()
	st.CommitSeconds += time.Since(start).Seconds() //hmn:wallclock
	if err != nil {
		return nil, live, err
	}
	if !held {
		s.optimisticCommits.Add(1)
	}
	return m, true, nil
}

// admissionTxn collapses a finished mapping into its net effect on the
// ledger: each guest's demands on its final host and each path's
// bandwidth. Intermediate moves the Migration stage made cancel out by
// construction, so validating the transaction is validating Eq. (2),
// (3) and (9) for the mapping as committed.
func admissionTxn(led *cluster.Ledger, v *virtual.Env, m *mapping.Mapping) *cluster.Txn {
	txn := led.NewTxn()
	fillAdmissionTxn(txn, v, m)
	return txn
}

// fillAdmissionTxn accumulates m's net effect into txn, which must be
// fresh or Reset. Split from admissionTxn so the session's commit funnel
// can reuse one transaction across admissions.
//
//hmn:noalloc
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
// sequence number. Every admission — optimistic, serialized, repaired
// or replayed — commits through here, so the live ledger evolves as a
// deterministic sequence of canonical applications keyed by the
// admission sequence; replaying the same sequence (internal/wal)
// reproduces the residual vectors bit-for-bit. Callers hold s.mu.
//
//hmn:locked mu
//hmn:noalloc
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
//hmn:noalloc
func (s *Session) emitAdmitLocked(seq uint64, tag string, v *virtual.Env, m *mapping.Mapping) {
	if s.hook == nil {
		s.opCount++
		return
	}
	s.emitLocked(Event{Type: EventAdmit, Admit: &AdmitInfo{Seq: seq, Tag: tag, Env: v, M: m}}) //hmn:allocok built only when a hook is listening; the early return above covers steady state
}

// admitLocked registers m as active and bumps the version. Callers hold
// s.mu and have already applied m's reservations to s.led.
//
//hmn:locked mu
//hmn:noalloc
func (s *Session) admitLocked(m *mapping.Mapping, tag string) uint64 {
	s.version++
	s.nextSeq++
	s.active[m] = activeEntry{seq: s.nextSeq, tag: tag}
	return s.nextSeq
}

// SessionStats are monotonic totals over a session's lifetime.
type SessionStats struct {
	// OptimisticCommits counts admissions committed without holding the
	// lock during mapping.
	OptimisticCommits uint64
	// Conflicts counts optimistic attempts that lost their validation
	// race (each conflicted Map can contribute several).
	Conflicts uint64
	// Fallbacks counts admissions that ran on the serialized path.
	Fallbacks uint64
	// ARCacheHits and ARCacheMisses count Dijkstra latency-table
	// lookups served from, respectively filled into, the session cache.
	ARCacheHits   uint64
	ARCacheMisses uint64
}

// AdmissionStats returns the session's admission counters.
func (s *Session) AdmissionStats() SessionStats {
	return SessionStats{
		OptimisticCommits: s.optimisticCommits.Load(),
		Conflicts:         s.conflicts.Load(),
		Fallbacks:         s.fallbacks.Load(),
		ARCacheHits:       s.ar.hits.Load(),
		ARCacheMisses:     s.ar.misses.Load(),
	}
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
	s.version++
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
	s.version++
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
	if edgeID < 0 || edgeID >= s.led.Cluster().Net().NumEdges() {
		return fmt.Errorf("%w: edge %d out of range", ErrUnknownTarget, edgeID)
	}
	if !s.led.EdgeCut(edgeID) {
		return fmt.Errorf("%w: edge %d", ErrNotFailed, edgeID)
	}
	s.led.RestoreEdge(edgeID)
	s.version++
	s.emitLocked(Event{Type: EventRestore, Restore: &RestoreInfo{Kind: "link", Target: edgeID}})
	return nil
}

// RestoreHost readmits a previously failed host. Restoring a host that
// is not failed returns ErrNotFailed.
func (s *Session) RestoreHost(node graph.NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.led.Cluster().IsHost(node) {
		return fmt.Errorf("%w: node %d is not a host", ErrUnknownTarget, node)
	}
	if !s.led.Quarantined(node) {
		return fmt.Errorf("%w: host %d", ErrNotFailed, node)
	}
	s.led.Unquarantine(node)
	s.version++
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
	s.version++
}

package core

import (
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// This file is the session's durability boundary: every state-changing
// commit emits exactly one Event, in commit order, while the session
// lock is held. A subscriber (the hmnd WAL, internal/wal) serializes the
// events into an operation log; replaying them in the same order against
// the same starting state reconstructs the ledger bit-for-bit, because
// all commits funnel through the same canonical application path
// (cluster.Txn for admissions, per-guest/per-link releases for
// teardowns).
//
// Events carry live pointers (*virtual.Env, *mapping.Mapping). The hook
// runs synchronously under the session mutex, so it must not call back
// into the session; it should serialize (or enqueue) and return.

// Event is one committed session operation. Exactly one of the payload
// fields is set, per Type.
type Event struct {
	// Index is the session's operation index: a per-session counter
	// incremented once per emitted event, under the lock, starting at 1.
	// Snapshots record the counter's value; replay skips events at or
	// below it.
	Index uint64
	// Type discriminates the payload.
	Type EventType

	// Admit is set for EventAdmit.
	Admit *AdmitInfo
	// ReleaseSeq is set for EventRelease: the admission sequence number
	// of the released environment.
	ReleaseSeq uint64
	// Fail is set for EventFail.
	Fail *FailInfo
	// Restore is set for EventRestore.
	Restore *RestoreInfo
	// Migrate is set for EventMigrate.
	Migrate *MigrateInfo
}

// EventType enumerates the session operations the hook observes.
type EventType int

const (
	// EventAdmit is one environment admitted by Map.
	EventAdmit EventType = iota
	// EventRelease is one environment released.
	EventRelease
	// EventFail is a host failure or link cut, together with the
	// evictions it caused and the repair outcomes (when the failure ran
	// through FailHostAndRepair / FailLinkAndRepair).
	EventFail
	// EventRestore is a host or link readmission.
	EventRestore
	// EventMigrate is one committed rebalance plan: one or more guests
	// relocated atomically, with their environments' mappings replaced in
	// place (same seq, same tag).
	EventMigrate
	// EventClose is the session's last event (Close): its environments
	// stay where they are, and nothing commits after it.
	EventClose
)

// String names the event type for logs and the hmnwal inspector.
func (t EventType) String() string {
	switch t {
	case EventAdmit:
		return "admit"
	case EventRelease:
		return "release"
	case EventFail:
		return "fail"
	case EventRestore:
		return "restore"
	case EventMigrate:
		return "migrate"
	case EventClose:
		return "close"
	default:
		return "unknown"
	}
}

// AdmitInfo describes one committed admission.
type AdmitInfo struct {
	// Seq is the admission sequence number the session assigned.
	Seq uint64
	// Tag is the caller-supplied opaque label (hmnd uses the
	// environment ID); empty for untagged admissions.
	Tag string
	// Env is the admitted environment.
	Env *virtual.Env
	// M is the committed mapping.
	M *mapping.Mapping
}

// FailInfo describes a host failure or link cut.
type FailInfo struct {
	// Kind is "host" or "link".
	Kind string
	// Target is the host node ID or the edge ID.
	Target int
	// Evicted lists the admission sequence numbers of the environments
	// the failure evicted, in admission order.
	Evicted []uint64
	// Repairs reports the repair engine's outcome per evicted
	// environment, in the same order as Evicted; nil when the failure
	// ran without the repair engine (plain FailHost/FailLink).
	Repairs []RepairInfo
}

// RepairInfo is the fate of one evicted environment.
type RepairInfo struct {
	// OldSeq is the admission sequence number of the evicted mapping.
	OldSeq uint64
	// Outcome classifies the repair.
	Outcome RepairOutcome
	// NewSeq is the sequence number of the replacement mapping; 0 when
	// unrecoverable.
	NewSeq uint64
	// Tag is the caller tag the replacement inherited from the evicted
	// admission.
	Tag string
	// M is the replacement mapping; nil when unrecoverable.
	M *mapping.Mapping
}

// MigrateInfo describes one committed migrate plan: the guest-level
// moves and, per touched environment, the replacement mapping that now
// carries the environment under its original admission seq and tag.
type MigrateInfo struct {
	// Moves lists the guest relocations, in the canonical commit order
	// (environments by ascending seq, guests ascending within each).
	Moves []GuestMove
	// Envs holds one entry per touched environment, ascending by seq.
	Envs []MigrateEnvInfo
	// Delta is the Eq. (10) objective change the commit realized
	// (negative: the plan improved load balance).
	Delta float64
}

// MigrateEnvInfo is one environment whose mapping a migrate replaced.
type MigrateEnvInfo struct {
	// Seq is the environment's admission sequence number, unchanged by
	// the migration.
	Seq uint64
	// Tag is the caller tag, unchanged by the migration.
	Tag string
	// Env is the environment, unchanged by the migration.
	Env *virtual.Env
	// M is the replacement mapping now registered under Seq.
	M *mapping.Mapping
}

// RestoreInfo describes a host or link readmission.
type RestoreInfo struct {
	// Kind is "host" or "link".
	Kind string
	// Target is the host node ID or the edge ID.
	Target int
}

// SetCommitHook installs fn to observe every committed operation, in
// commit order, called while the session lock is held. Passing nil
// detaches. At most one hook is active. The hook must not call back into
// the session (it would deadlock); hmnd's hook appends a WAL record and
// returns, leaving the fsync to the ack path.
//
// The hook should be attached before the session serves traffic (hmnd
// attaches it right after NewSession / RestoreSession): events are not
// buffered, and the per-session operation index advances whether or not
// a hook is listening.
func (s *Session) SetCommitHook(fn func(Event)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = fn
}

// OpCount returns the session's operation index: how many events the
// session has emitted (or would have emitted) so far.
func (s *Session) OpCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opCount
}

// emitLocked stamps ev with the next operation index and delivers it to
// the hook, if any. The index advances even without a hook so a
// snapshot's operation boundary is meaningful whether durability was
// enabled from the start or attached later. Callers hold s.mu.
//
//hmn:locked mu
func (s *Session) emitLocked(ev Event) {
	s.opCount++
	if s.hook != nil {
		ev.Index = s.opCount
		s.hook(ev)
	}
}

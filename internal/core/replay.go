package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// This file is the recovery half of the durability boundary (see
// events.go): Export captures a session's state at a snapshot point, and
// the Replay* methods re-apply logged operations against a restored
// session. Replay never re-runs the mapper — a later build may break a
// tie differently, and logs written before admission was serialized hold
// placements a re-map would not reproduce — so the log records *effects*
// (the committed mapping), and replay commits the recorded mapping
// through the same canonical funnel (commitTxnLocked) the live run used.
// Identical canonical applications in identical order from identical
// starting state reproduce the residual vectors bit-for-bit.
//
// Every Replay* method verifies the sequence numbers it assigns against
// the ones the log recorded and refuses to diverge: a mismatch means the
// log and the snapshot do not belong together, and silently continuing
// would corrupt every admission after it.

// ErrReplayDiverged is returned by the Replay* methods when re-applying
// a logged operation does not reproduce the recorded sequence numbers or
// evictions — the log does not extend the state it is being replayed
// onto.
var ErrReplayDiverged = errors.New("core: replay diverged from the log")

// ActiveExport is one deployed environment in a session export.
type ActiveExport struct {
	// Seq is the admission sequence number.
	Seq uint64
	// Tag is the caller tag the admission carried.
	Tag string
	// M is the live mapping (its Env field names the environment).
	M *mapping.Mapping
}

// SessionExport is the full mutable state of a session at one operation
// boundary: the ledger residuals, the deployed environments in admission
// order, and the counters replay needs to line the log suffix up.
type SessionExport struct {
	// Ledger is the residual state (see cluster.LedgerState for what is
	// and is not bit-exact across a restore).
	Ledger cluster.LedgerState
	// Active lists the deployed environments, sequence-ascending.
	Active []ActiveExport
	// NextSeq is the last admission sequence number assigned.
	NextSeq uint64
	// OpCount is the operation index of the last emitted event; replay
	// skips log records at or below it.
	OpCount uint64
}

// Export captures the session's state for a snapshot. The export shares
// the live *mapping.Mapping and *virtual.Env pointers — the caller
// serializes them (internal/spec) without mutating.
func (s *Session) Export() SessionExport {
	s.mu.Lock()
	defer s.mu.Unlock()
	exp := SessionExport{
		Ledger:  s.led.State(),
		Active:  make([]ActiveExport, 0, len(s.active)),
		NextSeq: s.nextSeq,
		OpCount: s.opCount,
	}
	//hmn:orderinvariant
	for m, e := range s.active {
		exp.Active = append(exp.Active, ActiveExport{Seq: e.seq, Tag: e.tag, M: m})
	}
	sort.Slice(exp.Active, func(i, j int) bool { return exp.Active[i].Seq < exp.Active[j].Seq })
	return exp
}

// RestoreSession rebuilds a session from an export: the ledger residuals
// are restored verbatim, the active environments are re-registered under
// their original sequence numbers and tags, and the sequence/operation
// counters resume where the export left them. mapper follows the same
// rules as NewSession. The caller is responsible for the export's
// mappings being consistent with the restored residuals (they are, when
// the export came from Export on the same cluster).
func RestoreSession(c *cluster.Cluster, overhead cluster.VMMOverhead, mapper Mapper, exp SessionExport) (*Session, error) {
	led, err := cluster.RestoreLedger(c, exp.Ledger)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	h, err := sessionHMN(mapper, overhead)
	if err != nil {
		return nil, err
	}
	s := &Session{
		c:       c,
		led:     led,
		mapper:  h,
		active:  make(map[*mapping.Mapping]activeEntry, len(exp.Active)),
		nextSeq: exp.NextSeq,
		opCount: exp.OpCount,
	}
	for _, a := range exp.Active {
		if a.Seq == 0 || a.Seq > exp.NextSeq {
			return nil, fmt.Errorf("session: export admission seq %d outside [1, %d]", a.Seq, exp.NextSeq)
		}
		if a.M == nil || a.M.Env == nil {
			return nil, fmt.Errorf("session: export admission seq %d has no mapping", a.Seq)
		}
		s.active[a.M] = activeEntry{seq: a.Seq, tag: a.Tag}
	}
	if len(s.active) != len(exp.Active) {
		return nil, fmt.Errorf("session: export lists duplicate mappings")
	}
	return s, nil
}

// ReplayAdmit re-applies one logged admission: the recorded mapping is
// committed through the canonical funnel and must receive wantSeq.
func (s *Session) ReplayAdmit(v *virtual.Env, m *mapping.Mapping, tag string, wantSeq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.replayAdmitLocked(v, m, tag, wantSeq); err != nil {
		return err
	}
	s.emitLocked(Event{Type: EventAdmit, Admit: &AdmitInfo{Seq: wantSeq, Tag: tag, Env: v, M: m}})
	return nil
}

//hmn:locked mu
func (s *Session) replayAdmitLocked(v *virtual.Env, m *mapping.Mapping, tag string, wantSeq uint64) error {
	if s.nextSeq+1 != wantSeq {
		return fmt.Errorf("%w: admit would get seq %d, log recorded %d", ErrReplayDiverged, s.nextSeq+1, wantSeq)
	}
	if _, err := s.commitTxnLocked(v, m, tag); err != nil {
		return fmt.Errorf("%w: logged admission seq %d no longer fits: %v", ErrReplayDiverged, wantSeq, err)
	}
	return nil
}

// ReplayBatch re-applies one logged batch entry, a record kind only
// daemons up to PR 18 wrote (hmnd -batch K > 1 committed several
// admissions under one lock acquisition and logged them as one
// operation). The recorded admissions commit in record order and the
// entry advances the operation index once, as it did live, so every
// later record and snapshot boundary still lines up. No event is
// emitted: nothing writes the kind any more.
func (s *Session) ReplayBatch(admits []AdmitInfo) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range admits {
		if err := s.replayAdmitLocked(a.Env, a.M, a.Tag, a.Seq); err != nil {
			return err
		}
	}
	if len(admits) > 0 {
		s.opCount++
	}
	return nil
}

// ReplayRelease re-applies one logged release by admission sequence.
func (s *Session) ReplayRelease(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.bySeqLocked(seq)
	if m == nil {
		return fmt.Errorf("%w: release of seq %d, which is not active", ErrReplayDiverged, seq)
	}
	s.releaseLocked(m)
	s.emitLocked(Event{Type: EventRelease, ReleaseSeq: seq})
	return nil
}

//hmn:locked mu
func (s *Session) bySeqLocked(seq uint64) *mapping.Mapping {
	for m, e := range s.active {
		if e.seq == seq {
			return m
		}
	}
	return nil
}

// ReplayRepair is the logged fate of one evicted environment, for
// ReplayFail. M and Env are nil for unrecoverable evictions.
type ReplayRepair struct {
	OldSeq uint64
	NewSeq uint64
	Tag    string
	Env    *virtual.Env
	M      *mapping.Mapping
}

// ReplayFail re-applies one logged host failure or link cut. The
// evictions the failure causes must match wantEvicted exactly, and the
// logged repair outcomes (when the failure ran through the repair
// engine) are committed in record order — the recorded replacement
// mappings, not a re-run of the repair engine.
func (s *Session) ReplayFail(kind string, target int, wantEvicted []uint64, repairs []ReplayRepair) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var (
		entries []activeEntry
		err     error
	)
	switch kind {
	case "host":
		_, entries, err = s.failHostLocked(graph.NodeID(target))
	case "link":
		_, entries, err = s.failLinkLocked(target)
	default:
		return fmt.Errorf("%w: fail record has kind %q", ErrReplayDiverged, kind)
	}
	if err != nil {
		return fmt.Errorf("%w: logged %s failure of %d: %v", ErrReplayDiverged, kind, target, err)
	}
	got := seqsOf(entries)
	if len(got) != len(wantEvicted) {
		return fmt.Errorf("%w: %s failure of %d evicted %d environments, log recorded %d",
			ErrReplayDiverged, kind, target, len(got), len(wantEvicted))
	}
	for i := range got {
		if got[i] != wantEvicted[i] {
			return fmt.Errorf("%w: %s failure of %d evicted seq %d at position %d, log recorded %d",
				ErrReplayDiverged, kind, target, got[i], i, wantEvicted[i])
		}
	}
	var infos []RepairInfo
	for _, r := range repairs {
		info := RepairInfo{OldSeq: r.OldSeq, Outcome: RepairUnrecoverable}
		if r.M != nil {
			if err := s.replayAdmitLocked(r.Env, r.M, r.Tag, r.NewSeq); err != nil {
				return err
			}
			info.Outcome, info.NewSeq, info.M = RepairReplaced, r.NewSeq, r.M
		}
		infos = append(infos, info)
	}
	s.emitLocked(Event{Type: EventFail, Fail: &FailInfo{Kind: kind, Target: target, Evicted: wantEvicted, Repairs: infos}})
	return nil
}

// ReplayRestore re-applies one logged host or link readmission.
func (s *Session) ReplayRestore(kind string, target int) error {
	switch kind {
	case "host":
		if err := s.RestoreHost(graph.NodeID(target)); err != nil {
			return fmt.Errorf("%w: logged host restore of %d: %v", ErrReplayDiverged, target, err)
		}
	case "link":
		if err := s.RestoreLink(target); err != nil {
			return fmt.Errorf("%w: logged link restore of %d: %v", ErrReplayDiverged, target, err)
		}
	default:
		return fmt.Errorf("%w: restore record has kind %q", ErrReplayDiverged, kind)
	}
	return nil
}

// MappingBySeq returns the active mapping admitted under seq, or nil.
func (s *Session) MappingBySeq(seq uint64) *mapping.Mapping {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bySeqLocked(seq)
}

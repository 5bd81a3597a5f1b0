package wal

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/spec"
)

// Replayed is one session that survived Replay, with the facts its
// snapshot entry or open record carried about it.
type Replayed struct {
	SID         string
	Session     *core.Session
	Cluster     *cluster.Cluster
	ClusterSpec spec.ClusterSpec
	Mapper      string
	Overhead    cluster.VMMOverhead
	// NextEnv is the environment-ID counter of the session's snapshot
	// entry; zero for a session opened after the snapshot.
	NextEnv uint64
}

// Replay rebuilds the sessions of a recovered data directory: every
// snapshotted session restored at its own operation boundary, then the
// log suffix in append order. Operation records at or below the owning
// session's boundary were already applied by the snapshot and are
// skipped; an open record for a live session is an idempotent no-op; a
// close record retires the session. onRecord, when non-nil, is called
// after each operation record actually re-applied. The surviving
// sessions come back in SID order, with the highest session ordinal the
// directory has ever named — snapshotted, opened or closed — so a
// restarted daemon never reuses a session ID: a reused ID would alias
// the retired session's snapshot boundary at the next recovery and
// silently swallow the new session's low-index records.
func Replay(rec *Recovered, onRecord func(*Replayed, *Record)) (sessions []*Replayed, maxSession int, err error) {
	noteSID := func(sid string) {
		if n, ok := SessionOrdinal(sid); ok && n > maxSession {
			maxSession = n
		}
	}
	live := make(map[string]*Replayed)
	boundary := make(map[string]uint64)
	if rec.Snapshot != nil {
		for _, sn := range rec.Snapshot.Sessions {
			cs, c, err := RestoreSnap(sn)
			if err != nil {
				return nil, 0, err
			}
			live[sn.SID] = &Replayed{
				SID: sn.SID, Session: cs, Cluster: c, ClusterSpec: sn.Cluster, Mapper: sn.Mapper,
				Overhead: cluster.VMMOverhead{Proc: sn.Proc, Mem: sn.Mem, Stor: sn.Stor},
				NextEnv:  sn.NextEnv,
			}
			boundary[sn.SID] = sn.OpCount
			noteSID(sn.SID)
		}
	}
	for i := range rec.Records {
		r := &rec.Records[i]
		noteSID(r.SID)
		switch r.Kind {
		case KindOpen:
			if live[r.SID] != nil {
				continue
			}
			cs, c, err := OpenSession(r)
			if err != nil {
				return nil, 0, err
			}
			live[r.SID] = &Replayed{
				SID: r.SID, Session: cs, Cluster: c, ClusterSpec: r.Open.Cluster, Mapper: r.Open.Mapper,
				Overhead: cluster.VMMOverhead{Proc: r.Open.Proc, Mem: r.Open.Mem, Stor: r.Open.Stor},
			}
		case KindClose:
			// The boundary entry must die with the session: a later open
			// record for the same SID starts a fresh session at index 0,
			// and a stale boundary would skip its records as if the old
			// snapshot had covered them.
			delete(live, r.SID)
			delete(boundary, r.SID)
		default:
			rs := live[r.SID]
			if rs == nil {
				return nil, 0, fmt.Errorf("wal: record %d (%s) names unknown session %s", i, r.Kind, r.SID)
			}
			if r.Index <= boundary[r.SID] {
				continue
			}
			if err := ReplayRecord(rs.Session, r); err != nil {
				return nil, 0, err
			}
			if onRecord != nil {
				onRecord(rs, r)
			}
		}
	}
	for _, rs := range live {
		sessions = append(sessions, rs)
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].SID < sessions[j].SID })
	return sessions, maxSession, nil
}

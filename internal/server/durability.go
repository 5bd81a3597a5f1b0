package server

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/wal"
)

// This file wires the WAL (internal/wal) through the daemon:
//
//   - every session gets a commit hook that appends one record per
//     committed operation, inside the session lock, in commit order;
//   - every mutating handler calls ackBarrier before writing its
//     success response, so a record is durable before its client hears
//     about it (ack-after-log) — a crash can lose unacknowledged work,
//     never acknowledged work;
//   - Recover rebuilds the session table from the latest snapshot plus
//     the log suffix before the daemon starts serving; the /v1 API
//     returns 503 "replaying" until it finishes;
//   - a background loop (and graceful shutdown, after the queue drains)
//     takes full-state snapshots that truncate the log.

// logf reports durability housekeeping through the configured logger.
func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ackBarrier makes every WAL record appended so far durable. Mutating
// handlers call it after their operation commits and before they write
// a success response; with no data directory it is free.
func (s *Server) ackBarrier() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Barrier()
}

// attachWAL installs the session's commit hook. The hook runs under the
// session lock: it serializes the event into a record and buffers it —
// the fsync is paid once per acknowledged request, not per operation.
func (s *Server) attachWAL(sess *session) {
	if s.wal == nil {
		return
	}
	sid, overhead := sess.id, sess.overhead
	sess.core.SetCommitHook(func(ev core.Event) {
		if err := s.wal.Append(wal.RecordFromEvent(sid, overhead, ev)); err != nil {
			// The operation is already committed in memory and cannot be
			// undone here; a failed append faults the log permanently, so
			// the ack-path barrier fails too and no client is ever told
			// the lost operation is durable.
			s.logf("hmnd: wal append (session %s): %v", sid, err)
		}
	})
}

// appendOpen logs a session's open record. Called under s.mu, before
// the session becomes visible, so no operation record can precede it.
//
//hmn:locked mu
func (s *Server) appendOpenLocked(sess *session) {
	if s.wal == nil {
		return
	}
	rec := &wal.Record{Kind: wal.KindOpen, SID: sess.id, Open: &wal.OpenRec{
		Cluster: sess.clusterSpec,
		Mapper:  sess.mapperName,
		Proc:    sess.overhead.Proc,
		Mem:     sess.overhead.Mem,
		Stor:    sess.overhead.Stor,
	}}
	if err := s.wal.Append(rec); err != nil {
		s.logf("hmnd: wal append (open %s): %v", sess.id, err)
	}
}

// appendClose logs a session's close record, after the releases its
// teardown emitted.
func (s *Server) appendClose(sid string) {
	if s.wal == nil {
		return
	}
	if err := s.wal.Append(&wal.Record{Kind: wal.KindClose, SID: sid}); err != nil {
		s.logf("hmnd: wal append (close %s): %v", sid, err)
	}
}

// Recover opens the data directory, rebuilds every session from the
// latest snapshot plus the log suffix, and flips the daemon from
// "replaying" to "serving". It must be called exactly once, before (or
// concurrently with) serving traffic — the /v1 API answers 503 until it
// returns. With no data directory it is a no-op.
//
// When Config.VerifyReplay is set, every recovered session is checked
// before serving: the incremental objective must match a two-pass
// recompute within 1e-9 and the environment registry must agree with
// the session's active count.
func (s *Server) Recover() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	w, recovered, err := wal.Open(s.cfg.DataDir, wal.Hooks{
		OnAppend:   s.mWALRecords.Inc,
		OnFsync:    s.mFsyncLatency.Observe,
		OnSnapshot: s.mSnapshotLatency.Observe,
		Logf:       s.cfg.Logf,
	})
	if err != nil {
		return err
	}
	s.wal = w
	if recovered.TruncatedBytes > 0 {
		s.logf("hmnd: recovery truncated a torn log tail (%d bytes); the records were never acknowledged", recovered.TruncatedBytes)
	}

	// past advances an environment-ID counter beyond the ID tag names,
	// so a recovered daemon never hands out an ID twice.
	past := func(cur int, tag string) int {
		if n, ok := wal.EnvOrdinal(tag); ok && n > cur {
			return n
		}
		return cur
	}
	// Replayed records can name environment IDs the final active sets
	// no longer hold (admitted and released since the snapshot); the
	// counter must still move past them.
	envHigh := make(map[*wal.Replayed]int)
	replayed, maxSession, err := wal.Replay(recovered, func(rs *wal.Replayed, rec *wal.Record) {
		s.mReplayRecords.Inc()
		rec.EachTag(func(tag string) { envHigh[rs] = past(envHigh[rs], tag) })
	})
	if err != nil {
		return err
	}

	// Install. The environment registry is rebuilt from each session's
	// final active set — tags are hmnd's environment IDs, and they
	// survive snapshots, admissions and repairs.
	totalEnvs := 0
	for _, rs := range replayed {
		sess := s.newSession(rs.SID, rs.Session, rs.Overhead, rs.Mapper, rs.ClusterSpec)
		sess.nextEnv = max(int(rs.NextEnv), envHigh[rs])
		for _, a := range sess.core.Export().Active {
			if a.Tag == "" {
				continue
			}
			sess.envs[a.Tag] = struct{}{}
			// Belt and braces on top of the snapshotted NextEnv and the
			// replayed-record bumps: no live environment's ID is ever
			// handed out again, even against a snapshot whose counter
			// lagged its active set.
			sess.nextEnv = past(sess.nextEnv, a.Tag)
		}
		totalEnvs += len(sess.envs)
		if s.cfg.VerifyReplay {
			if err := verifySession(sess); err != nil {
				return err
			}
		}
		s.attachWAL(sess)
		s.attachRebalance(sess)
		sess.stddev.Set(mapping.Objective(sess.core.ResidualProc()))
		s.mu.Lock()
		s.sessions[sess.id] = sess
		s.mu.Unlock()
		// The session is fully replayed and durable; the background loop
		// (if configured) may migrate its guests from here on.
		s.startRebalance(sess)
	}
	s.mu.Lock()
	if maxSession > s.nextSession {
		s.nextSession = maxSession
	}
	s.mu.Unlock()
	s.mSessions.Set(float64(len(replayed)))
	s.mEnvs.Set(float64(totalEnvs))
	s.logf("hmnd: recovered %d sessions, %d environments, replayed %d records",
		len(replayed), totalEnvs, int(s.mReplayRecords.Value()))

	if s.cfg.SnapshotInterval > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(s.cfg.SnapshotInterval)
	}
	s.replaying.Store(false)
	return nil
}

// verifySession cross-checks one recovered session before it serves.
// The session is not yet published, so no handler can race it.
//
//hmn:locked mu
func verifySession(sess *session) error {
	if err := wal.VerifyObjective(sess.core); err != nil {
		return fmt.Errorf("server: session %s %w", sess.id, err)
	}
	if got, want := len(sess.envs), sess.core.Active(); got != want {
		return fmt.Errorf("server: session %s recovered %d environment records for %d active environments", sess.id, got, want)
	}
	return nil
}

// exportAll captures every open session for a snapshot, in session-ID
// order for deterministic snapshot bytes.
func (s *Server) exportAll() ([]wal.SessionSnap, error) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	out := make([]wal.SessionSnap, 0, len(sessions))
	for _, sess := range sessions {
		// The export runs under sess.mu so NextEnv and the core state are
		// one consistent cut: an admission assigns its environment ID
		// under sess.mu *before* it commits in core, so any admission the
		// core export captures already bumped the counter we snapshot.
		// (Lock order is sess.mu → core's lock; the commit hook, which
		// runs under core's lock, never takes sess.mu.)
		sess.mu.Lock()
		if sess.closed {
			sess.mu.Unlock()
			continue
		}
		sn := wal.ExportSession(sess.id, sess.clusterSpec, sess.mapperName, sess.overhead, uint64(sess.nextEnv), sess.core)
		sess.mu.Unlock()
		out = append(out, sn)
	}
	return out, nil
}

// writeSnapshot takes one full-state snapshot and truncates the log.
func (s *Server) writeSnapshot() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.WriteSnapshot(s.exportAll)
}

// snapshotLoop snapshots on a fixed cadence until Close stops it.
func (s *Server) snapshotLoop(interval time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.writeSnapshot(); err != nil {
				s.logf("hmnd: periodic snapshot: %v", err)
			}
		case <-s.snapStop:
			return
		}
	}
}

package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/virtual"
	"repro/internal/wal"
)

// This file is the classic mode: clients open sessions that each bring
// their own cluster, every session is a lock domain on the daemon's one
// WAL, and a mutating request runs on its handler's goroutine under its
// session's lock, behind the drain gate (enter).

// New builds a classic daemon. With a data directory the /v1 API
// answers 503 until Recover has run.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.replaying.Store(cfg.DataDir != "")
	s.mSessions = s.reg.Gauge("hmnd_active_sessions",
		"Sessions currently open.")
	s.rebuild, s.domains, s.envs = s.recoverSessions, s.sessionDomains, s.sessionEnvs

	s.mux.HandleFunc("POST /v1/sessions", s.handleOpenSession)
	s.routeSessions(s.admitToSession, s.releaseFromSession, s.closeSession)
	s.routeDomains("/v1/sessions/{sid}", s.sessionDomain)
	return s
}

// session is a lock domain a client opened. Its environments are core's
// active set: an environment's ID is the tag it was admitted under, and
// every call into core names an environment by it, since a rebalance or
// a repair replaces the mapping without asking.
type session struct {
	*shard.Shard
	// The session's hmnd_maps_*_total{mapper} series, resolved once:
	// admissions used to format and look up all four per request.
	attempted, succeeded, failed, rejected *metrics.Counter

	mu      sync.Mutex
	nextEnv int //hmn:guardedby mu
}

// newSession wraps a domain, opened or recovered, as a session with its
// metrics series.
func (s *Server) newSession(sh *shard.Shard) *session {
	s.reg.GaugeFunc(fmt.Sprintf("hmnd_session_residual_stddev{session=%q}", sh.SID()),
		"Stddev of residual CPU per host (the Eq. 10 objective) per session.",
		func() float64 { return mapping.Objective(sh.Session().ResidualProc()) })
	return &session{
		Shard:     sh,
		attempted: s.mapCounter("attempted", sh.Mapper()),
		succeeded: s.mapCounter("succeeded", sh.Mapper()),
		failed:    s.mapCounter("failed", sh.Mapper()),
		rejected:  s.mapCounter("rejected", sh.Mapper()),
	}
}

// mapCounter returns the per-mapper counter for one outcome.
func (s *Server) mapCounter(outcome, mapper string) *metrics.Counter {
	return s.reg.Counter(
		fmt.Sprintf("hmnd_maps_%s_total{mapper=%q}", outcome, mapper),
		fmt.Sprintf("Environment maps %s, per mapper.", outcome))
}

// openSessions copies the session table.
func (s *Server) openSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	return sessions
}

// sessionDomains lists the open sessions' lock domains.
func (s *Server) sessionDomains() []*shard.Shard {
	sessions := s.openSessions()
	domains := make([]*shard.Shard, len(sessions))
	for i, sess := range sessions {
		domains[i] = sess.Shard
	}
	return domains
}

// sessionEnvs counts the environments deployed across the sessions.
func (s *Server) sessionEnvs() int {
	envs := 0
	for _, sess := range s.openSessions() {
		envs += sess.Session().Active()
	}
	return envs
}

// operate runs op on the handler's goroutine — serialized with the
// session's other operations by its lock — unless the daemon is draining
// or the client gave up before it began, and then passes the ack
// barrier, where concurrent requests share an fsync.
func (s *Server) operate(ctx context.Context, op func() error) error {
	if err := s.enter(); err != nil {
		return err
	}
	defer s.inflight.Done()
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := op(); err != nil {
		return err
	}
	return s.ackBarrier()
}

// ackBarrier makes every WAL record appended so far durable. Mutating
// handlers pass it after their operation commits and before they write
// a success response; with no data directory it is free. The operation
// whose records made a checkpoint due writes it here first, so the log
// a recovery must read stays within a few times the live state.
func (s *Server) ackBarrier() error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Checkpoint(s.exportAll); err != nil {
		s.logf("hmnd: checkpoint: %v", err)
	}
	if err := s.wal.Barrier(); err != nil {
		return fmt.Errorf("%w: %w", errNotDurable, err)
	}
	return nil
}

// --- handlers ---

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req OpenSessionRequest
	if err := spec.DecodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	c, err := req.Cluster.ToCluster()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfg := s.domainCfg
	cfg.Overhead = cluster.VMMOverhead{Proc: req.Overhead.Proc, Mem: req.Overhead.Mem, Stor: req.Overhead.Stor}
	if cfg.Mapper = req.Mapper; cfg.Mapper == "" {
		cfg.Mapper = "HMN"
	}
	if refused(w, s.enter()) {
		return
	}
	defer s.inflight.Done()

	// The domain is opened — its open record appended, its commit hook
	// attached — under the lock that publishes it, with the ID it will
	// be published under: no operation can reach the log ahead of the
	// record that declares its session, and a request the domain layer
	// refuses burns no ID.
	s.mu.Lock()
	id := fmt.Sprintf("s%d", s.nextSession+1)
	sh, err := shard.Open(cfg, id, c, req.Cluster, s.wal)
	if err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.nextSession++
	sess := s.newSession(sh)
	s.sessions[id] = sess
	s.mu.Unlock()
	s.mSessions.Inc()

	if err := s.ackBarrier(); err != nil {
		// The open was never made durable, so the client was never told
		// the session exists: tear it back down rather than leak a
		// serving session a 500-retrying client will never address. The
		// close record is best-effort (the barrier just failed), but if
		// the open did reach disk it keeps a later replay consistent.
		_ = s.retire(id)
		refused(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, OpenSessionResponse{
		ID:     id,
		Mapper: cfg.Mapper,
		Hosts:  c.NumHosts(),
		Nodes:  c.Net().NumNodes(),
	})
}

// retire closes session id, or reports that the table does not hold
// it. The session leaves the table first and closes in core after
// (core.Session.Close: one close record, under the session lock, and
// every later operation refused), so a snapshot that still finds it in
// the table exports it before its close record; one that does not may
// follow records it committed after the cut, which recovery skips as
// the records of a session the snapshot had closed. Its series leave
// /metrics.
func (s *Server) retire(id string) error {
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess == nil {
		return fmt.Errorf("%w %q", errNoSession, id)
	}
	_ = sess.Session().Close()
	s.mSessions.Dec()
	s.reg.Unregister(fmt.Sprintf("hmnd_session_residual_stddev{session=%q}", id))
	return nil
}

// lookupSession finds session id.
func (s *Server) lookupSession(id string) (*session, error) {
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		return nil, fmt.Errorf("%w %q", errNoSession, id)
	}
	return sess, nil
}

// sessionDomain resolves /v1/sessions/{sid}/… to the session's domain,
// whose operations run behind the drain gate.
func (s *Server) sessionDomain(w http.ResponseWriter, r *http.Request) (domain, bool) {
	sess, err := s.lookupSession(r.PathValue("sid"))
	if refused(w, err) {
		return domain{}, false
	}
	return domain{
		Shard: sess.Shard,
		mutate: func(ctx context.Context, op func(*core.Session) ([]core.RepairResult, error)) (results []core.RepairResult, err error) {
			err = s.operate(ctx, func() error {
				results, err = op(sess.Session())
				return err
			})
			return results, err
		},
		// The round already passed the barrier if it committed anything;
		// operate's covers the zero-move path for free.
		rebalance: func() (res core.RebalanceResult, err error) {
			err = s.operate(context.Background(), func() error {
				res = sess.Rebalance()
				return nil
			})
			return res, err
		},
	}, true
}

// admitToSession admits env to session sid as one fragment on shard 0.
func (s *Server) admitToSession(ctx context.Context, sid string, env *virtual.Env) (string, shard.Placement, cluster.VMMOverhead, error) {
	sess, err := s.lookupSession(sid)
	if err != nil {
		return "", shard.Placement{}, cluster.VMMOverhead{}, err
	}
	// The environment ID is assigned before the admission runs, because
	// it is the admission's tag: it rides the WAL record, so a logged
	// admission the daemon died before acknowledging recovers under the
	// ID the response would have carried. A failed admission burns the
	// ID (IDs are not dense).
	sess.mu.Lock()
	sess.nextEnv++
	envID := fmt.Sprintf("e%d", sess.nextEnv)
	sess.mu.Unlock()

	pl := shard.Placement{Fragments: []shard.Fragment{{Env: env, Tag: envID}}}
	err = s.operate(ctx, func() error {
		sess.attempted.Inc()
		t0 := time.Now()
		m, admit, err := sess.Session().MapTagged(env, envID)
		s.observeAdmit(admit, time.Since(t0).Seconds())
		if err != nil {
			sess.failed.Inc()
			return err
		}
		sess.succeeded.Inc()
		pl.Fragments[0].M = m
		return nil
	})
	if code, _, _ := failureStatus(err); code == http.StatusServiceUnavailable {
		sess.rejected.Inc()
	}
	return envID, pl, sess.Overhead(), err
}

// releaseFromSession releases environment eid of session sid by its tag:
// the rebalancer may have replaced its mapping a moment ago.
func (s *Server) releaseFromSession(ctx context.Context, sid, eid string) error {
	sess, err := s.lookupSession(sid)
	if err != nil {
		return err
	}
	return s.operate(ctx, func() error { return sess.Session().ReleaseTagged(eid) })
}

// closeSession closes session sid with every environment on it.
func (s *Server) closeSession(ctx context.Context, sid string) error {
	return s.operate(ctx, func() error { return s.retire(sid) })
}

// --- durability ---

// recoverSessions opens the data directory, if there is one, and
// rebuilds every session from the latest snapshot plus the log suffix.
// Every recovered session's incremental objective is checked against a
// recompute before it serves (shard.Replay).
func (s *Server) recoverSessions() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	w, domains, maxSession, err := shard.Replay(s.domainCfg, s.cfg.DataDir)
	if err != nil {
		return err
	}
	s.wal = w
	s.mu.Lock()
	for _, sh := range domains {
		sess := s.newSession(sh)
		sess.nextEnv = sh.EnvHigh
		s.sessions[sh.SID()] = sess
	}
	s.nextSession = max(s.nextSession, maxSession)
	s.mu.Unlock()
	s.mSessions.Set(float64(len(domains)))
	s.logf("hmnd: recovered %d sessions, %d environments, replayed %d records",
		len(domains), s.sessionEnvs(), int(s.mReplayRecords.Value()))
	return nil
}

// exportAll captures every session in the table for a snapshot, in
// session-ID order for deterministic snapshot bytes. It lists the table
// after the snapshot's cut, so a session it finds there had not closed
// by the cut: its close record, if any, follows the cut.
func (s *Server) exportAll() ([]wal.SessionSnap, error) {
	sessions := s.openSessions()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].SID() < sessions[j].SID() })
	out := make([]wal.SessionSnap, 0, len(sessions))
	for _, sess := range sessions {
		// The export runs under sess.mu so NextEnv and the core state are
		// one consistent cut: an admission assigns its environment ID
		// under sess.mu *before* it commits in core, so any admission the
		// core export captures already bumped the counter we snapshot.
		// (Lock order is sess.mu → core's lock; the commit hook, which
		// runs under core's lock, never takes sess.mu.)
		sess.mu.Lock()
		out = append(out, sess.Snap(sess.nextEnv))
		sess.mu.Unlock()
	}
	return out, nil
}

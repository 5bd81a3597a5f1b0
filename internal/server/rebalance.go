package server

import (
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/rebalance"
)

// This file wires the background rebalancer (internal/rebalance)
// through the daemon. Each session owns one scheduler:
//
//   - with -rebalance-interval set, the scheduler's loop periodically
//     snapshots the session, plans improving moves off the live
//     residuals and commits them through the optimistic migrate funnel
//     — admissions keep flowing, a plan that loses its validation race
//     is simply dropped;
//   - POST /v1/sessions/{sid}/rebalance runs one round on demand,
//     whether or not the background loop is enabled;
//   - every committed plan reaches the WAL through the session's commit
//     hook like any other operation, and the scheduler's after-round
//     barrier makes it durable before the round is considered done;
//   - Close stops every scheduler before the final snapshot, so
//     shutdown never races an in-flight migration.

// attachRebalance gives sess its scheduler (stopped). Called before the
// session is published, so handlers never see a nil scheduler.
func (s *Server) attachRebalance(sess *session) {
	interval := s.cfg.RebalanceInterval
	if interval <= 0 {
		// The loop is disabled; the interval only parameterizes a ticker
		// that will never start, but New insists on a positive period.
		interval = time.Hour
	}
	sess.rebal = rebalance.New(sess.core, interval, s.cfg.RebalanceMaxMoves, rebalance.Hooks{
		OnRound: func(units int, elapsed float64) {
			s.mRebalRounds.Inc()
			s.mRebalPlanned.Add(uint64(units))
			s.mRebalLatency.Observe(elapsed)
		},
		OnCommit: func(_ rebalance.Unit, res *core.MigrateResult, err error) {
			if err != nil {
				s.mRebalAborts.Inc()
				return
			}
			s.mRebalMoves.Add(uint64(len(res.Moves)))
			if d := res.ObjectiveBefore - res.ObjectiveAfter; d > 0 {
				s.mRebalImprovement.Add(d)
			}
			sess.stddev.Set(mapping.Objective(sess.core.ResidualProc()))
		},
		AfterRound: s.ackBarrier,
		Logf:       s.logf,
	})
}

// startRebalance launches the session's background loop when the daemon
// is configured for continuous rebalancing. Called once the session is
// durable (after the open record's barrier, or after recovery installed
// it) so the loop never migrates guests of a session a crash would
// un-create.
func (s *Server) startRebalance(sess *session) {
	if s.cfg.RebalanceInterval > 0 {
		sess.rebal.Start()
	}
}

// stopRebalancers stops every session's scheduler and waits each one
// out. Close calls it before draining the queue: no new plans start, and
// any in-flight round finishes committing (and logging) first.
func (s *Server) stopRebalancers() {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		if sess.rebal != nil {
			sess.rebal.Stop()
		}
	}
}

// handleRebalance runs one synchronous rebalancing round — the one-shot
// counterpart of the background loop, for operators and tests that want
// a round exactly now (e.g. right after a burst of releases).
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	if draining {
		writeUnavailable(w, errDraining.Error())
		return
	}
	before := sess.core.ObjectiveStdDev()
	moved := sess.rebal.RunOnce()
	after := sess.core.ObjectiveStdDev()
	// RunOnce already ran the after-round barrier if it committed
	// anything; this one covers the moved == 0 path for free and keeps
	// the handler's ack-after-log shape uniform.
	if err := s.ackBarrier(); err != nil {
		writeError(w, http.StatusInternalServerError, "durability barrier: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, RebalanceResponse{
		Moves:        moved,
		StdDevBefore: before,
		StdDevAfter:  after,
	})
}

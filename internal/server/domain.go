package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/shard"
	"repro/internal/spec"
)

// domain is the lock domain a request resolved to — a classic session
// or a federation shard — and how its owner runs an operation on it.
// The handlers in this file are written against it and nothing else, so
// /v1/sessions/{sid}/… and /v1/shards/{k}/… are two routes onto one
// implementation.
type domain struct {
	*shard.Shard
	// mutate runs op — a failure, a restore — on the domain's session,
	// on the handler's goroutine under the session lock, behind the
	// owner's drain gate and made durable by its barrier (the daemon's,
	// for a classic session; the federation's, for a shard), and
	// reconciles the owner's environment registry with the repair results
	// op returned.
	mutate func(ctx context.Context, op func(*core.Session) ([]core.RepairResult, error)) ([]core.RepairResult, error)
	// rebalance runs one synchronous rebalancing round, durable when it
	// returns.
	rebalance func() (core.RebalanceResult, error)
}

// resolver finds the domain a request's path names, or writes the
// error response.
type resolver func(w http.ResponseWriter, r *http.Request) (domain, bool)

// pathInt parses the path value key, or writes the 400.
func pathInt(w http.ResponseWriter, r *http.Request, key string) (int, bool) {
	n, err := strconv.Atoi(r.PathValue(key))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad %s %q", key, r.PathValue(key)))
	}
	return n, err == nil
}

func (s *Server) handleResiduals(resolve resolver) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d, ok := resolve(w, r)
		if !ok {
			return
		}
		res := d.Session().ResidualProc()
		writeJSON(w, http.StatusOK, ResidualsResponse{
			ResidualProcMIPS: res,
			StdDev:           mapping.Objective(res),
			ActiveEnvs:       d.Session().Active(),
		})
	}
}

// handleFail fails a host or link and runs the repair engine in one
// atomic step, answering with the per-environment repair outcomes.
func (s *Server) handleFail(resolve resolver, kind, pathKey string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d, ok := resolve(w, r)
		if !ok {
			return
		}
		target, ok := pathInt(w, r, pathKey)
		if !ok {
			return
		}
		results, err := d.mutate(r.Context(), func(cs *core.Session) ([]core.RepairResult, error) {
			start := time.Now()
			results, err := failAndRepair(cs, kind, target)
			if err == nil {
				s.observeRepair(time.Since(start), kind, results)
			}
			return results, err
		})
		if refused(w, err) {
			return
		}
		writeJSON(w, http.StatusOK, FailTargetResponse{
			Kind: kind, Target: target, Evicted: len(results),
			Results: repairReports(results, d.Overhead()),
		})
	}
}

func failAndRepair(cs *core.Session, kind string, target int) ([]core.RepairResult, error) {
	if kind == "host" {
		return cs.FailHostAndRepair(graph.NodeID(target))
	}
	return cs.FailLinkAndRepair(target)
}

// observeRepair feeds one fail-and-repair — its wall time, eviction
// plus re-mapping and nothing around them, and its outcomes — into the
// repair families, and the routing work of its reroutes and re-maps, and
// the stage times of its full re-maps, into the families admissions feed.
func (s *Server) observeRepair(elapsed time.Duration, kind string, results []core.RepairResult) {
	s.mRepairLatency.Observe(elapsed.Seconds())
	s.evictionCounter(kind).Add(uint64(len(results)))
	for _, res := range results {
		s.repairCounter(res.Outcome.String()).Inc()
		s.observeRoute(res.Route)
		if res.Outcome != core.RepairRepaired {
			s.observeStages(res.Stages) // the cheap path failed: a full re-map ran
		}
	}
}

// repairReports renders the repair outcomes of a failure for the wire,
// one report per evicted environment, labelled with the tag it was
// admitted under.
func repairReports(results []core.RepairResult, overhead cluster.VMMOverhead) []RepairReport {
	reports := make([]RepairReport, 0, len(results))
	for _, res := range results {
		rep := RepairReport{Env: res.Tag, Outcome: res.Outcome.String()}
		if res.Err != nil {
			rep.Error = res.Err.Error()
		}
		if res.New != nil {
			ms := spec.FromMapping(res.New, overhead)
			rep.Mapping = &ms
		}
		reports = append(reports, rep)
	}
	return reports
}

// handleRestore readmits a failed host or cut link. Restoring a healthy
// target is a 409: the operator almost certainly typed the wrong ID,
// and a 200 would hide the still-failed one.
func (s *Server) handleRestore(resolve resolver, kind, pathKey string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d, ok := resolve(w, r)
		if !ok {
			return
		}
		target, ok := pathInt(w, r, pathKey)
		if !ok {
			return
		}
		_, err := d.mutate(r.Context(), func(cs *core.Session) ([]core.RepairResult, error) {
			if kind == "host" {
				return nil, cs.RestoreHost(graph.NodeID(target))
			}
			return nil, cs.RestoreLink(target)
		})
		if refused(w, err) {
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleRebalance runs one synchronous rebalancing round, the daemon's
// only way to start one: an operator asks for a round exactly when it is
// worth its moves (e.g. right after a burst of releases).
func (s *Server) handleRebalance(resolve resolver) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d, ok := resolve(w, r)
		if !ok {
			return
		}
		res, err := d.rebalance()
		if refused(w, err) {
			return
		}
		writeJSON(w, http.StatusOK, RebalanceResponse{Moves: res.Moves, StdDevBefore: res.ObjectiveBefore, StdDevAfter: res.ObjectiveAfter})
	}
}

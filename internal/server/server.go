// Package server implements hmnd, the testbed-allocation daemon: an
// HTTP/JSON control plane over core.Session that admits, places and
// releases virtual environments on a shared cluster over time — the
// multi-tester testbed of the paper's §6 run as a service.
//
// Layering (bottom up):
//
//   - core.Session holds the residual-resource ledger and runs the HMN /
//     HMN-C mapper incrementally; it is the only layer that mutates
//     testbed state.
//   - Server wraps a set of named sessions and pushes every mutating
//     request (map, release) through a bounded admission queue drained
//     by a fixed worker pool. The queue is the backpressure boundary:
//     when it is full — or the server is draining — the request is
//     rejected immediately with 503 + Retry-After instead of piling up
//     goroutines behind the session mutex.
//   - An internal/metrics Registry instruments every stage (attempts,
//     successes, failures, rejections per mapper, map latency
//     histogram, queue depth, active sessions/environments, per-session
//     residual-CPU stddev) and serves the text exposition on /metrics.
//
// Endpoints:
//
//	POST   /v1/sessions                              open a session (cluster + mapper + overhead)
//	DELETE /v1/sessions/{sid}                        close it, releasing every environment
//	POST   /v1/sessions/{sid}/envs                   map an environment (optionally return the deploy plan)
//	DELETE /v1/sessions/{sid}/envs/{eid}             release an environment
//	GET    /v1/sessions/{sid}/residuals              residual CPU vector + stddev
//	POST   /v1/sessions/{sid}/hosts/{node}/fail      fail/drain a host; evict + auto-repair its environments
//	POST   /v1/sessions/{sid}/hosts/{node}/restore   readmit a failed host (409 if not failed)
//	POST   /v1/sessions/{sid}/links/{edge}/fail      cut a physical link; evict + auto-repair
//	POST   /v1/sessions/{sid}/links/{edge}/restore   readmit a cut link (409 if not cut)
//	POST   /v1/sessions/{sid}/rebalance              run one rebalancing round now (plan + commit improving migrations)
//	GET    /healthz                                  liveness (503 while draining)
//	GET    /metrics                                  Prometheus text exposition
//
// The fail endpoints run the core.Session repair engine atomically with
// the eviction: evicted environments are re-mapped oldest-first against
// the degraded cluster (placements kept and broken paths re-routed when
// possible, full re-map otherwise) and the response reports each as
// repaired, replaced or unrecoverable. Unrecoverable environments are
// released from the session; repaired/replaced ones keep their IDs.
//
// Request bodies are decoded strictly (spec.DecodeStrict): unknown
// fields are a 400, not a silent no-op.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/graph"
	"repro/internal/jsonx"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/rebalance"
	"repro/internal/spec"
	"repro/internal/wal"
)

// Config sizes the daemon. The zero value gets sensible defaults.
type Config struct {
	// Workers is the size of the pool draining the admission queue;
	// defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// 503. Defaults to 64.
	QueueDepth int
	// BatchSize is ignored. It sized the batched admission rounds PR 20
	// deleted and survives only because the frozen benchmark harness
	// still sets it (to 1, which never batched); the next PR allowed to
	// touch benchmark/ removes the field with that assignment.
	BatchSize int
	// RequestTimeout bounds each request end to end (queue wait
	// included). Defaults to 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies. Defaults to 32 MiB.
	MaxBodyBytes int64
	// DataDir enables durability: every mutating operation is logged to
	// a write-ahead log under this directory before its response is
	// acknowledged, and Recover rebuilds state from it on startup.
	// Empty disables durability (state dies with the process).
	DataDir string
	// SnapshotInterval is the cadence of periodic full-state snapshots
	// (which truncate the log). 0 snapshots only on graceful shutdown.
	// Ignored without DataDir.
	SnapshotInterval time.Duration
	// VerifyReplay makes Recover cross-check every recovered session
	// (incremental objective vs recompute, environment registry vs
	// active set) before the daemon serves.
	VerifyReplay bool
	// RebalanceInterval enables the background rebalancer: every open
	// session gets a scheduler that periodically plans improving guest
	// migrations off the live residuals and commits them through the
	// optimistic migrate funnel. 0 disables the loop; the one-shot
	// POST /v1/sessions/{sid}/rebalance endpoint works either way.
	RebalanceInterval time.Duration
	// RebalanceMaxMoves caps guest moves per rebalancing round (a
	// destination swap counts as two). <= 0 means unbounded: a round
	// plans until no move improves the objective.
	RebalanceMaxMoves int
	// Logf receives durability warnings and recovery progress; nil
	// discards them.
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

// errOverloaded rejects a request when the admission queue is full.
var errOverloaded = errors.New("server: admission queue full")

// errDraining rejects mutating work during shutdown.
var errDraining = errors.New("server: draining")

// task is one unit of queued work. run executes on a worker; the
// submitter waits on done (or its context).
type task struct {
	run  func()
	done chan struct{}
}

// session is a named core.Session plus the server-side bookkeeping.
type session struct {
	id         string
	core       *core.Session
	overhead   cluster.VMMOverhead
	mapperName string
	// clusterSpec is the cluster as the client described it, kept for
	// WAL snapshots (a snapshot must be self-contained).
	clusterSpec spec.ClusterSpec
	stddev      *metrics.Gauge
	// The session's hmnd_maps_*_total{mapper} series, resolved once:
	// handleMapEnv used to format and look up all four per request.
	attempted, succeeded, failed, rejected *metrics.Counter

	// rebal is the session's background rebalancer. Set before the
	// session is published and never reassigned; its own mutex guards
	// its state.
	rebal *rebalance.Scheduler

	mu sync.Mutex
	// envs holds the IDs of the deployed environments. An ID is the tag
	// its environment was admitted under, and that is all the registry
	// keeps: core owns the mappings, which a rebalance or a repair
	// replaces without asking, so every call into core names an
	// environment by tag.
	envs    map[string]struct{} //hmn:guardedby mu
	nextEnv int                 //hmn:guardedby mu
	closed  bool                //hmn:guardedby mu
}

// newSession builds the server-side wrapper of a core session, opened
// or recovered: its metrics gauge and an empty environment registry.
func (s *Server) newSession(id string, cs *core.Session, overhead cluster.VMMOverhead, mapperName string, clusterSpec spec.ClusterSpec) *session {
	return &session{
		id:          id,
		core:        cs,
		overhead:    overhead,
		mapperName:  mapperName,
		clusterSpec: clusterSpec,
		stddev: s.reg.Gauge(
			fmt.Sprintf("hmnd_session_residual_stddev{session=%q}", id),
			"Stddev of residual CPU per host (the Eq. 10 objective) per session."),
		attempted: s.mapCounter("attempted", mapperName),
		succeeded: s.mapCounter("succeeded", mapperName),
		failed:    s.mapCounter("failed", mapperName),
		rejected:  s.mapCounter("rejected", mapperName),
		envs:      make(map[string]struct{}),
	}
}

// Server is the hmnd daemon: session store, admission queue, worker
// pool and metrics. Create with New, serve Handler(), stop with Close.
type Server struct {
	cfg Config
	reg *metrics.Registry
	mux *http.ServeMux

	admitMu  sync.RWMutex // excludes submit vs Close's queue close
	draining bool         //hmn:guardedby admitMu
	queue    chan *task
	wg       sync.WaitGroup

	mu          sync.Mutex
	sessions    map[string]*session //hmn:guardedby mu
	nextSession int                 //hmn:guardedby mu

	// wal is the write-ahead log; nil without Config.DataDir. It is set
	// by Recover before replaying flips to false, and the /v1 readiness
	// gate keeps every handler out until then. snapStop and snapDone
	// follow the same publication rule: written once by Recover before
	// the replaying flip, then only ever closed/received by Close after
	// the drain, so neither needs mu.
	wal       *wal.WAL
	replaying atomic.Bool
	snapStop  chan struct{}
	snapDone  chan struct{}

	mLatency       *metrics.Histogram
	mRepairLatency *metrics.Histogram
	mCommitLatency *metrics.Histogram
	mQueue         *metrics.Gauge
	mEnvs          *metrics.Gauge
	mSessions      *metrics.Gauge
	mConflicts     *metrics.Counter
	mFallbacks     *metrics.Counter
	mOptimistic    *metrics.Counter
	mRouteSearches *metrics.Counter
	mRoutePops     *metrics.Counter

	mWALRecords      *metrics.Counter
	mReplayRecords   *metrics.Counter
	mFsyncLatency    *metrics.Histogram
	mSnapshotLatency *metrics.Histogram

	mRebalRounds      *metrics.Counter
	mRebalPlanned     *metrics.Counter
	mRebalMoves       *metrics.Counter
	mRebalAborts      *metrics.Counter
	mRebalImprovement *metrics.Gauge
	mRebalLatency     *metrics.Histogram
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		mux:      http.NewServeMux(),
		queue:    make(chan *task, cfg.QueueDepth),
		sessions: make(map[string]*session),
		mLatency: reg.Histogram("hmnd_map_latency_seconds",
			"Wall time of environment map attempts.", nil),
		mRepairLatency: reg.Histogram("hmnd_repair_latency_seconds",
			"Wall time of fail-and-repair operations (eviction plus re-mapping).", nil),
		mCommitLatency: reg.Histogram("hmnd_commit_latency_seconds",
			"Time an admission held the session lock (snapshot plus validate-and-commit; the whole mapping on the serialized fallback).", nil),
		mConflicts: reg.Counter("hmnd_admit_conflicts_total",
			"Optimistic admission attempts that lost their validation race and retried."),
		mFallbacks: reg.Counter("hmnd_admit_fallbacks_total",
			"Admissions that exhausted optimistic retries and ran serialized."),
		mOptimistic: reg.Counter("hmnd_admit_optimistic_total",
			"Admissions committed optimistically (mapping ran with no lock held)."),
		mRouteSearches: reg.Counter("hmnd_route_searches_total",
			"A*Prune searches run by map attempts (one per inter-host virtual link routed)."),
		mRoutePops: reg.Counter("hmnd_route_pops_total",
			"Candidates A*Prune searches popped; divided by the searches, the work one search takes."),
		mQueue: reg.Gauge("hmnd_queue_depth",
			"Requests waiting in the admission queue."),
		mEnvs: reg.Gauge("hmnd_active_envs",
			"Environments currently deployed across all sessions."),
		mSessions: reg.Gauge("hmnd_active_sessions",
			"Sessions currently open."),
		mWALRecords: reg.Counter("hmnd_wal_records_total",
			"Operation records appended to the write-ahead log."),
		mReplayRecords: reg.Counter("hmnd_replay_records_total",
			"Operation records replayed from the log during recovery."),
		mFsyncLatency: reg.Histogram("hmnd_wal_fsync_seconds",
			"Wall time of write-ahead log fsyncs (group commits).", nil),
		mSnapshotLatency: reg.Histogram("hmnd_snapshot_seconds",
			"Wall time of full-state snapshots (rotate, export, publish, prune).", nil),
		mRebalRounds: reg.Counter("hmnd_rebalance_rounds_total",
			"Rebalancing rounds executed (background and one-shot)."),
		mRebalPlanned: reg.Counter("hmnd_rebalance_planned_units_total",
			"Migration units (single moves and swaps) proposed by the planner."),
		mRebalMoves: reg.Counter("hmnd_rebalance_moves_total",
			"Guest migrations committed by the rebalancer."),
		mRebalAborts: reg.Counter("hmnd_rebalance_aborts_total",
			"Planned units dropped because their optimistic commit lost its validation race."),
		mRebalImprovement: reg.Gauge("hmnd_rebalance_objective_improvement",
			"Cumulative Eq. (10) objective reduction realized by committed rebalancing plans."),
		mRebalLatency: reg.Histogram("hmnd_rebalance_round_seconds",
			"Wall time of rebalancing rounds (snapshot plus planning).", nil),
	}
	// With a data directory the daemon starts in "replaying": the /v1
	// API answers 503 until Recover installs the recovered sessions.
	s.replaying.Store(cfg.DataDir != "")

	s.mux.HandleFunc("POST /v1/sessions", s.handleOpenSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{sid}", s.handleCloseSession)
	s.mux.HandleFunc("POST /v1/sessions/{sid}/envs", s.handleMapEnv)
	s.mux.HandleFunc("DELETE /v1/sessions/{sid}/envs/{eid}", s.handleReleaseEnv)
	s.mux.HandleFunc("GET /v1/sessions/{sid}/residuals", s.handleResiduals)
	s.mux.HandleFunc("POST /v1/sessions/{sid}/hosts/{node}/fail", s.handleFailHost)
	s.mux.HandleFunc("POST /v1/sessions/{sid}/hosts/{node}/restore", s.handleRestoreHost)
	s.mux.HandleFunc("POST /v1/sessions/{sid}/links/{edge}/fail", s.handleFailLink)
	s.mux.HandleFunc("POST /v1/sessions/{sid}/links/{edge}/restore", s.handleRestoreLink)
	s.mux.HandleFunc("POST /v1/sessions/{sid}/rebalance", s.handleRebalance)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", s.reg.Handler())

	// Degradation gauges are computed at scrape time from the live
	// sessions, so they can never drift from the ledgers they describe.
	reg.GaugeFunc("hmnd_quarantined_hosts",
		"Hosts currently failed or drained, across sessions.",
		func() float64 { return s.sumSessions((*core.Session).FailedHosts) })
	reg.GaugeFunc("hmnd_cut_links",
		"Physical links currently cut, across sessions.",
		func() float64 { return s.sumSessions((*core.Session).CutLinks) })
	// AR-cache totals live in each session's counters already; expose
	// them as scrape-time callbacks instead of mirroring every event.
	reg.CounterFunc("hmnd_ar_cache_hits_total",
		"Dijkstra latency tables served from the session AR caches.",
		func() float64 {
			return s.sumSessionsU64(func(c *core.Session) uint64 { return c.AdmissionStats().ARCacheHits })
		})
	reg.CounterFunc("hmnd_ar_cache_misses_total",
		"Dijkstra latency tables computed and filled into the session AR caches.",
		func() float64 {
			return s.sumSessionsU64(func(c *core.Session) uint64 { return c.AdmissionStats().ARCacheMisses })
		})

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry exposes the server's metrics registry (for tests and for
// embedding hmnd into a larger process).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler returns the daemon's HTTP handler with the per-request
// timeout applied. While recovery is replaying the log, every /v1 API
// request is refused with 503 — only /healthz (which reports
// "replaying") and /metrics answer, so a load balancer can watch the
// daemon come up without routing traffic at half-rebuilt state.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.replaying.Load() && r.URL.Path != "/healthz" && r.URL.Path != "/v1/healthz" && r.URL.Path != "/metrics" {
			writeUnavailable(w, "replaying")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		s.mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

// Close drains the daemon: new mutating work is refused with 503, every
// task already admitted runs to completion, and the worker pool exits.
// With durability enabled, the queue is drained FIRST and a final
// snapshot is taken after — so queued-but-unacknowledged admissions
// that committed during the drain are captured, not lost — and the WAL
// is sealed. Safe to call more than once. Callers shutting down an
// http.Server should call its Shutdown first so in-flight handlers
// finish waiting on their queued tasks.
func (s *Server) Close() {
	s.admitMu.Lock()
	if s.draining {
		s.admitMu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	close(s.queue)
	s.admitMu.Unlock()
	// Rebalancing pauses for good during drain: stop every scheduler
	// (waiting out in-flight rounds) before the queue empties and the
	// final snapshot exports state.
	s.stopRebalancers()
	s.wg.Wait()
	if s.wal != nil {
		if s.snapStop != nil {
			close(s.snapStop)
			<-s.snapDone
		}
		if err := s.writeSnapshot(); err != nil {
			s.logf("hmnd: shutdown snapshot: %v", err)
		}
		if err := s.wal.Close(); err != nil {
			s.logf("hmnd: wal close: %v", err)
		}
	}
}

// worker drains the admission queue until Close, one task per wakeup.
func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.mQueue.Set(float64(len(s.queue)))
		t.run()
		close(t.done)
	}
}

// submit queues fn and waits for it to run. It returns errOverloaded /
// errDraining without queuing when the daemon has no room, and the
// context error if ctx expires while the task waits (the task itself
// checks ctx and becomes a no-op, or rolls back, when it finally runs).
func (s *Server) submit(ctx context.Context, fn func()) error {
	t := &task{run: fn, done: make(chan struct{})}
	s.admitMu.RLock()
	if s.draining {
		s.admitMu.RUnlock()
		return errDraining
	}
	select {
	case s.queue <- t:
		s.mQueue.Set(float64(len(s.queue)))
		s.admitMu.RUnlock()
	default:
		s.admitMu.RUnlock()
		return errOverloaded
	}
	select {
	case <-t.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- handlers ---

// handleHealthz reports readiness: 503 "replaying" while recovery
// rebuilds state, 503 "draining" during shutdown, 200 "serving"
// otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.replaying.Load() {
		writeError(w, http.StatusServiceUnavailable, "replaying")
		return
	}
	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "serving")
}

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
	overhead := cluster.VMMOverhead{Proc: req.Overhead.Proc, Mem: req.Overhead.Mem, Stor: req.Overhead.Stor}
	mapperName := req.Mapper
	if mapperName == "" {
		mapperName = "HMN"
	}
	mapper, err := core.MapperByName(mapperName, overhead)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cs, err := core.NewSession(c, overhead, mapper)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	if draining {
		writeUnavailable(w, errDraining.Error())
		return
	}

	// The open record is appended, and the commit hook attached, before
	// the session becomes visible: no operation can reach the log ahead
	// of the record that declares its session.
	s.mu.Lock()
	s.nextSession++
	id := fmt.Sprintf("s%d", s.nextSession)
	sess := s.newSession(id, cs, overhead, mapperName, req.Cluster)
	s.attachWAL(sess)
	s.attachRebalance(sess)
	s.appendOpenLocked(sess)
	s.sessions[id] = sess
	s.mu.Unlock()
	s.mSessions.Inc()
	sess.stddev.Set(mapping.Objective(cs.ResidualProc()))

	if err := s.ackBarrier(); err != nil {
		// The open was never made durable, so the client was never told
		// the session exists: tear it back down rather than leak a
		// serving session a 500-retrying client will never address. The
		// close record is best-effort (the barrier just failed), but if
		// the open did reach disk it keeps a later replay consistent.
		s.mu.Lock()
		delete(s.sessions, id)
		s.mu.Unlock()
		sess.mu.Lock()
		sess.closed = true
		sess.mu.Unlock()
		s.appendClose(id)
		s.mSessions.Dec()
		s.reg.Unregister(fmt.Sprintf("hmnd_session_residual_stddev{session=%q}", id))
		writeError(w, http.StatusInternalServerError, "durability barrier: "+err.Error())
		return
	}
	s.startRebalance(sess)
	writeJSON(w, http.StatusCreated, OpenSessionResponse{
		ID:     id,
		Mapper: mapperName,
		Hosts:  c.NumHosts(),
		Nodes:  c.Net().NumNodes(),
	})
}

// lookupSession resolves {sid} or writes a 404.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("sid")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
		return nil
	}
	return sess
}

func (s *Server) handleMapEnv(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	var req MapEnvRequest
	if err := spec.DecodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	env, err := req.Env.ToEnv()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if env.NumGuests() == 0 {
		writeError(w, http.StatusBadRequest, "environment has no guests")
		return
	}

	attempted, succeeded, failed, rejected := sess.attempted, sess.succeeded, sess.failed, sess.rejected

	// The environment ID is assigned before the admission runs, because
	// it is the admission's tag: it rides the WAL record, so a logged
	// admission the daemon died before acknowledging recovers under the
	// ID the response would have carried. A failed admission burns the
	// ID (IDs are not dense).
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Sprintf("no session %q", sess.id))
		return
	}
	sess.nextEnv++
	envID := fmt.Sprintf("e%d", sess.nextEnv)
	sess.mu.Unlock()

	ctx := r.Context()
	var (
		resp   MapEnvResponse
		mapErr error
	)
	submitErr := s.submit(ctx, func() {
		if err := ctx.Err(); err != nil {
			// The client gave up while we sat in the queue: do no work.
			mapErr = err
			return
		}
		attempted.Inc()
		t0 := time.Now()
		m, admit, err := sess.core.MapTagged(env, envID)
		s.mLatency.Observe(time.Since(t0).Seconds())
		s.mCommitLatency.Observe(admit.CommitSeconds)
		s.mConflicts.Add(uint64(admit.Conflicts))
		s.mRouteSearches.Add(admit.Route.Searches)
		s.mRoutePops.Add(admit.Route.Pops)
		if admit.Fallback {
			s.mFallbacks.Inc()
		} else {
			s.mOptimistic.Inc()
		}
		if err != nil {
			failed.Inc()
			mapErr = err
			return
		}
		sess.mu.Lock()
		if sess.closed {
			sess.mu.Unlock()
			_ = sess.core.ReleaseTagged(envID)
			failed.Inc()
			mapErr = fmt.Errorf("session %s closed", sess.id)
			return
		}
		if ctx.Err() != nil {
			// Mapped, but the request timed out mid-flight: roll back so
			// no orphan environment holds resources.
			sess.mu.Unlock()
			_ = sess.core.ReleaseTagged(envID)
			failed.Inc()
			mapErr = ctx.Err()
			return
		}
		sess.envs[envID] = struct{}{}
		sess.mu.Unlock()

		succeeded.Inc()
		s.mEnvs.Inc()
		sess.stddev.Set(mapping.Objective(sess.core.ResidualProc()))

		resp = MapEnvResponse{ID: envID, Mapping: spec.FromMapping(m, sess.overhead)}
		if req.Plan || req.PlanShell {
			if plan, err := deploy.Build(m, sess.overhead); err == nil {
				if req.Plan {
					resp.Plan = plan
				}
				if req.PlanShell {
					resp.PlanShell = plan.RenderShell()
				}
			}
		}
	})
	switch {
	case errors.Is(submitErr, errOverloaded), errors.Is(submitErr, errDraining):
		rejected.Inc()
		writeUnavailable(w, submitErr.Error())
		return
	case submitErr != nil: // context expired while queued or running
		rejected.Inc()
		writeUnavailable(w, "request timed out: "+submitErr.Error())
		return
	}
	if mapErr != nil {
		if errors.Is(mapErr, context.DeadlineExceeded) || errors.Is(mapErr, context.Canceled) {
			rejected.Inc()
			writeUnavailable(w, "request timed out")
			return
		}
		writeError(w, http.StatusConflict, mapErr.Error())
		return
	}
	if err := s.ackBarrier(); err != nil {
		writeError(w, http.StatusInternalServerError, "durability barrier: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReleaseEnv(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	envID := r.PathValue("eid")
	var relErr error
	submitErr := s.submit(r.Context(), func() {
		sess.mu.Lock()
		_, known := sess.envs[envID]
		sess.mu.Unlock()
		if !known {
			relErr = fmt.Errorf("no environment %q in session %s", envID, sess.id)
			return
		}
		// By ID, which is the tag it was admitted under: the rebalancer
		// may have replaced the environment's mapping a moment ago. And
		// the registry entry goes only once core has let go, so an ID is
		// never forgotten while it still holds reservations.
		if err := sess.core.ReleaseTagged(envID); err != nil {
			relErr = err
			return
		}
		sess.mu.Lock()
		delete(sess.envs, envID)
		sess.mu.Unlock()
		s.mEnvs.Dec()
		sess.stddev.Set(mapping.Objective(sess.core.ResidualProc()))
	})
	if submitErr != nil {
		writeUnavailable(w, submitErr.Error())
		return
	}
	if relErr != nil {
		writeError(w, http.StatusNotFound, relErr.Error())
		return
	}
	if err := s.ackBarrier(); err != nil {
		writeError(w, http.StatusInternalServerError, "durability barrier: "+err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("sid")
	s.mu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
		return
	}
	// Stop the rebalancer first: its commits would race the teardown's
	// releases, and a migrate record after the close record would poison
	// a later replay.
	if sess.rebal != nil {
		sess.rebal.Stop()
	}
	sess.mu.Lock()
	sess.closed = true
	envs := sess.envs
	sess.envs = make(map[string]struct{})
	sess.mu.Unlock()
	for eid := range envs {
		if err := sess.core.ReleaseTagged(eid); err == nil {
			s.mEnvs.Dec()
		}
	}
	// The close record lands after the teardown releases the hook just
	// logged, so a replayed log tears the session down the same way
	// before retiring it.
	s.appendClose(id)
	s.mSessions.Dec()
	s.reg.Unregister(fmt.Sprintf("hmnd_session_residual_stddev{session=%q}", id))
	if err := s.ackBarrier(); err != nil {
		writeError(w, http.StatusInternalServerError, "durability barrier: "+err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleResiduals(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	res := sess.core.ResidualProc()
	writeJSON(w, http.StatusOK, ResidualsResponse{
		ResidualProcMIPS: res,
		StdDev:           mapping.Objective(res),
		ActiveEnvs:       sess.core.Active(),
	})
}

// sumSessions totals a per-session quantity across the open sessions.
func (s *Server) sumSessions(f func(*core.Session) int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, sess := range s.sessions {
		total += f(sess.core)
	}
	return float64(total)
}

// sumSessionsU64 is sumSessions for the sessions' uint64 counters.
func (s *Server) sumSessionsU64(f func(*core.Session) uint64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, sess := range s.sessions {
		total += f(sess.core)
	}
	return float64(total)
}

func (s *Server) handleFailHost(w http.ResponseWriter, r *http.Request) {
	s.handleFail(w, r, "host", "node")
}

func (s *Server) handleFailLink(w http.ResponseWriter, r *http.Request) {
	s.handleFail(w, r, "link", "edge")
}

// repairReports renders the repair outcomes of a failure for the wire,
// one report per evicted environment, labelled with the tag it was
// admitted under. Both servers' fail handlers answer with it.
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

// handleFail fails a host or link and runs the repair engine in one
// atomic step, answering with the per-environment repair outcomes.
func (s *Server) handleFail(w http.ResponseWriter, r *http.Request, kind, pathKey string) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	target, err := strconv.Atoi(r.PathValue(pathKey))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad %s %q", pathKey, r.PathValue(pathKey)))
		return
	}

	ctx := r.Context()
	var (
		resp    FailTargetResponse
		failErr error
	)
	submitErr := s.submit(ctx, func() {
		if ctx.Err() != nil {
			failErr = ctx.Err()
			return
		}
		t0 := time.Now()
		var results []core.RepairResult
		if kind == "host" {
			results, failErr = sess.core.FailHostAndRepair(graph.NodeID(target))
		} else {
			results, failErr = sess.core.FailLinkAndRepair(target)
		}
		if failErr != nil {
			return
		}
		s.mRepairLatency.Observe(time.Since(t0).Seconds())
		s.evictionCounter(kind).Add(uint64(len(results)))

		// Reconcile the session's environment records with the repair
		// outcomes: repaired/replaced environments keep their IDs under
		// the new mapping, unrecoverable ones are gone.
		sess.mu.Lock()
		lost := 0
		for _, res := range results {
			if res.Outcome == core.RepairUnrecoverable {
				delete(sess.envs, res.Tag)
				lost++
			}
			s.repairCounter(res.Outcome.String()).Inc()
		}
		sess.mu.Unlock()
		for i := 0; i < lost; i++ {
			s.mEnvs.Dec()
		}
		sess.stddev.Set(mapping.Objective(sess.core.ResidualProc()))
		resp = FailTargetResponse{Kind: kind, Target: target, Evicted: len(results), Results: repairReports(results, sess.overhead)}
	})
	if code, msg, ok := failureStatus(submitErr, failErr); !ok {
		if code == http.StatusServiceUnavailable {
			writeUnavailable(w, msg)
		} else {
			writeError(w, code, msg)
		}
		return
	}
	if err := s.ackBarrier(); err != nil {
		writeError(w, http.StatusInternalServerError, "durability barrier: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRestoreHost(w http.ResponseWriter, r *http.Request) {
	s.handleRestore(w, r, "host", "node")
}

func (s *Server) handleRestoreLink(w http.ResponseWriter, r *http.Request) {
	s.handleRestore(w, r, "link", "edge")
}

// handleRestore readmits a failed host or cut link. Restoring a healthy
// target is a 409: the operator almost certainly typed the wrong ID,
// and a 200 would hide the still-failed one.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, kind, pathKey string) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	target, err := strconv.Atoi(r.PathValue(pathKey))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad %s %q", pathKey, r.PathValue(pathKey)))
		return
	}
	var restoreErr error
	submitErr := s.submit(r.Context(), func() {
		if kind == "host" {
			restoreErr = sess.core.RestoreHost(graph.NodeID(target))
		} else {
			restoreErr = sess.core.RestoreLink(target)
		}
	})
	if code, msg, ok := failureStatus(submitErr, restoreErr); !ok {
		if code == http.StatusServiceUnavailable {
			writeUnavailable(w, msg)
		} else {
			writeError(w, code, msg)
		}
		return
	}
	if err := s.ackBarrier(); err != nil {
		writeError(w, http.StatusInternalServerError, "durability barrier: "+err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// failureStatus maps the submit/operation errors of the mutating
// handlers onto HTTP statuses. ok means no error at all.
//
// This is the package's single sentinel→status table: every exported
// core/cluster sentinel gets its status decided here and nowhere else
// (hmnlint's sentinelhttp analyzer rejects inline comparisons and
// sentinels this table misses), so the 404/409 contract of PR 2 cannot
// drift one handler at a time.
//
//hmn:sentineltable
func failureStatus(submitErr, opErr error) (code int, msg string, ok bool) {
	switch {
	case errors.Is(submitErr, errOverloaded), errors.Is(submitErr, errDraining):
		return http.StatusServiceUnavailable, submitErr.Error(), false
	case submitErr != nil:
		return http.StatusServiceUnavailable, "request timed out: " + submitErr.Error(), false
	}
	switch {
	case opErr == nil:
		return 0, "", true
	case errors.Is(opErr, core.ErrUnknownTarget), errors.Is(opErr, core.ErrNotActive):
		// Nothing by that name in this session.
		return http.StatusNotFound, opErr.Error(), false
	case errors.Is(opErr, core.ErrAlreadyFailed), errors.Is(opErr, core.ErrNotFailed):
		return http.StatusConflict, opErr.Error(), false
	case errors.Is(opErr, core.ErrMigrateConflict), errors.Is(opErr, core.ErrNotImproving):
		// A migrate plan drawn on a stale snapshot: the cluster moved on
		// (guest relocated, or the plan stopped improving) before the
		// commit validated. Retry against fresh state.
		return http.StatusConflict, opErr.Error(), false
	case errors.Is(opErr, core.ErrNoHostFits), errors.Is(opErr, core.ErrEmptyPool), errors.Is(opErr, core.ErrNoPath),
		errors.Is(opErr, core.ErrNoPathBandwidth), errors.Is(opErr, core.ErrNoPathLatency): // ErrNoPath's two causes
		// Mapping infeasible against the current residuals: the request
		// conflicts with testbed state, not with its own syntax.
		return http.StatusConflict, opErr.Error(), false
	case errors.Is(opErr, cluster.ErrOverheadExceedsCapacity):
		// A session/overhead configuration the cluster can never hold.
		return http.StatusBadRequest, opErr.Error(), false
	case errors.Is(opErr, core.ErrReplayDiverged):
		// Replay sentinels never reach a handler in normal operation
		// (recovery runs before the listener); a stray one is an internal
		// invariant breach, not a client error.
		return http.StatusInternalServerError, opErr.Error(), false
	case errors.Is(opErr, context.DeadlineExceeded), errors.Is(opErr, context.Canceled):
		return http.StatusServiceUnavailable, "request timed out", false
	default:
		return http.StatusConflict, opErr.Error(), false
	}
}

// evictionCounter counts environments evicted by failures, per kind.
func (s *Server) evictionCounter(kind string) *metrics.Counter {
	return s.reg.Counter(
		fmt.Sprintf("hmnd_evictions_total{kind=%q}", kind),
		"Environments evicted by host/link failures, per kind.")
}

// repairCounter counts repair-engine outcomes.
func (s *Server) repairCounter(outcome string) *metrics.Counter {
	return s.reg.Counter(
		fmt.Sprintf("hmnd_repairs_total{outcome=%q}", outcome),
		"Repair-engine outcomes for evicted environments.")
}

// mapCounter returns the per-mapper counter for one outcome.
func (s *Server) mapCounter(outcome, mapper string) *metrics.Counter {
	return s.reg.Counter(
		fmt.Sprintf("hmnd_maps_%s_total{mapper=%q}", outcome, mapper),
		fmt.Sprintf("Environment maps %s, per mapper.", outcome))
}

// --- response helpers ---

// writeJSON answers with v as one line of compact JSON. The body is
// encoded before the status line is committed, so a value that does not
// encode (a NaN objective, say) is a well-formed 500 instead of a 200
// with a truncated body, and every reply goes out in one Write with its
// Content-Length rather than chunked. Both servers answer through it.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	buf := jsonx.GetBuffer()
	defer buf.Put()
	var err error
	if buf.B, err = spec.AppendJSON(buf.B, v); err != nil {
		code = http.StatusInternalServerError
		// An ErrorResponse is one string; it always encodes.
		buf.B, _ = spec.AppendJSON(buf.B[:0], ErrorResponse{Error: "encoding response: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(buf.B)))
	w.WriteHeader(code)
	// A failed Write means the client hung up; there is no one to tell.
	_, _ = w.Write(buf.B)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}

// writeUnavailable is the backpressure response: the client should back
// off and retry, not pile on.
func writeUnavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, msg)
}

// Package server implements hmnd, the testbed-allocation daemon: an
// HTTP/JSON control plane that admits, places and releases virtual
// environments on shared clusters over time — the multi-tester testbed
// of the paper's §6 run as a service.
//
// Layering (bottom up):
//
//   - core.Session holds the residual-resource ledger and runs the HMN
//     mapper incrementally; it is the only layer that mutates testbed
//     state.
//   - shard.Shard is one lock domain: a session whose commits go to its
//     owner's write-ahead log. Creating one, adopting one from a
//     replayed log, snapshotting the domains on a log and the ack
//     barrier are shard functions; this package never touches a commit
//     hook.
//   - Server is the one daemon type. New serves clients who bring their
//     own cluster per session: every session is a domain on the daemon's
//     one WAL. NewFederation serves a shard.Federation: the lock domains
//     are its N shards, fixed at startup, on the federation's one WAL,
//     and tenants' requests are routed onto them. Either way a data
//     directory holds one WAL, and an operation runs on its request's
//     goroutine, serialized per domain by the domain's session lock —
//     the daemon starts no goroutine of its own — and once Close has
//     begun a mutating request is refused with 503 + Retry-After.
//   - An internal/metrics Registry instruments both modes with the same
//     families and serves the text exposition on /metrics.
//
// The two modes differ in who opens a session and how an environment
// reaches a domain: admit, release and close are one handler each over
// the mode's function for it (routeSessions), and what can be done to a
// domain — read its residuals, fail or restore a host or link, run a
// rebalancing round — is one handler set, addressed by session in one
// mode and by shard index in the other:
//
//	POST   /v1/sessions                       open a session (classic: cluster + mapper + overhead; federation: no body)
//	DELETE /v1/sessions/{sid}                 close it, with every environment on it
//	POST   /v1/sessions/{sid}/envs            map an environment: 201 with its fragments and their mappings
//	DELETE /v1/sessions/{sid}/envs/{eid}      release an environment
//	GET    /v1/shards                         federation only: the census across lock domains
//	GET    {domain}/residuals                 residual CPU vector + stddev
//	POST   {domain}/hosts/{node}/fail         fail/drain a host; evict + auto-repair its environments
//	POST   {domain}/hosts/{node}/restore      readmit a failed host (409 if not failed)
//	POST   {domain}/links/{edge}/fail         cut a physical link; evict + auto-repair
//	POST   {domain}/links/{edge}/restore      readmit a cut link (409 if not cut)
//	POST   {domain}/rebalance                 run one rebalancing round now
//	GET    /healthz                           readiness (503 while replaying or draining)
//	GET    /metrics                           Prometheus text exposition
//
// where {domain} is /v1/sessions/{sid} on a classic daemon and
// /v1/shards/{k} on a federation; a daemon registers its own mode's
// shape only.
//
// The fail endpoints run the core.Session repair engine atomically with
// the eviction: evicted environments are re-mapped oldest-first against
// the degraded cluster (placements kept and broken paths re-routed when
// possible, full re-map otherwise) and the response reports each as
// repaired, replaced or unrecoverable. Unrecoverable environments are
// released; repaired/replaced ones keep their IDs.
//
// Durability (Config.DataDir): every committed operation is appended to
// the data directory's one WAL inside the session lock, and every
// mutating handler passes a barrier before it writes a success
// response, so a record is durable before its client hears about it —
// a crash can lose unacknowledged work, never acknowledged work.
// Recover rebuilds the domains from snapshot plus log suffix before the
// daemon serves; the /v1 API answers 503 "replaying" until it returns,
// and refuses to serve a domain whose incremental objective disagrees
// with a recompute.
//
// Request bodies are decoded strictly (spec.DecodeStrict): unknown
// fields are a 400, not a silent no-op.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/jsonx"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/wal"
)

// Config sizes the daemon, either mode. The zero value gets sensible
// defaults.
type Config struct {
	// BatchSize is ignored. It sized the batched admission rounds PR 20
	// deleted and survives only because the frozen benchmark harness
	// still sets it (to 1, which never batched); the next PR allowed to
	// touch benchmark/ removes the field with that assignment.
	BatchSize int
	// RequestTimeout bounds each request end to end. A request still
	// waiting for its session's lock at the deadline answers 503 once it
	// gets the lock, with any admission it made rolled back. Defaults to
	// 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies. Defaults to 32 MiB.
	MaxBodyBytes int64
	// DataDir enables durability: every mutating operation is logged to
	// the one write-ahead log at this directory's root before its
	// response is acknowledged, and Recover rebuilds state from it on
	// startup. A classic daemon's sessions and a federation's shards are
	// the log's sessions alike; a federation keeps its tenant registry
	// beside it. Empty disables durability (state dies with the process).
	DataDir string
	// RebalanceMaxMoves caps guest moves per round of POST …/rebalance.
	// <= 0 means unbounded: a round runs until no move improves the
	// objective.
	RebalanceMaxMoves int
	// Logf receives durability warnings and recovery progress; nil
	// discards them.
	Logf func(format string, args ...interface{})

	// The remaining fields describe a federation's shards, which exist
	// from startup and run HMN with no VMM overhead. ClusterSpecs holds
	// one physical cluster per shard (ignored when DataDir already holds
	// federation state: recovery rebuilds the clusters from the log); a
	// classic session brings its cluster, mapper and overhead per POST
	// /v1/sessions instead.
	ClusterSpecs []spec.ClusterSpec
	// GatewayBW is the inter-shard gateway budget in Mbps (0 disables
	// split admissions).
	GatewayBW float64
}

// FedConfig, FedServer and FedMapEnvResponse are the names the
// federation mode's types had while it was a daemon of its own; the
// frozen benchmark harness still spells them.
type (
	FedConfig         = Config
	FedServer         = Server
	FedMapEnvResponse = AdmitResponse
)

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

// Server is the hmnd daemon: lock domains behind an HTTP API, with
// their metrics. Create with New or NewFederation, call Recover, serve
// Handler(), stop with Close.
type Server struct {
	cfg Config
	reg *metrics.Registry
	mux *http.ServeMux
	// domainCfg is cfg as the shard layer takes it, the metrics hooks
	// wired in: what every lock domain is opened or replayed with.
	domainCfg shard.Config
	// What the constructor sets with the mode's routes: rebuild builds or
	// recovers the lock domains for Recover; domains lists them and envs
	// counts the deployed environments for the scrape-time gauges.
	rebuild func() error
	domains func() []*shard.Shard
	envs    func() int

	// A classic daemon's drain gate: an operation enters only while the
	// daemon is not draining, and Close waits for every one that did
	// before its final snapshot.
	admitMu  sync.RWMutex
	draining bool //hmn:guardedby admitMu
	inflight sync.WaitGroup

	// A classic daemon's state: the sessions clients opened and the one
	// WAL they share (nil without Config.DataDir; a federation's is its
	// own).
	mu          sync.Mutex
	sessions    map[string]*session //hmn:guardedby mu
	nextSession int                 //hmn:guardedby mu
	wal         *wal.WAL

	// A federation daemon's state: nil on a classic daemon, and until
	// Recover has built or rebuilt it.
	fed *shard.Federation

	// wal and fed are written once by Recover before it flips replaying
	// to false, and the /v1 readiness gate keeps every handler out until
	// then, so neither needs a lock.
	replaying atomic.Bool

	mLatency       *metrics.Histogram
	mStage         [3]*metrics.Histogram // hosting, migration, networking
	mRepairLatency *metrics.Histogram
	mCommitLatency *metrics.Histogram
	mEnvVerbatim   *metrics.Counter
	mRouteSearches *metrics.Counter
	mRoutePops     *metrics.Counter
	mRouteSweeps   *metrics.Counter
	mReplayRecords *metrics.Counter
	mRecovery      *metrics.Gauge

	// The classic open-session count: a federation reports its tenants
	// with the shard census.
	mSessions *metrics.Gauge
}

// newServer builds what both modes share: the registry with the one
// metrics block, the domain configuration and the mode-blind routes.
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		mux:      http.NewServeMux(),
		sessions: make(map[string]*session),
		mLatency: reg.Histogram("hmnd_map_latency_seconds",
			"Wall time of environment map attempts.", nil),
		mRepairLatency: reg.Histogram("hmnd_repair_latency_seconds",
			"Wall time of fail-and-repair operations (eviction plus re-mapping).", nil),
		mCommitLatency: reg.Histogram("hmnd_commit_latency_seconds",
			"Time an admission spent outside the mapper while holding the session lock (snapshot + validate-and-commit).", nil),
		mEnvVerbatim: reg.Counter("hmnd_admit_env_verbatim_total",
			"Admissions whose environment went to the log as the bytes the request carried, not rendered again; divided by the successful admissions, the share of traffic that arrives as compact JSON with its keys in json.Marshal's order."),
		mRouteSearches: reg.Counter("hmnd_route_searches_total",
			"A*Prune searches run by map and repair attempts and rebalancing rounds (one per inter-host virtual link routed)."),
		mRoutePops: reg.Counter("hmnd_route_pops_total",
			"Candidates A*Prune searches popped, by map and repair attempts and rebalancing rounds; divided by the searches, the work one search takes."),
		mRouteSweeps: reg.Counter("hmnd_route_sweeps_total",
			"Exact widest-path bounds A*Prune searches computed by a sweep over every edge, by map and repair attempts and rebalancing rounds; the searches without one ran on a tree or had their cheap bound proved exact."),
		mReplayRecords: reg.Counter("hmnd_replay_records_total",
			"Operation records replayed from the log during recovery."),
		mRecovery: reg.Gauge("hmnd_recovery_seconds",
			"Wall time Recover took to rebuild the daemon's state before it began serving."),
	}
	for i, stage := range [...]string{"hosting", "migration", "networking"} {
		s.mStage[i] = reg.Histogram(fmt.Sprintf("hmnd_map_stage_seconds{stage=%q}", stage),
			"Wall time of the mapper's three stages (Hosting, the mapper's second stage, Networking) within map attempts and repairs' full re-maps, from the one set of timers Figure 1 is drawn from.", nil)
	}
	var (
		walRecords = reg.Counter("hmnd_wal_records_total",
			"Operation records appended to the write-ahead log.")
		fsyncLatency = reg.Histogram("hmnd_wal_fsync_seconds",
			"Wall time of write-ahead log fsyncs (group commits).", nil)
		snapshotLatency = reg.Histogram("hmnd_snapshot_seconds",
			"Wall time of full-state snapshots (rotate to a fresh segment, export, publish).", nil)
		rebalRounds = reg.Counter("hmnd_rebalance_rounds_total",
			"Rebalancing rounds executed.")
		rebalPlanned = reg.Counter("hmnd_rebalance_planned_units_total",
			"Guest moves rebalancing rounds scored improving against the live residuals and tried to commit.")
		rebalMoves = reg.Counter("hmnd_rebalance_moves_total",
			"Guest migrations committed by rebalancing rounds.")
		rebalAborts = reg.Counter("hmnd_rebalance_aborts_total",
			"Scored moves skipped because their links could not be re-routed; the ledger is left as it was.")
		rebalImprovement = reg.Gauge("hmnd_rebalance_objective_improvement",
			"Cumulative Eq. (10) objective reduction realized by committed rebalancing moves.")
		rebalLatency = reg.Histogram("hmnd_rebalance_round_seconds",
			"Time a rebalancing round held its session's lock, all its one-move lock-holds together.", nil)
	)
	s.domainCfg = shard.Config{
		GatewayBW:         cfg.GatewayBW,
		DataDir:           cfg.DataDir,
		RebalanceMaxMoves: cfg.RebalanceMaxMoves,
		Logf:              cfg.Logf,
		Hooks: shard.Hooks{
			OnWALRecord: walRecords.Inc,
			OnFsync:     fsyncLatency.Observe,
			OnSnapshot:  snapshotLatency.Observe,
			OnReplay:    s.mReplayRecords.Inc,
			OnAdmit:     s.observeAdmit,
			OnRebalance: func(res core.RebalanceResult) {
				rebalRounds.Inc()
				rebalPlanned.Add(uint64(res.Scored))
				rebalMoves.Add(uint64(res.Moves))
				rebalAborts.Add(uint64(res.Skipped))
				rebalImprovement.Add(res.Gain)
				rebalLatency.Observe(res.Seconds)
				s.observeRoute(res.Route)
			},
		},
	}

	// Degradation and occupancy are computed at scrape time from the
	// live domains, so they can never drift from the ledgers and the
	// registries they describe; the AR-cache totals live in each
	// session's counters already.
	sum := func(f func(*core.Session) uint64) func() float64 {
		return func() float64 {
			var total uint64
			for _, sh := range s.domains() {
				total += f(sh.Session())
			}
			return float64(total)
		}
	}
	reg.GaugeFunc("hmnd_quarantined_hosts",
		"Hosts currently failed or drained, across lock domains.",
		sum(func(c *core.Session) uint64 { return uint64(c.FailedHosts()) }))
	reg.GaugeFunc("hmnd_cut_links",
		"Physical links currently cut, across lock domains.",
		sum(func(c *core.Session) uint64 { return uint64(c.CutLinks()) }))
	reg.CounterFunc("hmnd_ar_cache_hits_total",
		"Dijkstra latency tables served from the session AR caches.",
		sum(func(c *core.Session) uint64 { return c.AdmissionStats().ARCacheHits }))
	reg.CounterFunc("hmnd_ar_cache_misses_total",
		"Dijkstra latency tables computed and filled into the session AR caches.",
		sum(func(c *core.Session) uint64 { return c.AdmissionStats().ARCacheMisses }))
	reg.GaugeFunc("hmnd_active_envs",
		"Environments currently deployed, across sessions.",
		func() float64 { return float64(s.envs()) })

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", reg.Handler())
	return s
}

// routeDomains registers the handler set of a lock domain under prefix,
// the URL shape resolve understands.
func (s *Server) routeDomains(prefix string, resolve resolver) {
	s.mux.HandleFunc("GET "+prefix+"/residuals", s.handleResiduals(resolve))
	s.mux.HandleFunc("POST "+prefix+"/hosts/{node}/fail", s.handleFail(resolve, "host", "node"))
	s.mux.HandleFunc("POST "+prefix+"/hosts/{node}/restore", s.handleRestore(resolve, "host", "node"))
	s.mux.HandleFunc("POST "+prefix+"/links/{edge}/fail", s.handleFail(resolve, "link", "edge"))
	s.mux.HandleFunc("POST "+prefix+"/links/{edge}/restore", s.handleRestore(resolve, "link", "edge"))
	s.mux.HandleFunc("POST "+prefix+"/rebalance", s.handleRebalance(resolve))
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
			writeFailure(w, http.StatusServiceUnavailable, "replaying")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		s.mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

// Recover builds the daemon's state and flips it from "replaying" to
// "serving": a federation's shards are rebuilt from a data directory
// that holds federation state and built fresh from Config.ClusterSpecs
// otherwise; a classic daemon's sessions are rebuilt from the latest
// snapshot plus the log suffix. It must be called exactly once, before
// (or concurrently with) serving traffic. A classic daemon without a
// data directory has nothing to recover and serves from the start.
func (s *Server) Recover() error {
	start := time.Now()
	if err := s.rebuild(); err != nil {
		return err
	}
	s.mRecovery.Set(time.Since(start).Seconds())
	s.replaying.Store(false)
	return nil
}

// Close drains the daemon: /healthz turns 503 and new mutating work is
// refused, every operation already running completes, a final snapshot
// is taken — after the drain, so admissions that committed during it are
// captured, not lost; a checkpoint, deleting nothing — and the logs are
// sealed. It returns the errors of that last step, joined. Safe to call
// more than once. Callers shutting down an http.Server should call its
// Shutdown first, so no handler is left waiting on an operation.
func (s *Server) Close() error {
	s.admitMu.Lock()
	first := !s.draining
	s.draining = true
	s.admitMu.Unlock()
	if s.fed != nil {
		return s.fed.Close()
	}
	s.inflight.Wait()
	if !first {
		return nil
	}
	return shard.Seal(s.wal, s.sessionDomains)
}

// logf reports housekeeping through the configured logger.
func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// handleHealthz reports readiness: 503 "replaying" while recovery
// rebuilds state, 503 "draining" during shutdown, 200 "serving"
// otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.replaying.Load() {
		writeError(w, http.StatusServiceUnavailable, "replaying")
		return
	}
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "serving")
}

func (s *Server) isDraining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// enter registers a classic mutating operation unless Close has begun;
// the caller calls s.inflight.Done when the operation, its ack barrier
// included, returns.
func (s *Server) enter() error {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return errDraining
	}
	s.inflight.Add(1)
	return nil
}

// observeAdmit feeds one map attempt — a classic admission, or one
// fragment of a routed one — into the admission families.
func (s *Server) observeAdmit(admit core.AdmitStats, seconds float64) {
	s.mLatency.Observe(seconds)
	s.mCommitLatency.Observe(admit.CommitSeconds)
	s.observeStages(admit.Stages)
	s.observeRoute(admit.Route)
}

// observeStages adds the stage times of one run of the mapper's pipeline
// — a map attempt's, or a repair's full re-map's — to the per-stage
// histograms. A stage the attempt never reached counts as zero.
func (s *Server) observeStages(st core.StageStats) {
	s.mStage[0].Observe(st.HostingSeconds)
	s.mStage[1].Observe(st.MigrationSeconds)
	s.mStage[2].Observe(st.NetworkingSeconds)
}

// observeRoute adds the A*Prune work of one map or repair attempt, or of
// one rebalancing round, to the routing counters.
func (s *Server) observeRoute(route graph.SearchStats) {
	s.mRouteSearches.Add(route.Searches)
	s.mRoutePops.Add(route.Pops)
	s.mRouteSweeps.Add(route.Sweeps)
}

// Errors the daemon raises itself; failureStatus gives each its status.
var (
	// errDraining rejects mutating work during shutdown.
	errDraining = errors.New("server: draining")
	// errNoSession names a classic session the daemon does not hold.
	errNoSession = errors.New("no session")
	// errNotDurable reports a committed operation whose log barrier
	// failed: it is never acknowledged.
	errNotDurable = errors.New("durability barrier")
)

// failureStatus maps an operation's error onto its HTTP status. ok
// means no error at all.
//
// This is the package's single sentinel→status table: every exported
// core, cluster and shard sentinel gets its status decided here and
// nowhere else (TestSentinelStatusTable rejects a sentinel this table
// misses and one named by any other function), so the 404/409 contract
// cannot drift one handler — or one mode — at a time.
func failureStatus(err error) (code int, msg string, ok bool) {
	switch {
	case err == nil:
		return 0, "", true
	case errors.Is(err, errDraining), errors.Is(err, shard.ErrClosed):
		return http.StatusServiceUnavailable, err.Error(), false
	case errors.Is(err, errNotDurable):
		return http.StatusInternalServerError, err.Error(), false
	case errors.Is(err, core.ErrUnknownTarget), errors.Is(err, core.ErrNotActive), errors.Is(err, core.ErrSessionClosed),
		errors.Is(err, errNoSession), errors.Is(err, shard.ErrUnknownTenant), errors.Is(err, shard.ErrUnknownEnv), errors.Is(err, shard.ErrBadShard):
		// Nothing by that name in this daemon, domain or session.
		return http.StatusNotFound, err.Error(), false
	case errors.Is(err, core.ErrAlreadyFailed), errors.Is(err, core.ErrNotFailed):
		return http.StatusConflict, err.Error(), false
	case errors.Is(err, core.ErrMigrateConflict):
		// A migrate plan that does not match the live state (a guest is
		// not where the plan says). Retry against fresh state.
		return http.StatusConflict, err.Error(), false
	case errors.Is(err, core.ErrNoHostFits), errors.Is(err, core.ErrNoPath),
		errors.Is(err, core.ErrNoPathBandwidth), errors.Is(err, core.ErrNoPathLatency), // ErrNoPath's two causes
		errors.Is(err, shard.ErrNoShardFits), errors.Is(err, shard.ErrGatewayExhausted):
		// Mapping infeasible against the current residuals: the request
		// conflicts with testbed state, not with its own syntax.
		return http.StatusConflict, err.Error(), false
	case errors.Is(err, cluster.ErrOverheadExceedsCapacity):
		// A session/overhead configuration the cluster can never hold.
		return http.StatusBadRequest, err.Error(), false
	case errors.Is(err, core.ErrReplayDiverged):
		// Replay sentinels never reach a handler in normal operation
		// (recovery runs before the listener); a stray one is an internal
		// invariant breach, not a client error.
		return http.StatusInternalServerError, err.Error(), false
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "request timed out", false
	default:
		return http.StatusConflict, err.Error(), false
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

// --- response helpers ---

// writeJSON answers with v as one line of compact JSON. The body is
// encoded before the status line is committed, so a value that does not
// encode (a NaN objective, say) is a well-formed 500 instead of a 200
// with a truncated body, and every reply goes out in one Write with its
// Content-Length rather than chunked.
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

// refused answers a failed operation with the status failureStatus
// decides for err; false means there was no error and nothing was
// written.
func refused(w http.ResponseWriter, err error) bool {
	code, msg, ok := failureStatus(err)
	if !ok {
		writeFailure(w, code, msg)
	}
	return !ok
}

// writeFailure answers with the status failureStatus decided. A 503 is
// the backpressure response: it carries Retry-After, because the client
// should back off and retry, not pile on.
func writeFailure(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, code, msg)
}

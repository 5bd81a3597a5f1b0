package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/jsonx"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/spec"
)

// FedConfig parameterizes the federation daemon: N independent shards
// behind one routed HTTP front end (hmnd -shards N).
type FedConfig struct {
	// ClusterSpecs holds one physical cluster per shard. Ignored when
	// DataDir already holds federation state (recovery rebuilds the
	// clusters from the per-shard WALs).
	ClusterSpecs []spec.ClusterSpec
	// Mapper is the wire name applied to every shard ("" = HMN);
	// Overhead the per-host VMM overhead.
	Mapper   string
	Overhead cluster.VMMOverhead
	// GatewayBW is the inter-shard gateway budget in Mbps (0 disables
	// split admissions).
	GatewayBW float64
	// DataDir, SnapshotInterval and VerifyReplay mirror Config.
	DataDir          string
	SnapshotInterval time.Duration
	VerifyReplay     bool
	// RebalanceInterval / RebalanceMaxMoves run each shard's background
	// rebalancer, as in Config.
	RebalanceInterval time.Duration
	RebalanceMaxMoves int
	// RequestTimeout bounds each request; MaxBodyBytes each body.
	RequestTimeout time.Duration
	MaxBodyBytes   int64
	// QueueDepth bounds each shard's operation queue.
	QueueDepth int
	// Logf receives housekeeping; nil discards.
	Logf func(format string, args ...interface{})
}

func (c FedConfig) withDefaults() FedConfig {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

// FedServer serves a shard.Federation over the hmnd wire API: tenant
// sessions open and close, environments admit and release through the
// router, and the per-shard control endpoints (fail, restore,
// rebalance, residuals) address one lock domain each.
type FedServer struct {
	cfg FedConfig
	reg *metrics.Registry
	mux *http.ServeMux
	fed *shard.Federation

	replaying atomic.Bool
	draining  atomic.Bool // set when Close begins; /healthz turns 503

	mAdmitLatency *metrics.Histogram
	mWALRecords   *metrics.Counter
	mReplayRecs   *metrics.Counter
	mFsync        *metrics.Histogram
	mSnapshot     *metrics.Histogram
}

// NewFederation builds the federation server. With a DataDir the /v1
// API answers 503 until Recover runs; without one the server is
// serving immediately (Recover is then a no-op).
func NewFederation(cfg FedConfig) *FedServer {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	s := &FedServer{
		cfg: cfg,
		reg: reg,
		mux: http.NewServeMux(),
		mAdmitLatency: reg.Histogram("hmnd_shard_admit_latency_seconds",
			"Wall time of routed environment admissions (routing plus shard commit).", nil),
		mWALRecords: reg.Counter("hmnd_shard_wal_records_total",
			"Operation records appended across the per-shard write-ahead logs."),
		mReplayRecs: reg.Counter("hmnd_shard_replay_records_total",
			"Operation records replayed from the per-shard logs during recovery."),
		mFsync: reg.Histogram("hmnd_shard_wal_fsync_seconds",
			"Wall time of per-shard write-ahead log fsyncs.", nil),
		mSnapshot: reg.Histogram("hmnd_shard_snapshot_seconds",
			"Wall time of per-shard full-state snapshots.", nil),
	}
	s.replaying.Store(true)

	s.mux.HandleFunc("POST /v1/sessions", s.handleOpenTenant)
	s.mux.HandleFunc("DELETE /v1/sessions/{sid}", s.handleCloseTenant)
	s.mux.HandleFunc("POST /v1/sessions/{sid}/envs", s.handleAdmit)
	s.mux.HandleFunc("DELETE /v1/sessions/{sid}/envs/{eid}", s.handleRelease)
	s.mux.HandleFunc("GET /v1/shards", s.handleShards)
	s.mux.HandleFunc("GET /v1/shards/{k}/residuals", s.handleShardResiduals)
	s.mux.HandleFunc("POST /v1/shards/{k}/hosts/{node}/fail", s.handleShardFailHost)
	s.mux.HandleFunc("POST /v1/shards/{k}/hosts/{node}/restore", s.handleShardRestoreHost)
	s.mux.HandleFunc("POST /v1/shards/{k}/links/{edge}/fail", s.handleShardFailLink)
	s.mux.HandleFunc("POST /v1/shards/{k}/links/{edge}/restore", s.handleShardRestoreLink)
	s.mux.HandleFunc("POST /v1/shards/{k}/rebalance", s.handleShardRebalance)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", reg.Handler())
	return s
}

// shardConfig renders cfg for the shard layer, wiring the durability
// hooks into the metrics families.
func (s *FedServer) shardConfig() shard.Config {
	return shard.Config{
		Mapper:            s.cfg.Mapper,
		Overhead:          s.cfg.Overhead,
		GatewayBW:         s.cfg.GatewayBW,
		DataDir:           s.cfg.DataDir,
		SnapshotInterval:  s.cfg.SnapshotInterval,
		RebalanceInterval: s.cfg.RebalanceInterval,
		RebalanceMaxMoves: s.cfg.RebalanceMaxMoves,
		VerifyReplay:      s.cfg.VerifyReplay,
		QueueDepth:        s.cfg.QueueDepth,
		Logf:              s.cfg.Logf,
		Hooks: shard.Hooks{
			OnWALRecord: s.mWALRecords.Inc,
			OnFsync:     s.mFsync.Observe,
			OnSnapshot:  s.mSnapshot.Observe,
			OnReplay:    s.mReplayRecs.Inc,
		},
	}
}

// Recover builds (or rebuilds) the federation and flips the server to
// serving. A data directory that already holds federation state is
// recovered shard by shard; otherwise the shards are built fresh from
// ClusterSpecs. Must be called exactly once before traffic is served.
func (s *FedServer) Recover() error {
	var (
		fed *shard.Federation
		err error
	)
	if s.cfg.DataDir != "" && shard.HasState(s.cfg.DataDir) {
		fed, err = shard.Recover(s.shardConfig())
	} else {
		clusters := make([]*cluster.Cluster, len(s.cfg.ClusterSpecs))
		for i, cs := range s.cfg.ClusterSpecs {
			clusters[i], err = cs.ToCluster()
			if err != nil {
				return fmt.Errorf("shard %d cluster: %w", i, err)
			}
		}
		fed, err = shard.New(clusters, s.shardConfig())
	}
	if err != nil {
		return err
	}
	s.fed = fed
	s.registerFedMetrics()
	s.replaying.Store(false)
	return nil
}

// registerFedMetrics exposes the federation census as scrape-time
// callbacks, so the series can never drift from the router's counters.
func (s *FedServer) registerFedMetrics() {
	s.reg.CounterFunc("hmnd_shard_router_fallbacks_total",
		"Admissions the router placed off the hashed fast path (best fit or split).",
		func() float64 { return float64(s.fed.Stats().RouterFallbacks) })
	s.reg.CounterFunc("hmnd_shard_split_admissions_total",
		"Admissions split across shards at their lowest-bandwidth virtual links.",
		func() float64 { return float64(s.fed.Stats().SplitAdmissions) })
	s.reg.GaugeFunc("hmnd_shard_gateway_bw_in_use",
		"Inter-shard gateway bandwidth charged by deployed cut links (Mbps).",
		func() float64 { return s.fed.Stats().GatewayInUse })
	s.reg.GaugeFunc("hmnd_shard_gateway_bw_budget",
		"Configured inter-shard gateway bandwidth budget (Mbps).",
		func() float64 { return s.fed.Stats().GatewayBudget })
	s.reg.GaugeFunc("hmnd_shard_tenants",
		"Tenant sessions currently open on the federation.",
		func() float64 { return float64(s.fed.Stats().Tenants) })
	for k := 0; k < s.fed.Shards(); k++ {
		k := k
		s.reg.CounterFunc(fmt.Sprintf("hmnd_shard_admissions_total{shard=%q}", strconv.Itoa(k)),
			"Fragment admissions committed, per shard.",
			func() float64 { return float64(s.fed.Stats().Shards[k].Admissions) })
		s.reg.GaugeFunc(fmt.Sprintf("hmnd_shard_active_envs{shard=%q}", strconv.Itoa(k)),
			"Environment fragments currently deployed, per shard (occupancy).",
			func() float64 { return float64(s.fed.Stats().Shards[k].ActiveEnvs) })
		s.reg.GaugeFunc(fmt.Sprintf("hmnd_shard_residual_proc{shard=%q}", strconv.Itoa(k)),
			"Router headroom view: residual CPU per shard in MIPS, reservations deducted.",
			func() float64 { return float64(s.fed.Stats().Shards[k].ResidualProc) })
	}
}

// Registry exposes the server's metrics registry.
func (s *FedServer) Registry() *metrics.Registry { return s.reg }

// Federation exposes the underlying federation (for tests).
func (s *FedServer) Federation() *shard.Federation { return s.fed }

// Handler returns the routed HTTP handler with the request timeout
// applied; /v1 answers 503 until Recover completes.
func (s *FedServer) Handler() http.Handler {
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

// Close stops the federation: workers drained, rebalancers stopped,
// final snapshots taken, WALs closed. Call after the HTTP listener has
// shut down so no admission is in flight.
func (s *FedServer) Close() error {
	s.draining.Store(true)
	if s.fed == nil {
		return nil
	}
	return s.fed.Close()
}

// fedStatus maps a federation-layer error onto an HTTP status. Shard
// sentinels are decided here; everything else (the wrapped core
// sentinels included) routes through the package's one sentinel table.
func fedStatus(err error) (code int, msg string, ok bool) {
	switch {
	case err == nil:
		return 0, "", true
	case errors.Is(err, shard.ErrUnknownTenant), errors.Is(err, shard.ErrUnknownEnv),
		errors.Is(err, shard.ErrBadShard):
		return http.StatusNotFound, err.Error(), false
	case errors.Is(err, shard.ErrNoShardFits), errors.Is(err, shard.ErrGatewayExhausted):
		// Infeasible against current federation state, not bad syntax.
		return http.StatusConflict, err.Error(), false
	case errors.Is(err, shard.ErrClosed):
		return http.StatusServiceUnavailable, err.Error(), false
	default:
		return failureStatus(nil, err)
	}
}

func writeFedError(w http.ResponseWriter, err error) {
	code, msg, _ := fedStatus(err)
	if code == http.StatusServiceUnavailable {
		writeUnavailable(w, msg)
		return
	}
	writeError(w, code, msg)
}

func (s *FedServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.replaying.Load() {
		writeError(w, http.StatusServiceUnavailable, "replaying")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "serving")
}

// OpenTenantResponse identifies an opened federation tenant session.
type OpenTenantResponse struct {
	ID     string `json:"id"`
	Shards int    `json:"shards"`
}

func (s *FedServer) handleOpenTenant(w http.ResponseWriter, _ *http.Request) {
	// A federation tenant carries no cluster of its own — the shards
	// were fixed at startup — so the request body is empty.
	sid, err := s.fed.OpenTenant()
	if err != nil {
		writeFedError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, OpenTenantResponse{ID: sid, Shards: s.fed.Shards()})
}

func (s *FedServer) handleCloseTenant(w http.ResponseWriter, r *http.Request) {
	if err := s.fed.CloseTenant(r.PathValue("sid")); err != nil {
		writeFedError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// FragmentReport is one committed fragment of a routed admission.
type FragmentReport struct {
	Shard   int              `json:"shard"`
	Guests  []int            `json:"guests,omitempty"`
	Mapping spec.MappingSpec `json:"mapping"`
}

// FedMapEnvResponse reports a routed admission: the fragment set (one
// entry when the environment landed whole), the gateway bandwidth a
// split charged, and the routing outcome flags.
type FedMapEnvResponse struct {
	ID        string           `json:"id"`
	Fragments []FragmentReport `json:"fragments"`
	CutBW     float64          `json:"cut_bw,omitempty"`
	Split     bool             `json:"split,omitempty"`
	Fallback  bool             `json:"fallback,omitempty"`
}

// AppendJSON implements jsonx.Appender.
func (r FedMapEnvResponse) AppendJSON(dst []byte) ([]byte, bool) {
	ok := true
	dst = append(dst, `{"id":`...)
	dst = jsonx.AppendString(dst, r.ID, &ok)
	dst = append(dst, `,"fragments":`...)
	if r.Fragments == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Fragments {
			fr := &r.Fragments[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"shard":`...)
			dst = strconv.AppendInt(dst, int64(fr.Shard), 10)
			if len(fr.Guests) > 0 {
				dst = append(dst, `,"guests":`...)
				dst = jsonx.AppendInts(dst, fr.Guests)
			}
			dst = append(dst, `,"mapping":`...)
			var mok bool
			dst, mok = fr.Mapping.AppendJSON(dst)
			ok = ok && mok
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if r.CutBW != 0 {
		dst = append(dst, `,"cut_bw":`...)
		dst = jsonx.AppendFloat(dst, r.CutBW, &ok)
	}
	if r.Split {
		dst = append(dst, `,"split":true`...)
	}
	if r.Fallback {
		dst = append(dst, `,"fallback":true`...)
	}
	return append(dst, '}'), ok
}

func (s *FedServer) handleAdmit(w http.ResponseWriter, r *http.Request) {
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
	start := time.Now()
	eid, pl, err := s.fed.Admit(r.PathValue("sid"), env)
	s.mAdmitLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		writeFedError(w, err)
		return
	}
	resp := FedMapEnvResponse{ID: eid, CutBW: pl.CutBW, Split: pl.Split, Fallback: pl.Fallback}
	for _, fr := range pl.Fragments {
		rep := FragmentReport{Shard: fr.Shard, Mapping: spec.FromMapping(fr.M, s.cfg.Overhead)}
		for _, g := range fr.Guests {
			rep.Guests = append(rep.Guests, int(g))
		}
		resp.Fragments = append(resp.Fragments, rep)
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *FedServer) handleRelease(w http.ResponseWriter, r *http.Request) {
	if err := s.fed.Release(r.PathValue("sid"), r.PathValue("eid")); err != nil {
		writeFedError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ShardReport is one shard's row of GET /v1/shards.
type ShardReport struct {
	Shard        int     `json:"shard"`
	Admissions   uint64  `json:"admissions"`
	ActiveEnvs   int     `json:"active_envs"`
	ResidualProc float64 `json:"residual_proc_mips"`
	Hosts        int     `json:"hosts"`
	Guests       int     `json:"guests"`
}

// ShardsResponse is the body of GET /v1/shards: the federation census.
type ShardsResponse struct {
	Shards          []ShardReport `json:"shards"`
	RouterFallbacks uint64        `json:"router_fallbacks"`
	SplitAdmissions uint64        `json:"split_admissions"`
	GatewayInUse    float64       `json:"gateway_bw_in_use"`
	GatewayBudget   float64       `json:"gateway_bw_budget"`
	Tenants         int           `json:"tenants"`
}

func (s *FedServer) handleShards(w http.ResponseWriter, _ *http.Request) {
	st := s.fed.Stats()
	resp := ShardsResponse{
		RouterFallbacks: st.RouterFallbacks,
		SplitAdmissions: st.SplitAdmissions,
		GatewayInUse:    st.GatewayInUse,
		GatewayBudget:   st.GatewayBudget,
		Tenants:         st.Tenants,
	}
	for k, sh := range st.Shards {
		resp.Shards = append(resp.Shards, ShardReport{
			Shard:        k,
			Admissions:   sh.Admissions,
			ActiveEnvs:   sh.ActiveEnvs,
			ResidualProc: sh.ResidualProc,
			Hosts:        sh.Summary.Hosts,
			Guests:       sh.Summary.Guests,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// lookupShard resolves {k} or writes the error response.
func (s *FedServer) lookupShard(w http.ResponseWriter, r *http.Request) (int, bool) {
	k, err := strconv.Atoi(r.PathValue("k"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad shard %q", r.PathValue("k")))
		return 0, false
	}
	if _, err := s.fed.Shard(k); err != nil {
		writeFedError(w, err)
		return 0, false
	}
	return k, true
}

func (s *FedServer) handleShardResiduals(w http.ResponseWriter, r *http.Request) {
	k, ok := s.lookupShard(w, r)
	if !ok {
		return
	}
	sh, _ := s.fed.Shard(k)
	res := sh.Session().ResidualProc()
	writeJSON(w, http.StatusOK, ResidualsResponse{
		ResidualProcMIPS: res,
		StdDev:           mapping.Objective(res),
		ActiveEnvs:       sh.Session().Active(),
	})
}

func (s *FedServer) handleShardFailHost(w http.ResponseWriter, r *http.Request) {
	s.handleShardFail(w, r, "host", "node")
}

func (s *FedServer) handleShardFailLink(w http.ResponseWriter, r *http.Request) {
	s.handleShardFail(w, r, "link", "edge")
}

func (s *FedServer) handleShardFail(w http.ResponseWriter, r *http.Request, kind, pathKey string) {
	k, ok := s.lookupShard(w, r)
	if !ok {
		return
	}
	target, err := strconv.Atoi(r.PathValue(pathKey))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad %s %q", pathKey, r.PathValue(pathKey)))
		return
	}
	var results []core.RepairResult
	if kind == "host" {
		results, err = s.fed.FailHost(k, graph.NodeID(target))
	} else {
		results, err = s.fed.FailLink(k, target)
	}
	if err != nil {
		writeFedError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, FailTargetResponse{
		Kind: kind, Target: target, Evicted: len(results),
		Results: repairReports(results, s.cfg.Overhead),
	})
}

func (s *FedServer) handleShardRestoreHost(w http.ResponseWriter, r *http.Request) {
	s.handleShardRestore(w, r, "host", "node")
}

func (s *FedServer) handleShardRestoreLink(w http.ResponseWriter, r *http.Request) {
	s.handleShardRestore(w, r, "link", "edge")
}

func (s *FedServer) handleShardRestore(w http.ResponseWriter, r *http.Request, kind, pathKey string) {
	k, ok := s.lookupShard(w, r)
	if !ok {
		return
	}
	target, err := strconv.Atoi(r.PathValue(pathKey))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad %s %q", pathKey, r.PathValue(pathKey)))
		return
	}
	if kind == "host" {
		err = s.fed.RestoreHost(k, graph.NodeID(target))
	} else {
		err = s.fed.RestoreLink(k, target)
	}
	if err != nil {
		writeFedError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *FedServer) handleShardRebalance(w http.ResponseWriter, r *http.Request) {
	k, ok := s.lookupShard(w, r)
	if !ok {
		return
	}
	moves, before, after, err := s.fed.RebalanceOnce(k)
	if err != nil {
		writeFedError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RebalanceResponse{Moves: moves, StdDevBefore: before, StdDevAfter: after})
}

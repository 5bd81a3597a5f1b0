package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/virtual"
)

// This file is the federation mode (hmnd -shards N): the lock domains
// are the N shards of a shard.Federation, fixed at startup; tenants
// open bodiless sessions and their environments are routed onto the
// shards.

// NewFederation builds a federation daemon. The /v1 API answers 503
// until Recover has built the shards, with or without a data directory.
func NewFederation(cfg Config) *Server {
	s := newServer(cfg)
	s.replaying.Store(true)
	s.mAdmitLatency = s.reg.Histogram("hmnd_shard_admit_latency_seconds",
		"Wall time of routed environment admissions (routing plus shard commit).", nil)
	s.rebuild, s.domains, s.envs = s.recoverFederation, s.shards, s.tenantEnvs

	s.mux.HandleFunc("POST /v1/sessions", s.handleOpenTenant)
	s.routeSessions(s.admitRouted,
		func(_ context.Context, sid, eid string) error { return s.fed.Release(sid, eid) },
		func(_ context.Context, sid string) error { return s.fed.CloseTenant(sid) })
	s.mux.HandleFunc("GET /v1/shards", s.handleShards)
	s.routeDomains("/v1/shards/{shard}", s.shardDomain)
	return s
}

// recoverFederation builds the federation: a data directory that
// already holds federation state is recovered from its one log; otherwise
// the shards are built fresh from ClusterSpecs.
func (s *Server) recoverFederation() error {
	var (
		fed *shard.Federation
		err error
	)
	if s.cfg.DataDir != "" && shard.HasState(s.cfg.DataDir) {
		fed, err = shard.Recover(s.domainCfg)
	} else {
		clusters := make([]*cluster.Cluster, len(s.cfg.ClusterSpecs))
		for i, cs := range s.cfg.ClusterSpecs {
			clusters[i], err = cs.ToCluster()
			if err != nil {
				return fmt.Errorf("shard %d cluster: %w", i, err)
			}
		}
		fed, err = shard.New(clusters, s.domainCfg)
	}
	if err != nil {
		return err
	}
	s.fed = fed

	// The federation census is exposed as scrape-time callbacks, so the
	// series can never drift from the router's counters.
	s.reg.CounterFunc("hmnd_shard_router_fallbacks_total",
		"Admissions the router placed off the hashed fast path (best fit or split).",
		func() float64 { return float64(fed.Stats().RouterFallbacks) })
	s.reg.CounterFunc("hmnd_shard_split_admissions_total",
		"Admissions split across shards at their lowest-bandwidth virtual links.",
		func() float64 { return float64(fed.Stats().SplitAdmissions) })
	s.reg.GaugeFunc("hmnd_shard_gateway_bw_in_use",
		"Inter-shard gateway bandwidth charged by deployed cut links (Mbps).",
		func() float64 { return fed.Stats().GatewayInUse })
	s.reg.GaugeFunc("hmnd_shard_gateway_bw_budget",
		"Configured inter-shard gateway bandwidth budget (Mbps).",
		func() float64 { return fed.Stats().GatewayBudget })
	s.reg.GaugeFunc("hmnd_shard_tenants",
		"Tenant sessions currently open on the federation.",
		func() float64 { return float64(fed.Stats().Tenants) })
	for k := 0; k < fed.Shards(); k++ {
		k := k
		s.reg.CounterFunc(fmt.Sprintf("hmnd_shard_admissions_total{shard=%q}", strconv.Itoa(k)),
			"Fragment admissions committed, per shard.",
			func() float64 { return float64(fed.Stats().Shards[k].Admissions) })
		s.reg.GaugeFunc(fmt.Sprintf("hmnd_shard_active_envs{shard=%q}", strconv.Itoa(k)),
			"Environment fragments currently deployed, per shard (occupancy).",
			func() float64 { return float64(fed.Stats().Shards[k].ActiveEnvs) })
		s.reg.GaugeFunc(fmt.Sprintf("hmnd_shard_residual_proc{shard=%q}", strconv.Itoa(k)),
			"Router headroom view: residual CPU per shard in MIPS, reservations deducted.",
			func() float64 { return float64(fed.Stats().Shards[k].ResidualProc) })
	}
	return nil
}

// Federation exposes the underlying federation (for tests).
func (s *Server) Federation() *shard.Federation { return s.fed }

// shards lists the federation's lock domains; until Recover has
// published the federation there are none.
func (s *Server) shards() []*shard.Shard {
	if s.replaying.Load() {
		return nil
	}
	domains := make([]*shard.Shard, s.fed.Shards())
	for k := range domains {
		domains[k], _ = s.fed.Shard(k)
	}
	return domains
}

// tenantEnvs counts the environments deployed across the tenants,
// however many fragments each was split into.
func (s *Server) tenantEnvs() int {
	if s.replaying.Load() {
		return 0
	}
	return s.fed.Stats().Envs
}

// shardDomain resolves /v1/shards/{k}/… to shard k: operations run
// through the federation, which reconciles its own registry.
func (s *Server) shardDomain(w http.ResponseWriter, r *http.Request) (domain, bool) {
	k, ok := pathInt(w, r, "shard")
	if !ok {
		return domain{}, false
	}
	sh, err := s.fed.Shard(k)
	if refused(w, err) {
		return domain{}, false
	}
	return domain{
		Shard: sh,
		mutate: func(_ context.Context, op func(*core.Session) ([]core.RepairResult, error)) ([]core.RepairResult, error) {
			return s.fed.Mutate(k, op)
		},
		rebalance: func() (core.RebalanceResult, error) { return s.fed.RebalanceOnce(k) },
	}, true
}

// OpenTenantResponse identifies an opened federation tenant session.
type OpenTenantResponse struct {
	ID     string `json:"id"`
	Shards int    `json:"shards"`
}

func (s *Server) handleOpenTenant(w http.ResponseWriter, _ *http.Request) {
	// A federation tenant carries no cluster of its own — the shards
	// were fixed at startup — so the request body is empty.
	sid, err := s.fed.OpenTenant()
	if refused(w, err) {
		return
	}
	writeJSON(w, http.StatusCreated, OpenTenantResponse{ID: sid, Shards: s.fed.Shards()})
}

// admitRouted routes env for tenant sid onto the shards, split across
// them when no one shard fits it.
func (s *Server) admitRouted(_ context.Context, sid string, env *virtual.Env) (string, shard.Placement, cluster.VMMOverhead, error) {
	start := time.Now()
	eid, pl, err := s.fed.Admit(sid, env)
	s.mAdmitLatency.Observe(time.Since(start).Seconds())
	sh, _ := s.fed.Shard(0)
	return eid, pl, sh.Overhead(), err
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

func (s *Server) handleShards(w http.ResponseWriter, _ *http.Request) {
	st := s.fed.Stats()
	resp := ShardsResponse{
		RouterFallbacks: st.RouterFallbacks,
		SplitAdmissions: st.SplitAdmissions,
		GatewayInUse:    st.GatewayInUse,
		GatewayBudget:   st.GatewayBudget,
		Tenants:         st.Tenants,
	}
	for k, sh := range st.Shards {
		d, _ := s.fed.Shard(k)
		sum := d.Session().ResidualSummary()
		resp.Shards = append(resp.Shards, ShardReport{
			Shard:        k,
			Admissions:   sh.Admissions,
			ActiveEnvs:   sh.ActiveEnvs,
			ResidualProc: sh.ResidualProc,
			Hosts:        sum.Hosts,
			Guests:       sum.Guests,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/virtual"
)

// fedSpecs builds n identical 2x2 torus shard clusters. Hosts carry
// ample memory and storage so CPU is the binding resource — the router
// reserves CPU only, and a memory-bound testbed would admit-fail in
// ways the router cannot predict.
func fedSpecs(t *testing.T, n int) []spec.ClusterSpec {
	t.Helper()
	out := make([]spec.ClusterSpec, n)
	for k := 0; k < n; k++ {
		specs := make([]topology.HostSpec, 4)
		for i := range specs {
			specs[i] = topology.HostSpec{
				Name: "h" + strconv.Itoa(k*4+i), Proc: 2000, Mem: 65536, Stor: 100000,
			}
		}
		c, err := topology.Torus2D(specs, 2, 2, 10000, 1)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = spec.FromCluster(c)
	}
	return out
}

func startFedServer(t *testing.T, cfg FedConfig) (*FedServer, *httptest.Server) {
	t.Helper()
	s := NewFederation(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	return s, ts
}

func TestFederationHTTPRoundTrip(t *testing.T) {
	_, ts := startFedServer(t, FedConfig{ClusterSpecs: fedSpecs(t, 2), GatewayBW: 10})
	client := ts.Client()

	// Open a tenant (no body: the shards are fixed at startup).
	code, raw, _ := doJSON(t, client, "POST", ts.URL+"/v1/sessions", nil)
	if code != http.StatusCreated {
		t.Fatalf("open tenant: status %d: %s", code, raw)
	}
	var opened OpenTenantResponse
	if err := json.Unmarshal(raw, &opened); err != nil {
		t.Fatal(err)
	}
	if opened.Shards != 2 || opened.ID == "" {
		t.Fatalf("open tenant response: %+v", opened)
	}
	base := ts.URL + "/v1/sessions/" + opened.ID

	// Admit a routed environment and read its fragment set.
	code, raw, _ = doJSON(t, client, "POST", base+"/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(7, 8))})
	if code != http.StatusCreated {
		t.Fatalf("admit: status %d: %s", code, raw)
	}
	var admitted FedMapEnvResponse
	if err := json.Unmarshal(raw, &admitted); err != nil {
		t.Fatal(err)
	}
	if len(admitted.Fragments) != 1 || admitted.Split {
		t.Fatalf("admit response: %+v", admitted)
	}
	home := admitted.Fragments[0].Shard

	// The census sees the deployment.
	code, raw, _ = doJSON(t, client, "GET", ts.URL+"/v1/shards", nil)
	if code != http.StatusOK {
		t.Fatalf("shards: status %d: %s", code, raw)
	}
	var census ShardsResponse
	if err := json.Unmarshal(raw, &census); err != nil {
		t.Fatal(err)
	}
	if len(census.Shards) != 2 || census.Tenants != 1 {
		t.Fatalf("census: %+v", census)
	}
	if census.Shards[home].ActiveEnvs != 1 || census.Shards[home].Admissions != 1 {
		t.Fatalf("home shard census: %+v", census.Shards[home])
	}

	// Per-shard residuals address one lock domain.
	code, raw, _ = doJSON(t, client, "GET",
		ts.URL+"/v1/shards/"+strconv.Itoa(home)+"/residuals", nil)
	if code != http.StatusOK {
		t.Fatalf("residuals: status %d: %s", code, raw)
	}
	var res ResidualsResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.ActiveEnvs != 1 || len(res.ResidualProcMIPS) != 4 {
		t.Fatalf("residuals: %+v", res)
	}

	// Metrics expose the shard families.
	text := scrape(t, client, ts.URL)
	if got := metricValue(t, text, `hmnd_shard_admissions_total{shard="`+strconv.Itoa(home)+`"}`); got != 1 {
		t.Fatalf("admissions metric = %g", got)
	}
	if got := metricValue(t, text, "hmnd_shard_tenants"); got != 1 {
		t.Fatalf("tenants metric = %g", got)
	}
	for _, series := range []string{
		"hmnd_shard_router_fallbacks_total",
		"hmnd_shard_split_admissions_total",
		"hmnd_shard_gateway_bw_in_use",
		"hmnd_shard_gateway_bw_budget",
	} {
		metricValue(t, text, series)
	}

	// Fail-and-repair plus restore on the home shard.
	node := admitted.Fragments[0].Mapping.GuestHost[0]
	code, raw, _ = doJSON(t, client, "POST",
		ts.URL+"/v1/shards/"+strconv.Itoa(home)+"/hosts/"+strconv.Itoa(node)+"/fail", nil)
	if code != http.StatusOK {
		t.Fatalf("fail host: status %d: %s", code, raw)
	}
	var failed FailTargetResponse
	if err := json.Unmarshal(raw, &failed); err != nil {
		t.Fatal(err)
	}
	if failed.Evicted != 1 || len(failed.Results) != 1 {
		t.Fatalf("fail response: %+v", failed)
	}
	// A shard hosts many tenants, so a report names its environment by
	// the full tag: tenant, then environment ID.
	if want := opened.ID + "/" + admitted.ID; failed.Results[0].Env != want {
		t.Fatalf("fail report names env %q, want %q", failed.Results[0].Env, want)
	}
	code, raw, _ = doJSON(t, client, "POST",
		ts.URL+"/v1/shards/"+strconv.Itoa(home)+"/hosts/"+strconv.Itoa(node)+"/restore", nil)
	if code != http.StatusNoContent {
		t.Fatalf("restore host: status %d: %s", code, raw)
	}

	// A synchronous rebalance round answers with the objective bracket.
	code, raw, _ = doJSON(t, client, "POST",
		ts.URL+"/v1/shards/"+strconv.Itoa(home)+"/rebalance", nil)
	if code != http.StatusOK {
		t.Fatalf("rebalance: status %d: %s", code, raw)
	}

	// Release if the repair kept the environment, then close the tenant.
	if failed.Results[0].Outcome != "unrecoverable" {
		code, raw, _ = doJSON(t, client, "DELETE", base+"/envs/"+admitted.ID, nil)
		if code != http.StatusNoContent {
			t.Fatalf("release: status %d: %s", code, raw)
		}
	}
	code, raw, _ = doJSON(t, client, "DELETE", base, nil)
	if code != http.StatusNoContent {
		t.Fatalf("close tenant: status %d: %s", code, raw)
	}
	code, raw, _ = doJSON(t, client, "GET", ts.URL+"/v1/shards", nil)
	if code != http.StatusOK {
		t.Fatal("census after close")
	}
	if err := json.Unmarshal(raw, &census); err != nil {
		t.Fatal(err)
	}
	if census.Tenants != 0 {
		t.Fatalf("tenants after close: %+v", census)
	}
}

// TestFederationHTTPErrors covers the errors only a federation can
// answer; the ones it shares with the classic daemon are in
// TestBothModesHTTPContract.
func TestFederationHTTPErrors(t *testing.T) {
	_, ts := startFedServer(t, FedConfig{ClusterSpecs: fedSpecs(t, 2)})
	client := ts.Client()

	code, _, _ := doJSON(t, client, "POST", ts.URL+"/v1/sessions/nope/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(1, 4))})
	if code != http.StatusNotFound {
		t.Fatalf("unknown tenant admit: status %d", code)
	}
	code, _, _ = doJSON(t, client, "GET", ts.URL+"/v1/shards/x/residuals", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("non-numeric shard: status %d", code)
	}

	// An unsplittable oversize environment is a conflict, not a 500.
	sid := func() string {
		code, raw, _ := doJSON(t, client, "POST", ts.URL+"/v1/sessions", nil)
		if code != http.StatusCreated {
			t.Fatalf("open tenant: status %d: %s", code, raw)
		}
		var out OpenTenantResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out.ID
	}()
	huge := virtual.NewEnv()
	for i := 0; i < 12; i++ {
		huge.AddGuest("g"+strconv.Itoa(i), 2000, 64, 10)
	}
	code, raw, _ := doJSON(t, client, "POST", ts.URL+"/v1/sessions/"+sid+"/envs",
		MapEnvRequest{Env: spec.FromEnv(huge)})
	if code != http.StatusConflict {
		t.Fatalf("oversize admit: status %d: %s", code, raw)
	}
	var errResp ErrorResponse
	if err := json.Unmarshal(raw, &errResp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errResp.Error, "no shard") {
		t.Fatalf("oversize admit error: %q", errResp.Error)
	}
}

// TestFederationHTTPRecover restarts the daemon over the same data
// directory and requires byte-identical per-shard residuals from the
// wire — the same check the federation smoke script automates.
func TestFederationHTTPRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := FedConfig{ClusterSpecs: fedSpecs(t, 2), GatewayBW: 10, DataDir: dir}
	s := NewFederation(cfg)
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	code, raw, _ := doJSON(t, client, "POST", ts.URL+"/v1/sessions", nil)
	if code != http.StatusCreated {
		t.Fatalf("open tenant: status %d: %s", code, raw)
	}
	var opened OpenTenantResponse
	if err := json.Unmarshal(raw, &opened); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		code, raw, _ = doJSON(t, client, "POST", ts.URL+"/v1/sessions/"+opened.ID+"/envs",
			MapEnvRequest{Env: spec.FromEnv(smallEnv(20+seed, 6))})
		if code != http.StatusCreated {
			t.Fatalf("admit %d: status %d: %s", seed, code, raw)
		}
	}
	before := make([][]byte, 2)
	for k := range before {
		_, before[k], _ = doJSON(t, client, "GET",
			ts.URL+"/v1/shards/"+strconv.Itoa(k)+"/residuals", nil)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// ClusterSpecs are deliberately dropped: recovery must rebuild the
	// shards from their own WALs.
	s2, ts2 := startFedServer(t, FedConfig{DataDir: dir})
	if s2.Federation().Shards() != 2 {
		t.Fatalf("recovered %d shards", s2.Federation().Shards())
	}
	client = ts2.Client()
	for k := range before {
		_, after, _ := doJSON(t, client, "GET",
			ts2.URL+"/v1/shards/"+strconv.Itoa(k)+"/residuals", nil)
		if string(after) != string(before[k]) {
			t.Fatalf("shard %d residuals diverge after restart:\n%s\nvs\n%s", k, before[k], after)
		}
	}
	ids, err := s2.Federation().EnvIDs(opened.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("recovered %d envs, want 3", len(ids))
	}
}

// TestClassicAndOneShardFederationAgree is the safety net under the
// ROADMAP's "one daemon" collapse: a classic Server session and a
// 1-shard FedServer over the same cluster, fed the same seeded
// admit/release stream over HTTP, must place every guest of every
// environment on the same host and answer byte-identical residuals
// after every operation. At most four 4–12-guest environments are live
// on the 40-host paper cluster, so the router's CPU-headroom view never
// rejects what the classic session (where CPU is no constraint) admits.
func TestClassicAndOneShardFederationAgree(t *testing.T) {
	_, cs := testbed(t)
	_, cts := startServer(t, Config{})
	_, fts := startFedServer(t, FedConfig{ClusterSpecs: []spec.ClusterSpec{cs}})
	client := cts.Client()

	classic := cts.URL + "/v1/sessions/" + openSession(t, client, cts.URL, cs, "")
	code, raw, _ := doJSON(t, client, "POST", fts.URL+"/v1/sessions", nil)
	if code != http.StatusCreated {
		t.Fatalf("open tenant: status %d: %s", code, raw)
	}
	var tenant OpenTenantResponse
	if err := json.Unmarshal(raw, &tenant); err != nil {
		t.Fatal(err)
	}
	fed := fts.URL + "/v1/sessions/" + tenant.ID

	type envIDs struct{ classic, fed string }
	var live []envIDs
	rng := rand.New(rand.NewSource(16))
	for op := 0; op < 60; op++ {
		if len(live) < 4 && (len(live) == 0 || rng.Intn(3) > 0) {
			req := MapEnvRequest{Env: spec.FromEnv(smallEnv(rng.Int63(), 4+rng.Intn(9)))}
			code, raw, _ := doJSON(t, client, "POST", classic+"/envs", req)
			if code != http.StatusOK {
				t.Fatalf("op %d: classic admit: status %d: %s", op, code, raw)
			}
			var c MapEnvResponse
			if err := json.Unmarshal(raw, &c); err != nil {
				t.Fatal(err)
			}
			code, raw, _ = doJSON(t, client, "POST", fed+"/envs", req)
			if code != http.StatusCreated {
				t.Fatalf("op %d: federation admit: status %d: %s", op, code, raw)
			}
			var f FedMapEnvResponse
			if err := json.Unmarshal(raw, &f); err != nil {
				t.Fatal(err)
			}
			if len(f.Fragments) != 1 || !reflect.DeepEqual(f.Fragments[0].Mapping.GuestHost, c.Mapping.GuestHost) {
				t.Fatalf("op %d: placements differ:\nclassic    %v\nfederation %+v", op, c.Mapping.GuestHost, f.Fragments)
			}
			live = append(live, envIDs{classic: c.ID, fed: f.ID})
		} else {
			i := rng.Intn(len(live))
			if code, raw, _ := doJSON(t, client, "DELETE", classic+"/envs/"+live[i].classic, nil); code != http.StatusNoContent {
				t.Fatalf("op %d: classic release: status %d: %s", op, code, raw)
			}
			if code, raw, _ := doJSON(t, client, "DELETE", fed+"/envs/"+live[i].fed, nil); code != http.StatusNoContent {
				t.Fatalf("op %d: federation release: status %d: %s", op, code, raw)
			}
			live = append(live[:i], live[i+1:]...)
		}
		ccode, cres, _ := doJSON(t, client, "GET", classic+"/residuals", nil)
		fcode, fres, _ := doJSON(t, client, "GET", fts.URL+"/v1/shards/0/residuals", nil)
		if ccode != http.StatusOK || fcode != http.StatusOK || !bytes.Equal(cres, fres) {
			t.Fatalf("op %d: residuals differ:\nclassic    %s\nfederation %s", op, cres, fres)
		}
	}
}

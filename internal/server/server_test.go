package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/wal"
	"repro/internal/workload"
)

// testbed is the paper's Table 1 cluster (40 hosts, 8x5 torus) in both
// in-memory and spec form.
func testbed(t *testing.T) (*cluster.Cluster, spec.ClusterSpec) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c, err := topology.Torus2D(specs, 8, 5, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	return c, spec.FromCluster(c)
}

func smallEnv(seed int64, guests int) *virtual.Env {
	rng := rand.New(rand.NewSource(seed))
	return workload.GenerateEnv(workload.HighLevelParams(guests, 0.03), rng)
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// doJSON sends body (marshalled) and returns status plus raw response.
func doJSON(t *testing.T, client *http.Client, method, url string, body interface{}) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

func openSession(t *testing.T, client *http.Client, base string, cs spec.ClusterSpec, mapper string) string {
	t.Helper()
	code, raw, _ := doJSON(t, client, "POST", base+"/v1/sessions",
		OpenSessionRequest{Cluster: cs, Mapper: mapper})
	if code != http.StatusCreated {
		t.Fatalf("open session: status %d: %s", code, raw)
	}
	var out OpenSessionResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

// metricValue scrapes one series from the /metrics text.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in:\n%s", series, text)
	return 0
}

func scrape(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// TestEndToEnd is the acceptance scenario: open a session, concurrently
// map environments, validate every 2xx mapping through the spec
// round-trip, check /metrics bookkeeping, release everything and
// confirm the residuals return to the primed baseline.
func TestEndToEnd(t *testing.T) {
	c, cs := testbed(t)
	_, ts := startServer(t, Config{})
	client := ts.Client()
	sid := openSession(t, client, ts.URL, cs, "")

	var baseline ResidualsResponse
	code, raw, _ := doJSON(t, client, "GET", ts.URL+"/v1/sessions/"+sid+"/residuals", nil)
	if code != http.StatusOK {
		t.Fatalf("residuals: %d %s", code, raw)
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}

	const n = 6
	envs := make([]*virtual.Env, n)
	for i := range envs {
		envs[i] = smallEnv(int64(100+i), 15)
	}

	type outcome struct {
		code  int
		envID string
		ms    spec.MappingSpec
	}
	results := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, raw, _ := doJSON(t, client, "POST", ts.URL+"/v1/sessions/"+sid+"/envs",
				MapEnvRequest{Env: spec.FromEnv(envs[i])})
			results[i].code = code
			if code == http.StatusCreated {
				var out AdmitResponse
				if err := json.Unmarshal(raw, &out); err != nil {
					t.Error(err)
					return
				}
				results[i].envID = out.ID
				results[i].ms = out.Fragments[0].Mapping
			}
		}(i)
	}
	wg.Wait()

	succeeded, failed := 0, 0
	for i, r := range results {
		switch r.code {
		case http.StatusCreated:
			succeeded++
			// Every 2xx mapping must survive the spec round-trip and the
			// formal constraint validation of Eq. (1)-(9).
			m, err := r.ms.ToMapping(c, envs[i])
			if err != nil {
				t.Fatalf("env %d: ToMapping: %v", i, err)
			}
			if err := m.Validate(cluster.VMMOverhead{}); err != nil {
				t.Fatalf("env %d: returned mapping invalid: %v", i, err)
			}
		case http.StatusConflict:
			failed++ // legitimately infeasible under contention
		default:
			t.Fatalf("env %d: unexpected status %d", i, r.code)
		}
	}
	if succeeded == 0 {
		t.Fatal("no environment mapped at all")
	}

	// Residuals must reflect the deployed environments.
	var mid ResidualsResponse
	_, raw, _ = doJSON(t, client, "GET", ts.URL+"/v1/sessions/"+sid+"/residuals", nil)
	if err := json.Unmarshal(raw, &mid); err != nil {
		t.Fatal(err)
	}
	if mid.ActiveEnvs != succeeded {
		t.Fatalf("active_envs = %d, want %d", mid.ActiveEnvs, succeeded)
	}

	// Metrics must agree with the observed statuses.
	text := scrape(t, client, ts.URL)
	attempted := metricValue(t, text, `hmnd_maps_attempted_total{mapper="HMN"}`)
	succ := metricValue(t, text, `hmnd_maps_succeeded_total{mapper="HMN"}`)
	if int(attempted) != succeeded+failed {
		t.Fatalf("attempted = %v, want %d", attempted, succeeded+failed)
	}
	if int(succ) != succeeded {
		t.Fatalf("succeeded = %v, want %d", succ, succeeded)
	}
	if failed > 0 {
		if f := metricValue(t, text, `hmnd_maps_failed_total{mapper="HMN"}`); int(f) != failed {
			t.Fatalf("failed = %v, want %d", f, failed)
		}
	}
	// The latency histogram must have observed every attempt with a
	// positive total and cumulative buckets ending at the attempt count.
	hCount := metricValue(t, text, "hmnd_map_latency_seconds_count")
	if int(hCount) != succeeded+failed {
		t.Fatalf("latency count = %v, want %d", hCount, succeeded+failed)
	}
	if hSum := metricValue(t, text, "hmnd_map_latency_seconds_sum"); hSum <= 0 {
		t.Fatalf("latency sum = %v, want > 0", hSum)
	}
	if inf := metricValue(t, text, `hmnd_map_latency_seconds{le="+Inf"}`); inf != hCount {
		t.Fatalf("+Inf bucket = %v, want %v", inf, hCount)
	}
	// The three stage histograms saw the same attempts, and their times
	// are parts of the attempts' wall time.
	var stageSum float64
	for _, stage := range []string{"hosting", "migration", "networking"} {
		if n := metricValue(t, text, fmt.Sprintf("hmnd_map_stage_seconds_count{stage=%q}", stage)); n != hCount {
			t.Fatalf("%s stage count = %v, want %v", stage, n, hCount)
		}
		stageSum += metricValue(t, text, fmt.Sprintf("hmnd_map_stage_seconds_sum{stage=%q}", stage))
	}
	if hSum := metricValue(t, text, "hmnd_map_latency_seconds_sum"); stageSum <= 0 || stageSum > hSum {
		t.Fatalf("stage times sum to %v of %v s of map latency", stageSum, hSum)
	}
	if got := metricValue(t, text, "hmnd_active_envs"); int(got) != succeeded {
		t.Fatalf("active_envs gauge = %v, want %d", got, succeeded)
	}
	stddev := metricValue(t, text, fmt.Sprintf("hmnd_session_residual_stddev{session=%q}", sid))
	if math.IsNaN(stddev) || stddev < 0 {
		t.Fatalf("stddev gauge = %v", stddev)
	}

	// Admission accounting: the commit-latency histogram saw every
	// attempt, and the repeated same-topology admissions must have hit
	// the AR cache.
	if got := metricValue(t, text, "hmnd_commit_latency_seconds_count"); int(got) != succeeded+failed {
		t.Fatalf("commit latency count = %v, want %d", got, succeeded+failed)
	}
	if misses := metricValue(t, text, "hmnd_ar_cache_misses_total"); misses <= 0 {
		t.Fatalf("AR cache misses = %v, want > 0", misses)
	}
	// Every committed inter-host link cost at least one A*Prune search,
	// and a search that finds a path pops its origin and its destination.
	routed := 0
	for _, r := range results {
		for _, edges := range r.ms.LinkEdges {
			if len(edges) > 0 {
				routed++
			}
		}
	}
	searches := metricValue(t, text, "hmnd_route_searches_total")
	if routed == 0 || int(searches) < routed {
		t.Fatalf("route searches = %v for %d routed links", searches, routed)
	}
	if pops := metricValue(t, text, "hmnd_route_pops_total"); pops < 2*float64(routed) {
		t.Fatalf("route pops = %v for %d routed links", pops, routed)
	}

	// Release everything concurrently.
	wg = sync.WaitGroup{}
	for _, r := range results {
		if r.envID == "" {
			continue
		}
		wg.Add(1)
		go func(envID string) {
			defer wg.Done()
			code, raw, _ := doJSON(t, client, "DELETE",
				ts.URL+"/v1/sessions/"+sid+"/envs/"+envID, nil)
			if code != http.StatusNoContent {
				t.Errorf("release %s: %d %s", envID, code, raw)
			}
		}(r.envID)
	}
	wg.Wait()

	var after ResidualsResponse
	_, raw, _ = doJSON(t, client, "GET", ts.URL+"/v1/sessions/"+sid+"/residuals", nil)
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	if after.ActiveEnvs != 0 {
		t.Fatalf("active_envs = %d after full release", after.ActiveEnvs)
	}
	for i := range baseline.ResidualProcMIPS {
		if math.Abs(baseline.ResidualProcMIPS[i]-after.ResidualProcMIPS[i]) > 1e-9 {
			t.Fatalf("host %d residual not restored: %v vs %v",
				i, baseline.ResidualProcMIPS[i], after.ResidualProcMIPS[i])
		}
	}
}

// TestGracefulShutdown proves Close finishes the operation in flight,
// refuses new work meanwhile — at every one of the seven mutating
// handlers, against a session the held operation does not lock — and
// leaks no goroutines.
func TestGracefulShutdown(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	c, cs := testbed(t)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()
	sid := openSession(t, client, ts.URL, cs, "")
	other := "/v1/sessions/" + openSession(t, client, ts.URL, cs, "")
	if code, raw, _ := doJSON(t, client, "POST", ts.URL+other+"/envs", MapEnvRequest{Env: spec.FromEnv(smallEnv(41, 4))}); code != http.StatusCreated {
		t.Fatalf("map into %s: %d %s", other, code, raw)
	}

	// An admission holds the session's lock when Close begins: it is the
	// in-flight work the drain must finish.
	env := smallEnv(42, 10)
	release := holdSession(t, s, sid, env)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// Draining must be observable (healthz flips to 503) while the held
	// admission keeps Close waiting.
	waitFor(t, func() bool {
		resp, err := client.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	// New mutating work is refused while draining, by every handler.
	host := c.HostNodes()[0]
	for _, call := range []struct {
		method, path string
		body         interface{}
	}{
		{"POST", "/v1/sessions", OpenSessionRequest{Cluster: cs}},
		{"POST", "/v1/sessions/" + sid + "/envs", MapEnvRequest{Env: spec.FromEnv(smallEnv(43, 10))}},
		{"POST", other + "/envs", MapEnvRequest{Env: spec.FromEnv(smallEnv(44, 4))}},
		{"DELETE", other + "/envs/e1", nil},
		{"POST", fmt.Sprintf("%s/hosts/%d/fail", other, host), nil},
		{"POST", fmt.Sprintf("%s/hosts/%d/restore", other, host), nil},
		{"POST", other + "/rebalance", nil},
		{"DELETE", other, nil},
	} {
		if code, raw, _ := doJSON(t, client, call.method, ts.URL+call.path, call.body); code != http.StatusServiceUnavailable || !strings.Contains(string(raw), "draining") {
			t.Fatalf("%s %s during drain: %d %s, want 503 draining", call.method, call.path, code, raw)
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while an admission was in flight")
	default:
	}

	// Let go: the held map must complete successfully.
	res := release()
	if res.Code != http.StatusCreated {
		t.Fatalf("in-flight map: status %d: %s", res.Code, res.Body.Bytes())
	}
	var out AdmitResponse
	if err := json.Unmarshal(res.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	m, err := out.Fragments[0].Mapping.ToMapping(c, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("in-flight mapping invalid: %v", err)
	}

	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after drain")
	}
	s.Close() // idempotent
	ts.Close()

	// No goroutine leak: the listener is gone.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseGoroutines+2 })
}

// TestHandlerErrors covers the errors only a classic daemon can answer;
// the ones it shares with the federation (empty and infeasible
// environments among them) are in TestBothModesHTTPContract.
func TestHandlerErrors(t *testing.T) {
	_, cs := testbed(t)
	_, ts := startServer(t, Config{})
	client := ts.Client()

	// Unknown field in the request body: strict decoding is a 400.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions",
		strings.NewReader(`{"clutser": {}}`))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typo body: status %d, want 400", resp.StatusCode)
	}

	// Unknown mapper: HMN is the only session mapper, so a baseline and
	// the deleted consolidating variant are refused alike.
	for _, mapper := range []string{"R", "HMN-C"} {
		code, raw, _ := doJSON(t, client, "POST", ts.URL+"/v1/sessions",
			OpenSessionRequest{Cluster: cs, Mapper: mapper})
		if code != http.StatusBadRequest || !strings.Contains(string(raw), `unknown mapper`) {
			t.Fatalf("mapper %s: status %d %s, want 400 unknown mapper", mapper, code, raw)
		}
	}

	// Unknown session / environment.
	code, _, _ := doJSON(t, client, "POST", ts.URL+"/v1/sessions/nope/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(1, 3))})
	if code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", code)
	}
	// No refused open burned a session ID.
	sid := openSession(t, client, ts.URL, cs, "HMN")
	if sid != "s1" {
		t.Fatalf("the first open after refused ones is %s, want s1", sid)
	}
	code, _, _ = doJSON(t, client, "DELETE", ts.URL+"/v1/sessions/"+sid+"/envs/e99", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown env: status %d, want 404", code)
	}
}

func TestMapAndSessionClose(t *testing.T) {
	_, cs := testbed(t)
	_, ts := startServer(t, Config{})
	client := ts.Client()
	sid := openSession(t, client, ts.URL, cs, "HMN")

	code, raw, _ := doJSON(t, client, "POST", ts.URL+"/v1/sessions/"+sid+"/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(5, 10))})
	if code != http.StatusCreated {
		t.Fatalf("map: %d %s", code, raw)
	}
	var out AdmitResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Fragments) != 1 || len(out.Fragments[0].Mapping.GuestHost) != 10 {
		t.Fatalf("want one fragment mapping 10 guests: %s", raw)
	}

	// Closing the session releases its environments and retires its
	// stddev series from /metrics.
	code, _, _ = doJSON(t, client, "DELETE", ts.URL+"/v1/sessions/"+sid, nil)
	if code != http.StatusNoContent {
		t.Fatalf("close session: status %d", code)
	}
	text := scrape(t, client, ts.URL)
	if strings.Contains(text, fmt.Sprintf("session=%q", sid)) {
		t.Fatal("closed session still exposes metrics series")
	}
	if got := metricValue(t, text, "hmnd_active_envs"); got != 0 {
		t.Fatalf("active_envs = %v after session close", got)
	}
	code, _, _ = doJSON(t, client, "GET", ts.URL+"/v1/sessions/"+sid+"/residuals", nil)
	if code != http.StatusNotFound {
		t.Fatalf("closed session residuals: status %d, want 404", code)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestQueuedMapsLogOneAdmitEach piles map requests up behind an
// admission that holds the session's lock. Nothing coalesces them: they
// are admitted one at a time as the lock frees, each gets its own
// correct response, and the log holds one admit record per request
// under consecutive sequence numbers. Environment IDs are assigned
// before the lock is taken, so which request got which seq is not
// asserted.
func TestQueuedMapsLogOneAdmitEach(t *testing.T) {
	c, cs := testbed(t)
	dir := t.TempDir()
	srv, ts := startServer(t, Config{DataDir: dir, Logf: t.Logf})
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	client := ts.Client()
	sid := openSession(t, client, ts.URL, cs, "")

	// Hold the session's lock so the map requests pile up behind it.
	held := smallEnv(299, 12)
	release := holdSession(t, srv, sid, held)

	const n = 5
	envs := make([]*virtual.Env, n)
	for i := range envs {
		envs[i] = smallEnv(int64(300+i), 12)
	}
	results := make([]int, n)
	specs := make([]spec.MappingSpec, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, raw, _ := doJSON(t, client, "POST", ts.URL+"/v1/sessions/"+sid+"/envs",
				MapEnvRequest{Env: spec.FromEnv(envs[i])})
			results[i] = code
			if code == http.StatusCreated {
				var out AdmitResponse
				if err := json.Unmarshal(raw, &out); err != nil {
					t.Error(err)
					return
				}
				specs[i] = out.Fragments[0].Mapping
			}
		}(i)
	}

	// All n requests must be waiting before the lock frees.
	waitForMappers(t, n+1)
	if res := release(); res.Code != http.StatusCreated {
		t.Fatalf("held request: status %d: %s", res.Code, res.Body.Bytes())
	}
	wg.Wait()

	for i, code := range results {
		if code != http.StatusCreated {
			t.Fatalf("request %d: status %d", i, code)
		}
		m, err := specs[i].ToMapping(c, envs[i])
		if err != nil {
			t.Fatalf("request %d: ToMapping: %v", i, err)
		}
		if err := m.Validate(cluster.VMMOverhead{}); err != nil {
			t.Fatalf("request %d: mapping invalid: %v", i, err)
		}
	}

	// Every request was acknowledged, so every record is durable: one
	// admit per request, the held one's included, seqs 1..n+1 with no
	// gap, and no other kind.
	rec, err := wal.Scan(dir, wal.Hooks{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := range rec.Records {
		switch r := &rec.Records[i]; r.Kind {
		case wal.KindOpen:
		case wal.KindAdmit:
			seqs = append(seqs, r.Admit.Seq)
		default:
			t.Fatalf("record %d is a %s record; a burst of maps writes admits only", i, r.Kind)
		}
	}
	if want := []uint64{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("admit records carry seqs %v, want %v", seqs, want)
	}

	text := scrape(t, client, ts.URL)
	if strings.Contains(text, "hmnd_map_batch") {
		t.Fatal("a hmnd_map_batch* series is still registered")
	}
	if got := metricValue(t, text, `hmnd_maps_succeeded_total{mapper="HMN"}`); int(got) != n+1 {
		t.Fatalf("succeeded = %v, want %d", got, n+1)
	}
	if got := metricValue(t, text, "hmnd_active_envs"); int(got) != n+1 {
		t.Fatalf("active envs = %v, want %d", got, n+1)
	}
	// Admission accounting covers the whole burst.
	if got := metricValue(t, text, "hmnd_commit_latency_seconds_count"); int(got) != n+1 {
		t.Fatalf("commit latency count = %v, want %d", got, n+1)
	}
	if got := metricValue(t, text, "hmnd_route_searches_total"); got <= 0 {
		t.Fatalf("route searches = %v: the burst's A*Prune work went uncounted", got)
	}
}

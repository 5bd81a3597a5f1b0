package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/wal"
)

// contractFamilies are the metric families both modes register once and
// feed: the admission, repair, rebalance and durability families, and
// the scrape-time degradation and occupancy gauges.
var contractFamilies = []string{
	"hmnd_map_latency_seconds", "hmnd_map_stage_seconds", "hmnd_commit_latency_seconds", "hmnd_admit_env_verbatim_total",
	"hmnd_route_searches_total", "hmnd_route_pops_total", "hmnd_route_sweeps_total",
	"hmnd_repair_latency_seconds", "hmnd_evictions_total", "hmnd_repairs_total",
	"hmnd_rebalance_rounds_total", "hmnd_rebalance_planned_units_total", "hmnd_rebalance_moves_total",
	"hmnd_rebalance_aborts_total", "hmnd_rebalance_objective_improvement", "hmnd_rebalance_round_seconds",
	"hmnd_quarantined_hosts", "hmnd_cut_links", "hmnd_ar_cache_hits_total", "hmnd_ar_cache_misses_total",
	"hmnd_active_envs",
	"hmnd_wal_records_total", "hmnd_replay_records_total", "hmnd_recovery_seconds",
	"hmnd_wal_fsync_seconds", "hmnd_snapshot_seconds",
}

var (
	familyName = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// scaledUnit is a unit suffix other than the base _seconds and _bytes.
	scaledUnit = regexp.MustCompile(`_(ms|millis|milliseconds|us|micros|microseconds|ns|nanos|nanoseconds|minutes|hours|[kmg]i?b|kilobytes|megabytes|gigabytes)$`)
)

// checkFamilyNames holds every family a scrape exposes to the naming
// rules: a Prometheus identifier, counters ending in _total, histograms
// in the base units _seconds or _bytes, gauges not posing as counters,
// and no scaled unit anywhere.
func checkFamilyNames(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name, kind, _ := strings.Cut(rest, " ")
		switch {
		case !familyName.MatchString(name):
			t.Errorf("family %q is not a Prometheus identifier", name)
		case scaledUnit.MatchString(name):
			t.Errorf("family %q is in a scaled unit; record _seconds or _bytes", name)
		case kind == "counter" && !strings.HasSuffix(name, "_total"):
			t.Errorf("counter %q does not end in _total", name)
		case kind == "histogram" && !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes"):
			t.Errorf("histogram %q does not end in _seconds or _bytes", name)
		case kind == "gauge" && strings.HasSuffix(name, "_total"):
			t.Errorf("gauge %q ends in the counter suffix _total", name)
		}
	}
}

// contractStep is one request of the contract script as the client saw
// it answered: the status and, for an error reply, its "error" string.
type contractStep struct {
	name string
	code int
	err  string
}

// TestBothModesHTTPContract runs one request script against a classic
// daemon and a 1-shard federation on the same cluster. The two URL
// shapes differ only by the prefix naming the lock domain —
// /v1/sessions/{sid} or /v1/shards/{k} — so the two transcripts must
// agree on every status and every error string, apart from the one
// place the modes differ by design: how an unknown domain is named.
func TestBothModesHTTPContract(t *testing.T) {
	_, cs := testbed(t)
	modes := []struct {
		name  string
		build func(Config) *Server
		// open opens a session and returns the prefix of the daemon's one
		// lock domain; nowhere is a prefix naming no domain.
		open    func(t *testing.T, client *http.Client, base string) (session, domain string)
		nowhere string
	}{
		{"classic", New, func(t *testing.T, client *http.Client, base string) (string, string) {
			sid := openSession(t, client, base, cs, "")
			return "/v1/sessions/" + sid, "/v1/sessions/" + sid
		}, "/v1/sessions/nope"},
		{"federation", NewFederation, func(t *testing.T, client *http.Client, base string) (string, string) {
			code, raw, _ := doJSON(t, client, "POST", base+"/v1/sessions", nil)
			if code != http.StatusCreated {
				t.Fatalf("open tenant: status %d: %s", code, raw)
			}
			var out OpenTenantResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatal(err)
			}
			return "/v1/sessions/" + out.ID, "/v1/shards/0"
		}, "/v1/shards/9"},
	}
	transcripts := make([][]contractStep, len(modes))
	for i, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			s := mode.build(Config{
				MaxBodyBytes: 16 << 10, DataDir: t.TempDir(), ClusterSpecs: []spec.ClusterSpec{cs}, Logf: t.Logf,
			})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ts.Close()
				s.Close()
			})
			client := ts.Client()
			var steps []contractStep
			// do sends one scripted request, requires the status want and
			// records how it was answered.
			do := func(name, method, path string, body interface{}, want int) ([]byte, http.Header) {
				t.Helper()
				code, raw, hdr := doJSON(t, client, method, ts.URL+path, body)
				if code != want {
					t.Fatalf("%s: status %d, want %d: %s", name, code, want, raw)
				}
				step := contractStep{name: name, code: code}
				if code >= 400 {
					var e ErrorResponse
					if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
						t.Fatalf("%s: status %d with no error body: %s", name, code, raw)
					}
					step.err = e.Error
				}
				steps = append(steps, step)
				return raw, hdr
			}
			last := func() contractStep { return steps[len(steps)-1] }

			// Replaying: /healthz says so, /v1 is shut with Retry-After,
			// /metrics answers.
			do("healthz while replaying", "GET", "/healthz", nil, http.StatusServiceUnavailable)
			if last().err != "replaying" {
				t.Fatalf("healthz before Recover: %+v, want replaying", last())
			}
			_, hdr := do("open while replaying", "POST", "/v1/sessions", nil, http.StatusServiceUnavailable)
			if last().err != "replaying" || hdr.Get("Retry-After") == "" {
				t.Fatalf("/v1 before Recover: %+v (Retry-After %q), want replaying", last(), hdr.Get("Retry-After"))
			}
			if code, _, _ := doJSON(t, client, "GET", ts.URL+"/metrics", nil); code != http.StatusOK {
				t.Fatalf("metrics while replaying: status %d", code)
			}
			if err := s.Recover(); err != nil {
				t.Fatal(err)
			}
			if code, raw, _ := doJSON(t, client, "GET", ts.URL+"/v1/healthz", nil); code != http.StatusOK || !strings.Contains(string(raw), "serving") {
				t.Fatalf("healthz after Recover: %d %q, want 200 serving", code, raw)
			}
			session, domain := mode.open(t, client, ts.URL)

			// Bad names: 400 for a target that is not a number, 404 for a
			// host, a link or a domain that does not exist.
			do("non-numeric host", "POST", domain+"/hosts/zero/fail", nil, http.StatusBadRequest)
			do("non-numeric link", "POST", domain+"/links/x/restore", nil, http.StatusBadRequest)
			do("unknown host", "POST", domain+"/hosts/99999/fail", nil, http.StatusNotFound)
			do("unknown link", "POST", domain+"/links/99999/fail", nil, http.StatusNotFound)
			for _, path := range []string{"/residuals", "/hosts/0/fail", "/links/0/restore", "/rebalance"} {
				method := "POST"
				if path == "/residuals" {
					method = "GET"
				}
				if code, raw, _ := doJSON(t, client, method, ts.URL+mode.nowhere+path, nil); code != http.StatusNotFound {
					t.Fatalf("%s on an unknown domain: status %d: %s", path, code, raw)
				}
			}

			// Environments the daemon must refuse: no guests, an unknown
			// option and an oversize body are the request's fault (400), a
			// guest no host can hold conflicts with the testbed's state (409).
			do("zero-guest env", "POST", session+"/envs", MapEnvRequest{}, http.StatusBadRequest)
			if last().err != "environment has no guests" {
				t.Fatalf("zero-guest env: %+v", last())
			}
			do("unknown option", "POST", session+"/envs",
				json.RawMessage(`{"env":{"guests":[{"name":"g","proc_mips":1,"mem_mb":1,"stor_gb":1}]},"plan":true}`), http.StatusBadRequest)
			if !strings.Contains(last().err, `unknown field "plan"`) {
				t.Fatalf("unknown option: %+v", last())
			}
			do("oversize body", "POST", session+"/envs", MapEnvRequest{Env: spec.FromEnv(smallEnv(1, 300))}, http.StatusBadRequest)
			if !strings.Contains(last().err, "request body too large") {
				t.Fatalf("oversize body: %+v", last())
			}
			// Small in CPU, which is all a router looks at, and far too
			// large in memory for any host.
			do("infeasible env", "POST", session+"/envs",
				MapEnvRequest{Env: spec.EnvSpec{Guests: []spec.GuestSpec{{Name: "huge", Proc: 1, Mem: 1 << 40, Stor: 1}}}},
				http.StatusConflict)

			// One admission, then the fail/restore state machine on a host
			// it uses: failing a failed host and restoring a healthy one
			// are conflicts.
			raw, _ := do("admit", "POST", session+"/envs", MapEnvRequest{Env: spec.FromEnv(smallEnv(7, 8))}, http.StatusCreated)
			var admitted AdmitResponse
			if err := json.Unmarshal(raw, &admitted); err != nil {
				t.Fatal(err)
			}
			if len(admitted.Fragments) != 1 || admitted.Fragments[0].Shard != 0 || admitted.Fragments[0].Guests != nil {
				t.Fatalf("admit: %s, want one whole fragment on shard 0", raw)
			}
			host := domain + "/hosts/" + strconv.Itoa(admitted.Fragments[0].Mapping.GuestHost[0])
			raw, _ = do("fail host", "POST", host+"/fail", nil, http.StatusOK)
			var failed FailTargetResponse
			if err := json.Unmarshal(raw, &failed); err != nil {
				t.Fatal(err)
			}
			if failed.Evicted != 1 || len(failed.Results) != 1 {
				t.Fatalf("fail host: %s", raw)
			}
			do("fail host twice", "POST", host+"/fail", nil, http.StatusConflict)

			// One admit and one fail later every shared family is exposed
			// and fed, under its one name.
			text := scrape(t, client, ts.URL)
			for _, family := range contractFamilies {
				if !strings.Contains(text, "# TYPE "+family+" ") {
					t.Errorf("family %s missing from /metrics", family)
				}
			}
			if strings.Contains(text, "hmnd_shard_wal_") || strings.Contains(text, "hmnd_shard_replay_") || strings.Contains(text, "hmnd_shard_snapshot_") {
				t.Error("a per-shard duplicate of a durability family is still registered")
			}
			survivors := 1.0
			if failed.Results[0].Outcome == "unrecoverable" {
				survivors = 0
			}
			pipelines := 2.0 // the infeasible attempt and the admission
			if failed.Results[0].Outcome != "repaired" {
				pipelines++ // the repair's full re-map
			}
			for series, want := range map[string]float64{
				"hmnd_map_latency_seconds_count":                                  2, // the infeasible attempt and the admission
				"hmnd_commit_latency_seconds_count":                               2,
				"hmnd_admit_env_verbatim_total":                                   1, // the admission's body was compact
				`hmnd_map_stage_seconds_count{stage="hosting"}`:                   pipelines,
				`hmnd_map_stage_seconds_count{stage="migration"}`:                 pipelines,
				`hmnd_map_stage_seconds_count{stage="networking"}`:                pipelines,
				"hmnd_repair_latency_seconds_count":                               1,
				`hmnd_evictions_total{kind="host"}`:                               1,
				`hmnd_repairs_total{outcome="` + failed.Results[0].Outcome + `"}`: 1,
				"hmnd_quarantined_hosts":                                          1,
				"hmnd_active_envs":                                                survivors,
			} {
				if got := metricValue(t, text, series); got != want {
					t.Errorf("%s = %v, want %v", series, got, want)
				}
			}
			if metricValue(t, text, "hmnd_wal_records_total") == 0 || metricValue(t, text, "hmnd_wal_fsync_seconds_count") == 0 {
				t.Error("the admission and the failure reached the log uncounted")
			}

			do("restore host", "POST", host+"/restore", nil, http.StatusNoContent)
			do("restore healthy host", "POST", host+"/restore", nil, http.StatusConflict)

			// The same environment indented, as a tester writes it by hand:
			// admitted all the same, but its bytes are not what goes to the
			// log, so it does not count as verbatim.
			var indented bytes.Buffer
			if err := spec.WriteIndentedJSON(&indented, MapEnvRequest{Env: spec.FromEnv(smallEnv(7, 8))}); err != nil {
				t.Fatal(err)
			}
			resp, err := client.Post(ts.URL+session+"/envs", "application/json", &indented)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			text = scrape(t, client, ts.URL)
			if resp.StatusCode != http.StatusCreated || metricValue(t, text, "hmnd_map_latency_seconds_count") != 3 ||
				metricValue(t, text, "hmnd_admit_env_verbatim_total") != 1 {
				t.Errorf("indented admission: status %d, %v map attempts, %v verbatim; want 201, 3, 1", resp.StatusCode,
					metricValue(t, text, "hmnd_map_latency_seconds_count"), metricValue(t, text, "hmnd_admit_env_verbatim_total"))
			}
			checkFamilyNames(t, text)

			// Draining: Close has begun, /healthz says so.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			do("healthz while draining", "GET", "/healthz", nil, http.StatusServiceUnavailable)
			if last().err != "draining" {
				t.Fatalf("healthz after Close: %+v, want draining", last())
			}
			transcripts[i] = steps
		})
	}
	classic, fed := transcripts[0], transcripts[1]
	if len(classic) == 0 || len(classic) != len(fed) {
		t.Fatalf("transcripts of %d and %d steps", len(classic), len(fed))
	}
	for i := range classic {
		if classic[i] != fed[i] {
			t.Errorf("the modes disagree:\nclassic    %+v\nfederation %+v", classic[i], fed[i])
		}
	}
}

// daemonMode is how to build a daemon of one mode and what opens a
// session on it.
type daemonMode struct {
	name  string
	build func(Config) *Server
	open  interface{}
}

// bothModes lists the classic mode, with sessions on cluster cs, and the
// federation mode.
func bothModes(cs spec.ClusterSpec) []daemonMode {
	return []daemonMode{{"classic", New, OpenSessionRequest{Cluster: cs}}, {"federation", NewFederation, nil}}
}

// TestAdmitRepliesAgreeInBothModes: a classic daemon and a 1-shard
// federation on one cluster answer an admission with the same reply; a
// split admission reports one fragment per shard, each holding its own
// community's guests mapped onto hosts of the shard it landed on.
func TestAdmitRepliesAgreeInBothModes(t *testing.T) {
	_, cs := testbed(t)
	req := MapEnvRequest{Env: spec.FromEnv(smallEnv(5, 10))}
	var replies [2]AdmitResponse
	for i, mode := range bothModes(cs) {
		s := mode.build(Config{ClusterSpecs: []spec.ClusterSpec{cs}})
		if err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		servedID(t, serve(t, s, "POST", "/v1/sessions", mode.open))
		rec := serve(t, s, "POST", "/v1/sessions/s1/envs", req)
		if err := json.Unmarshal(rec.Body.Bytes(), &replies[i]); rec.Code != http.StatusCreated || err != nil {
			t.Fatalf("admit: %d %s", rec.Code, rec.Body.Bytes())
		}
		s.Close()
	}
	for i, mode := range bothModes(cs) {
		if fr := replies[i].Fragments; len(fr) != 1 || len(fr[0].Mapping.GuestHost) != 10 {
			t.Fatalf("%s: want one fragment mapping 10 guests: %+v", mode.name, replies[i])
		}
	}
	if !reflect.DeepEqual(replies[0], replies[1]) {
		t.Fatalf("the modes answer differently:\nclassic    %+v\nfederation %+v", replies[0], replies[1])
	}

	// Two CPU-heavy communities joined by one thin link: no one shard
	// holds both, so the environment splits at the thin link.
	specs := fedSpecs(t, 2)
	s := NewFederation(Config{ClusterSpecs: specs, GatewayBW: 10})
	defer s.Close()
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	servedID(t, serve(t, s, "POST", "/v1/sessions", nil))
	split := spec.EnvSpec{}
	for g := 0; g < 6; g++ {
		split.Guests = append(split.Guests, spec.GuestSpec{Name: "g" + strconv.Itoa(g), Proc: 1600, Mem: 256, Stor: 100})
	}
	for _, l := range [][3]int{{0, 1, 50}, {1, 2, 50}, {3, 4, 50}, {4, 5, 50}, {0, 3, 1}} {
		split.Links = append(split.Links, spec.VLinkSpec{From: l[0], To: l[1], BW: float64(l[2]), Lat: 1000})
	}
	rec := serve(t, s, "POST", "/v1/sessions/s1/envs", MapEnvRequest{Env: split})
	var out AdmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusCreated || err != nil || !out.Split || len(out.Fragments) != 2 {
		t.Fatalf("split admit: %d %s", rec.Code, rec.Body.Bytes())
	}
	if out.Fragments[0].Shard == out.Fragments[1].Shard {
		t.Fatalf("both fragments on shard %d", out.Fragments[0].Shard)
	}
	for _, fr := range out.Fragments {
		if len(fr.Guests) != 3 || len(fr.Mapping.GuestHost) != 3 || fr.Guests[0]/3 != fr.Guests[2]/3 {
			t.Fatalf("fragment on shard %d does not hold one community: %+v", fr.Shard, fr)
		}
		hosts := map[int]bool{}
		for _, h := range specs[fr.Shard].Hosts {
			hosts[h.Node] = true
		}
		// 1 600 MIPS a guest on 2 000 MIPS hosts: one guest a host.
		used := map[int]bool{}
		for g, node := range fr.Mapping.GuestHost {
			if !hosts[node] || used[node] {
				t.Errorf("fragment on shard %d maps guest %d onto node %d: not a free host of its shard", fr.Shard, fr.Guests[g], node)
			}
			used[node] = true
		}
	}
}

// TestCancelledAdmissionsLeaveNothing: in either mode, an admission
// whose client has already gone is refused before it is admitted, and in
// federation mode one whose client gives up while it is being admitted
// is released again, both halves in the log: either way the reply is a
// 503 and no environment is left deployed under an ID no client learned.
func TestCancelledAdmissionsLeaveNothing(t *testing.T) {
	_, cs := testbed(t)
	req := MapEnvRequest{Env: spec.FromEnv(smallEnv(5, 6))}
	// admit posts req to session s1 of s on ctx.
	admit := func(s *Server, ctx context.Context) *httptest.ResponseRecorder {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/s1/envs", bytes.NewReader(body)).WithContext(ctx))
		return rec
	}
	// refusedAndEmpty requires rec to be the timeout's 503 and s to hold
	// no environment.
	refusedAndEmpty := func(t *testing.T, s *Server, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "request timed out") {
			t.Errorf("cancelled admit: %d %s, want 503 request timed out", rec.Code, rec.Body.Bytes())
		}
		if got := metricValue(t, serve(t, s, "GET", "/metrics", nil).Body.String(), "hmnd_active_envs"); got != 0 {
			t.Errorf("hmnd_active_envs = %v after a cancelled admit, want 0", got)
		}
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range bothModes(cs) {
		t.Run(mode.name+"/gone before", func(t *testing.T) {
			s := mode.build(Config{ClusterSpecs: []spec.ClusterSpec{cs}})
			defer s.Close()
			if err := s.Recover(); err != nil {
				t.Fatal(err)
			}
			servedID(t, serve(t, s, "POST", "/v1/sessions", mode.open))
			refusedAndEmpty(t, s, admit(s, gone))
			if got := metricValue(t, serve(t, s, "GET", "/metrics", nil).Body.String(), "hmnd_map_latency_seconds_count"); got != 0 {
				t.Errorf("%v map attempts for an admission refused before it began", got)
			}
		})
	}

	t.Run("federation/gone while admitting", func(t *testing.T) {
		dir := t.TempDir()
		s := NewFederation(Config{DataDir: dir, ClusterSpecs: []spec.ClusterSpec{cs}})
		defer s.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		observe := s.domainCfg.Hooks.OnAdmit
		s.domainCfg.Hooks.OnAdmit = func(st core.AdmitStats, seconds float64) {
			observe(st, seconds)
			cancel() // the client gives up once the fragment is mapped
		}
		if err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		servedID(t, serve(t, s, "POST", "/v1/sessions", nil))
		refusedAndEmpty(t, s, admit(s, ctx))
		var kinds []string
		if _, _, err := wal.Each(dir, wal.Hooks{}, func(r *wal.Record) error {
			kinds = append(kinds, r.Kind)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := []string{wal.KindOpen, wal.KindAdmit, wal.KindRelease}; !reflect.DeepEqual(kinds, want) {
			t.Fatalf("shard log holds %v, want %v", kinds, want)
		}
	})
}

package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/virtual"
)

// TestFailRepairEndpoints drives the operator drain/fail/repair surface
// end to end: fail a host in use, check every repair outcome against the
// formal constraints, confirm the /metrics repair instrumentation agrees
// with the observed outcomes, then restore and release back to baseline.
func TestFailRepairEndpoints(t *testing.T) {
	c, cs := testbed(t)
	_, ts := startServer(t, Config{})
	client := ts.Client()
	sid := openSession(t, client, ts.URL, cs, "")
	base := ts.URL + "/v1/sessions/" + sid

	var baseline ResidualsResponse
	_, raw, _ := doJSON(t, client, "GET", base+"/residuals", nil)
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}

	// Deploy a handful of tenants and remember their environments.
	envs := make(map[string]*virtual.Env)
	victim := -1
	for i := 0; i < 5; i++ {
		env := smallEnv(int64(300+i), 12)
		code, raw, _ := doJSON(t, client, "POST", base+"/envs",
			MapEnvRequest{Env: spec.FromEnv(env)})
		if code != http.StatusCreated {
			t.Fatalf("map %d: %d %s", i, code, raw)
		}
		var out AdmitResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		envs[out.ID] = env
		if victim == -1 {
			victim = out.Fragments[0].Mapping.GuestHost[0]
		}
	}

	// Fail the host the first tenant uses; the repair engine runs
	// atomically with the eviction.
	searchesBefore := metricValue(t, scrape(t, client, ts.URL), "hmnd_route_searches_total")
	code, raw, _ := doJSON(t, client, "POST", base+hostPath(victim, "fail"), nil)
	if code != http.StatusOK {
		t.Fatalf("fail host: %d %s", code, raw)
	}
	var fr FailTargetResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Kind != "host" || fr.Target != victim {
		t.Fatalf("response identifies %s %d, want host %d", fr.Kind, fr.Target, victim)
	}
	if fr.Evicted == 0 || len(fr.Results) != fr.Evicted {
		t.Fatalf("evicted = %d with %d results", fr.Evicted, len(fr.Results))
	}
	outcomes := map[string]int{}
	for _, rep := range fr.Results {
		outcomes[rep.Outcome]++
		env := envs[rep.Env]
		if env == nil {
			t.Fatalf("result names unknown environment %q", rep.Env)
		}
		switch rep.Outcome {
		case "repaired", "replaced":
			if rep.Mapping == nil {
				t.Fatalf("%s outcome without a mapping", rep.Outcome)
			}
			m, err := rep.Mapping.ToMapping(c, env)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(cluster.VMMOverhead{}); err != nil {
				t.Fatalf("repaired mapping for %s violates Eq. (1)-(9): %v", rep.Env, err)
			}
			for g, node := range m.GuestHost {
				if node == graph.NodeID(victim) {
					t.Fatalf("%s guest %d still on failed host %d", rep.Env, g, victim)
				}
			}
		case "unrecoverable":
			delete(envs, rep.Env)
			if rep.Error == "" {
				t.Fatal("unrecoverable outcome must explain itself")
			}
		default:
			t.Fatalf("unknown outcome %q", rep.Outcome)
		}
	}

	// The session must agree: unrecoverable tenants are gone, the rest
	// kept their IDs under new mappings.
	var mid ResidualsResponse
	_, raw, _ = doJSON(t, client, "GET", base+"/residuals", nil)
	if err := json.Unmarshal(raw, &mid); err != nil {
		t.Fatal(err)
	}
	if want := len(envs); mid.ActiveEnvs != want {
		t.Fatalf("active_envs = %d, want %d after repair", mid.ActiveEnvs, want)
	}

	// The repair instrumentation must agree with the observed outcomes.
	text := scrape(t, client, ts.URL)
	if got := metricValue(t, text, `hmnd_evictions_total{kind="host"}`); int(got) != fr.Evicted {
		t.Fatalf("evictions counter = %v, want %d", got, fr.Evicted)
	}
	for outcome, n := range outcomes {
		if got := metricValue(t, text, `hmnd_repairs_total{outcome="`+outcome+`"}`); int(got) != n {
			t.Fatalf("repairs{outcome=%q} = %v, want %d", outcome, got, n)
		}
	}
	if got := metricValue(t, text, "hmnd_quarantined_hosts"); got != 1 {
		t.Fatalf("quarantined_hosts = %v, want 1", got)
	}
	if got := metricValue(t, text, "hmnd_repair_latency_seconds_count"); got != 1 {
		t.Fatalf("repair latency count = %v, want 1", got)
	}
	// A repair's routing is counted where an admission's is.
	if got := metricValue(t, text, "hmnd_route_searches_total"); outcomes["repaired"]+outcomes["replaced"] > 0 && got <= searchesBefore {
		t.Fatalf("route searches = %v after the repair, %v before it: the repair's A*Prune work went uncounted", got, searchesBefore)
	}
	if got := metricValue(t, text, "hmnd_active_envs"); int(got) != len(envs) {
		t.Fatalf("active_envs gauge = %v, want %d", got, len(envs))
	}

	// Restore: healthy again, gauge drops. (Failing twice, restoring
	// twice and every bad target are in TestBothModesHTTPContract.)
	code, raw, _ = doJSON(t, client, "POST", base+hostPath(victim, "restore"), nil)
	if code != http.StatusNoContent {
		t.Fatalf("restore host: %d %s", code, raw)
	}
	if got := metricValue(t, scrape(t, client, ts.URL), "hmnd_quarantined_hosts"); got != 0 {
		t.Fatalf("quarantined_hosts = %v after restore, want 0", got)
	}

	// Link failure surface: cut edge 0, watch the gauge, restore.
	code, raw, _ = doJSON(t, client, "POST", base+"/links/0/fail", nil)
	if code != http.StatusOK {
		t.Fatalf("fail link: %d %s", code, raw)
	}
	if got := metricValue(t, scrape(t, client, ts.URL), "hmnd_cut_links"); got != 1 {
		t.Fatalf("cut_links = %v, want 1", got)
	}
	code, _, _ = doJSON(t, client, "POST", base+"/links/0/restore", nil)
	if code != http.StatusNoContent {
		t.Fatalf("restore link: %d, want 204", code)
	}

	// Surviving tenants kept their IDs: release them all and the ledger
	// must return exactly to baseline.
	for envID := range envs {
		code, raw, _ := doJSON(t, client, "DELETE", base+"/envs/"+envID, nil)
		if code != http.StatusNoContent {
			t.Fatalf("release %s after repair: %d %s", envID, code, raw)
		}
	}
	var after ResidualsResponse
	_, raw, _ = doJSON(t, client, "GET", base+"/residuals", nil)
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	if after.ActiveEnvs != 0 {
		t.Fatalf("active_envs = %d after full release", after.ActiveEnvs)
	}
	for i := range baseline.ResidualProcMIPS {
		if math.Abs(baseline.ResidualProcMIPS[i]-after.ResidualProcMIPS[i]) > 1e-6 {
			t.Fatalf("host %d residual not restored: %v vs %v",
				i, baseline.ResidualProcMIPS[i], after.ResidualProcMIPS[i])
		}
	}
}

func hostPath(node int, action string) string {
	return "/hosts/" + strconv.Itoa(node) + "/" + action
}

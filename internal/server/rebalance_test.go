package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/wal"
)

// rebalanceTestbed builds a 4-host cluster engineered so that admission
// alone cannot balance it but a post-release rebalance can:
//
//   - hosts: uniform 1000 MIPS; h0..h2 have 1024 MB, h3 only 256 MB;
//   - env A: two pinning guests (1024 MB each) that admission spreads
//     onto h0 and h1, filling their memory completely;
//   - env B: two 400-MIPS, 512-MB guests — h3 never fits them and h0/h1
//     are full, so both land on h2 and the admission-time migration
//     stage cannot move them anywhere.
//
// Releasing A frees h0/h1's memory and leaves residuals
// {1000, 1000, 200, 1000}: exactly one improving migration exists (a B
// guest to h0), after which {600, 1000, 600, 1000} is optimal. Every
// expectation below is deterministic.
func rebalanceTestbed(t *testing.T) spec.ClusterSpec {
	t.Helper()
	specs := []topology.HostSpec{
		{Proc: 1000, Mem: 1024, Stor: 1000},
		{Proc: 1000, Mem: 1024, Stor: 1000},
		{Proc: 1000, Mem: 1024, Stor: 1000},
		{Proc: 1000, Mem: 256, Stor: 1000},
	}
	c, err := topology.Torus2D(specs, 2, 2, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	return spec.FromCluster(c)
}

func pinEnv() *virtual.Env {
	env := virtual.NewEnv()
	env.AddGuest("pin0", 50, 1024, 10)
	env.AddGuest("pin1", 50, 1024, 10)
	return env
}

func pairEnv() *virtual.Env {
	env := virtual.NewEnv()
	env.AddGuest("b0", 400, 512, 10)
	env.AddGuest("b1", 400, 512, 10)
	return env
}

// mapOne maps env into the session and returns its environment ID.
func mapOne(t *testing.T, client *http.Client, base string, env *virtual.Env) string {
	t.Helper()
	code, raw, _ := doJSON(t, client, "POST", base+"/envs",
		MapEnvRequest{Env: spec.FromEnv(env)})
	if code != http.StatusCreated {
		t.Fatalf("map: %d %s", code, raw)
	}
	var out AdmitResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

// unbalance deploys the fixture's A and B environments and releases A,
// returning B's environment ID and the session base URL.
func unbalance(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	pinned := mapOne(t, client, base, pinEnv())
	pair := mapOne(t, client, base, pairEnv())
	if code, raw, _ := doJSON(t, client, "DELETE", base+"/envs/"+pinned, nil); code != http.StatusNoContent {
		t.Fatalf("release pins: %d %s", code, raw)
	}
	return pair
}

func residualStdDev(t *testing.T, client *http.Client, base string) float64 {
	t.Helper()
	code, raw, _ := doJSON(t, client, "GET", base+"/residuals", nil)
	if code != http.StatusOK {
		t.Fatalf("residuals: %d %s", code, raw)
	}
	var out ResidualsResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out.StdDev
}

func TestRebalanceEndpoint(t *testing.T) {
	cs := rebalanceTestbed(t)
	_, ts := startServer(t, Config{})
	client := ts.Client()
	sid := openSession(t, client, ts.URL, cs, "")
	base := ts.URL + "/v1/sessions/" + sid
	unbalance(t, client, base)

	wantBefore := math.Sqrt(120000) // residuals {1000, 1000, 200, 1000}
	code, raw, _ := doJSON(t, client, "POST", base+"/rebalance", nil)
	if code != http.StatusOK {
		t.Fatalf("rebalance: %d %s", code, raw)
	}
	var out RebalanceResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Moves != 1 {
		t.Fatalf("rebalance moved %d guests, want exactly 1", out.Moves)
	}
	if math.Abs(out.StdDevBefore-wantBefore) > 1e-9 {
		t.Fatalf("stddev_before = %v, want %v", out.StdDevBefore, wantBefore)
	}
	if math.Abs(out.StdDevAfter-200) > 1e-9 { // {600, 1000, 600, 1000}
		t.Fatalf("stddev_after = %v, want 200", out.StdDevAfter)
	}
	if got := residualStdDev(t, client, base); math.Abs(got-out.StdDevAfter) > 1e-12 {
		t.Fatalf("residuals stddev %v disagrees with rebalance response %v", got, out.StdDevAfter)
	}

	// A second round finds nothing: the placement is optimal.
	code, raw, _ = doJSON(t, client, "POST", base+"/rebalance", nil)
	if code != http.StatusOK {
		t.Fatalf("second rebalance: %d %s", code, raw)
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Moves != 0 || out.StdDevBefore != out.StdDevAfter {
		t.Fatalf("second round on a balanced session: %+v", out)
	}

	text := scrape(t, client, ts.URL)
	if got := metricValue(t, text, "hmnd_rebalance_moves_total"); got != 1 {
		t.Errorf("hmnd_rebalance_moves_total = %v, want 1", got)
	}
	if got := metricValue(t, text, "hmnd_rebalance_rounds_total"); got < 2 {
		t.Errorf("hmnd_rebalance_rounds_total = %v, want >= 2", got)
	}
	if got := metricValue(t, text, "hmnd_rebalance_objective_improvement"); math.Abs(got-(wantBefore-200)) > 1e-9 {
		t.Errorf("hmnd_rebalance_objective_improvement = %v, want %v", got, wantBefore-200)
	}
}

// TestRebalanceCountsItsRouting: the A*Prune work of a round's re-routes
// lands in the routing counters admissions and repairs feed. The pair's
// guests are linked; admission co-locates them on h2 (a trivial path, no
// search), and the round's one move pulls the link across the fabric.
func TestRebalanceCountsItsRouting(t *testing.T) {
	cs := rebalanceTestbed(t)
	_, ts := startServer(t, Config{})
	client := ts.Client()
	sid := openSession(t, client, ts.URL, cs, "")
	base := ts.URL + "/v1/sessions/" + sid
	pinned := mapOne(t, client, base, pinEnv())
	linked := pairEnv()
	linked.AddLink(0, 1, 10, 100)
	mapOne(t, client, base, linked)
	if code, raw, _ := doJSON(t, client, "DELETE", base+"/envs/"+pinned, nil); code != http.StatusNoContent {
		t.Fatalf("release pins: %d %s", code, raw)
	}
	before := scrape(t, client, ts.URL)

	code, raw, _ := doJSON(t, client, "POST", base+"/rebalance", nil)
	var out RebalanceResponse
	if err := json.Unmarshal(raw, &out); err != nil || code != http.StatusOK || out.Moves != 1 {
		t.Fatalf("rebalance: %d %s (%v), want one move", code, raw, err)
	}
	after := scrape(t, client, ts.URL)
	for _, name := range []string{"hmnd_route_searches_total", "hmnd_route_pops_total"} {
		if was, is := metricValue(t, before, name), metricValue(t, after, name); is <= was {
			t.Errorf("%s went %v -> %v across a round that re-routed a link", name, was, is)
		}
	}
	if got := metricValue(t, after, "hmnd_rebalance_planned_units_total"); got != 1 {
		t.Errorf("hmnd_rebalance_planned_units_total = %v, want the 1 move scored", got)
	}
	if got := metricValue(t, after, "hmnd_rebalance_aborts_total"); got != 0 {
		t.Errorf("hmnd_rebalance_aborts_total = %v, want 0", got)
	}
}

// TestRebalanceKillRestart is the crash-recovery acceptance check for
// the migrate record: rebalance, kill the daemon without a snapshot
// (acknowledged work is fsynced, nothing else), recover, and require the
// residual vector byte-for-byte identical — then release the migrated
// environment on the recovered daemon and require the primed baseline
// back, which only holds if replay re-applied the exact move.
func TestRebalanceKillRestart(t *testing.T) {
	dir := t.TempDir()
	cs := rebalanceTestbed(t)
	cfg := durableConfig(t, dir)

	s1 := New(cfg)
	if err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	client := ts1.Client()
	sid := openSession(t, client, ts1.URL, cs, "")
	base := ts1.URL + "/v1/sessions/" + sid
	pair := unbalance(t, client, base)

	code, raw, _ := doJSON(t, client, "POST", base+"/rebalance", nil)
	if code != http.StatusOK {
		t.Fatalf("rebalance: %d %s", code, raw)
	}
	var reb RebalanceResponse
	if err := json.Unmarshal(raw, &reb); err != nil {
		t.Fatal(err)
	}
	if reb.Moves != 1 {
		t.Fatalf("rebalance moved %d guests, want 1", reb.Moves)
	}
	_, residuals1, _ := doJSON(t, client, "GET", base+"/residuals", nil)
	ts1.Close()
	// No s1.Close(): simulate a kill mid-flight. The acknowledged
	// migrate record is fsynced; recovery replays it from the log alone
	// and cross-checks the objective accumulators.

	s2 := New(cfg)
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
		s1.Close()
	})
	client2 := ts2.Client()
	base2 := ts2.URL + "/v1/sessions/" + sid

	_, residuals2, _ := doJSON(t, client2, "GET", base2+"/residuals", nil)
	if !bytes.Equal(residuals1, residuals2) {
		t.Fatalf("residuals diverge across kill/restart:\n before %s\n after  %s", residuals1, residuals2)
	}
	if code, raw, _ := doJSON(t, client2, "DELETE", base2+"/envs/"+pair, nil); code != http.StatusNoContent {
		t.Fatalf("release of migrated env after restart: %d %s", code, raw)
	}
	if sd := residualStdDev(t, client2, base2); sd > 1e-9 {
		t.Fatalf("releasing the migrated env did not restore the baseline: stddev %v", sd)
	}
}

// overtakenByMigrateCommit leaves a session whose one environment, ID
// pair, has just been migrated inside core, behind the daemon's back.
func overtakenByMigrateCommit(t *testing.T) (client *http.Client, base, pair string, sess *session) {
	t.Helper()
	cs := rebalanceTestbed(t)
	s, ts := startServer(t, Config{})
	client = ts.Client()
	sid := openSession(t, client, ts.URL, cs, "")
	base = ts.URL + "/v1/sessions/" + sid
	pair = unbalance(t, client, base)

	s.mu.Lock()
	sess = s.sessions[sid]
	s.mu.Unlock()
	if res := sess.Session().Rebalance(0); res.Moves != 1 {
		t.Fatalf("a round on the unbalanced fixture committed %d moves, want 1: %+v", res.Moves, res)
	}
	return client, base, pair, sess
}

// TestReleaseOvertakenByMigrateCommit parks a DELETE behind a round's
// commit: core has already swapped the environment's mapping for the
// migrated one, and nothing has told the daemon. The test gets there by
// running the round straight on the core session, as POST …/rebalance
// does on its handler's goroutine. A registry that remembered the
// mapping it was handed at admission asked core to release a pointer no
// longer active: the client got 404, the ID was forgotten, and the
// reservations stayed in the ledger with nothing left to name them.
func TestReleaseOvertakenByMigrateCommit(t *testing.T) {
	client, base, pair, sess := overtakenByMigrateCommit(t)
	if code, raw, _ := doJSON(t, client, "DELETE", base+"/envs/"+pair, nil); code != http.StatusNoContent {
		t.Fatalf("release overtaken by a migrate commit: %d %s", code, raw)
	}
	if n := sess.Session().Active(); n != 0 {
		t.Fatalf("core still holds %d environments after the release", n)
	}
	if sd := residualStdDev(t, client, base); sd > 1e-9 {
		t.Fatalf("release did not return the migrated reservations: stddev %v, want 0", sd)
	}
	if code, _, _ := doJSON(t, client, "DELETE", base+"/envs/"+pair, nil); code != http.StatusNotFound {
		t.Fatalf("second release: %d, want 404", code)
	}
}

// TestFailOvertakenByMigrateCommit is the same window seen from the fail
// endpoint: the eviction report must still name the environment by its
// ID, and keep it registered when the repair succeeds.
func TestFailOvertakenByMigrateCommit(t *testing.T) {
	client, base, pair, _ := overtakenByMigrateCommit(t)
	code, raw, _ := doJSON(t, client, "POST", base+"/hosts/2/fail", nil)
	if code != http.StatusOK {
		t.Fatalf("fail host 2: %d %s", code, raw)
	}
	var out FailTargetResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Env != pair || out.Results[0].Mapping == nil {
		t.Fatalf("eviction report %s, want environment %s repaired", raw, pair)
	}
	if code, raw, _ := doJSON(t, client, "DELETE", base+"/envs/"+pair, nil); code != http.StatusNoContent {
		t.Fatalf("release of the repaired environment: %d %s", code, raw)
	}
}

// TestRebalanceKillDuringChurn crashes the daemon after POST …/rebalance
// rounds from a second goroutine raced its admissions and releases, then
// requires recovery to reproduce the exact surviving state. Rounds run
// on after the churn until one moves nothing, so the state read before
// the kill is the state of record, with migrate records in the log.
func TestRebalanceKillDuringChurn(t *testing.T) {
	dir := t.TempDir()
	cs := rebalanceTestbed(t)
	cfg := durableConfig(t, dir)

	s1 := New(cfg)
	if err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	client := ts1.Client()
	sid := openSession(t, client, ts1.URL, cs, "")
	base := ts1.URL + "/v1/sessions/" + sid

	// Churn: rounds race these admissions and releases.
	stop := make(chan struct{})
	rounds := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				rounds <- nil
				return
			default:
			}
			resp, err := client.Post(base+"/rebalance", "application/json", nil)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("rebalance during churn: status %d", resp.StatusCode)
				}
			}
			if err != nil {
				rounds <- err
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		pinned := mapOne(t, client, base, pinEnv())
		pair := mapOne(t, client, base, pairEnv())
		if code, _, _ := doJSON(t, client, "DELETE", base+"/envs/"+pinned, nil); code != http.StatusNoContent {
			t.Fatalf("release pins %d: %d", i, code)
		}
		if code, _, _ := doJSON(t, client, "DELETE", base+"/envs/"+pair, nil); code != http.StatusNoContent {
			t.Fatalf("release pair %d: %d", i, code)
		}
	}
	final := unbalance(t, client, base)
	close(stop)
	if err := <-rounds; err != nil {
		t.Fatal(err)
	}

	for round := 0; ; round++ {
		code, raw, _ := doJSON(t, client, "POST", base+"/rebalance", nil)
		var out RebalanceResponse
		if err := json.Unmarshal(raw, &out); err != nil || code != http.StatusOK {
			t.Fatalf("rebalance: %d %s (%v)", code, raw, err)
		}
		if out.Moves == 0 {
			break
		}
		if round == 50 {
			t.Fatal("rounds never converged")
		}
	}
	if sd := residualStdDev(t, client, base); math.Abs(sd-200) > 1e-9 {
		t.Fatalf("converged rounds left stddev %v, want 200", sd)
	}
	_, residuals1, _ := doJSON(t, client, "GET", base+"/residuals", nil)
	ts1.Close() // kill: no drain, no snapshot
	rec, err := wal.Scan(dir, wal.Hooks{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	migrates := 0
	for i := range rec.Records {
		if rec.Records[i].Kind == wal.KindMigrate {
			migrates++
		}
	}
	if migrates == 0 {
		t.Fatal("the log holds no migrate record to replay")
	}

	s2 := New(cfg)
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
		s1.Close()
	})
	client2 := ts2.Client()
	base2 := ts2.URL + "/v1/sessions/" + sid
	_, residuals2, _ := doJSON(t, client2, "GET", base2+"/residuals", nil)
	if !bytes.Equal(residuals1, residuals2) {
		t.Fatalf("residuals diverge across churn kill/restart:\n before %s\n after  %s", residuals1, residuals2)
	}
	if code, _, _ := doJSON(t, client2, "DELETE", base2+"/envs/"+final, nil); code != http.StatusNoContent {
		t.Fatalf("release of final env after restart: %d", code)
	}
}

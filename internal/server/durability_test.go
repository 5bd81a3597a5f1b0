package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/wal"
)

// durableConfig is the standard test config with a data directory.
func durableConfig(t *testing.T, dir string) Config {
	return Config{DataDir: dir, Logf: t.Logf}
}

// TestHealthzReadiness covers the replaying/serving gate: with a data
// directory the daemon starts in "replaying", answers 503 on /v1 until
// Recover returns, and "serving" afterwards.
func TestHealthzReadiness(t *testing.T) {
	_, cs := testbed(t)
	s := New(durableConfig(t, t.TempDir()))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	client := ts.Client()

	code, raw, _ := doJSON(t, client, "GET", ts.URL+"/v1/healthz", nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(raw), "replaying") {
		t.Fatalf("healthz before Recover: %d %q, want 503 replaying", code, raw)
	}
	code, _, _ = doJSON(t, client, "POST", ts.URL+"/v1/sessions",
		OpenSessionRequest{Cluster: cs})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("API answered %d during replay, want 503", code)
	}
	// Metrics stay reachable during replay (operators watch the
	// hmnd_replay_records_total progress there).
	code, _, _ = doJSON(t, client, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics during replay: %d", code)
	}

	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	code, raw, _ = doJSON(t, client, "GET", ts.URL+"/v1/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(raw), "serving") {
		t.Fatalf("healthz after Recover: %d %q, want 200 serving", code, raw)
	}
	if sid := openSession(t, client, ts.URL, cs, ""); sid == "" {
		t.Fatal("no session after recovery")
	}
}

// TestFederationHealthzDraining: like the classic server, a federation
// daemon stops reporting itself ready once Close has begun, so a load
// balancer takes it out of rotation while the shards drain.
func TestFederationHealthzDraining(t *testing.T) {
	s := NewFederation(FedConfig{ClusterSpecs: fedSpecs(t, 2)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	client := ts.Client()
	code, raw, _ := doJSON(t, client, "GET", ts.URL+"/v1/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(raw), "serving") {
		t.Fatalf("healthz before Close: %d %q, want 200 serving", code, raw)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	code, raw, _ = doJSON(t, client, "GET", ts.URL+"/healthz", nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(raw), "draining") {
		t.Fatalf("healthz after Close began: %d %q, want 503 draining", code, raw)
	}
}

// TestAckAfterLog checks the durability contract at the API edge: by
// the time a mutating request is acknowledged, its records are on disk
// and visible to a concurrent read-only Scan.
func TestAckAfterLog(t *testing.T) {
	dir := t.TempDir()
	_, cs := testbed(t)
	s := New(durableConfig(t, dir))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	client := ts.Client()

	sid := openSession(t, client, ts.URL, cs, "")
	code, raw, _ := doJSON(t, client, "POST", ts.URL+"/v1/sessions/"+sid+"/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(42, 8))})
	if code != http.StatusCreated {
		t.Fatalf("map: %d %s", code, raw)
	}
	var out AdmitResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}

	// The daemon is still running; Scan reads what is durable so far.
	rec, err := wal.Scan(dir, wal.Hooks{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var opened, admitted bool
	for i := range rec.Records {
		r := &rec.Records[i]
		switch {
		case r.Kind == wal.KindOpen && r.SID == sid:
			opened = true
		case r.Kind == wal.KindAdmit && r.SID == sid && r.Admit.Tag == out.ID:
			admitted = true
		}
	}
	if !opened || !admitted {
		t.Fatalf("acknowledged operations not durable: open=%v admit=%v in %d records",
			opened, admitted, len(rec.Records))
	}
}

// TestRestartRoundTrip is the full lifecycle: serve traffic, shut down
// (in-flight work drains, final snapshot lands), start a second daemon
// on the same directory, and check the recovered state answers every read
// exactly as the first daemon did — same residual bytes, same tenants
// under the same IDs — and that new work gets fresh IDs.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, cs := testbed(t)
	cfg := durableConfig(t, dir)

	s1 := New(cfg)
	if err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	client := ts1.Client()
	sid := openSession(t, client, ts1.URL, cs, "")
	base := ts1.URL + "/v1/sessions/" + sid

	envIDs := make([]string, 0, 3)
	victim := -1
	for i := 0; i < 3; i++ {
		code, raw, _ := doJSON(t, client, "POST", base+"/envs",
			MapEnvRequest{Env: spec.FromEnv(smallEnv(int64(500+i), 10))})
		if code != http.StatusCreated {
			t.Fatalf("map %d: %d %s", i, code, raw)
		}
		var out AdmitResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		envIDs = append(envIDs, out.ID)
		if victim == -1 {
			victim = out.Fragments[0].Mapping.GuestHost[0]
		}
	}
	// Exercise every record kind: a failure with repairs, a restore, a
	// release.
	if code, raw, _ := doJSON(t, client, "POST", base+hostPath(victim, "fail"), nil); code != http.StatusOK {
		t.Fatalf("fail host: %d %s", code, raw)
	}
	if code, raw, _ := doJSON(t, client, "POST", base+hostPath(victim, "restore"), nil); code != http.StatusNoContent {
		t.Fatalf("restore host: %d %s", code, raw)
	}
	if code, raw, _ := doJSON(t, client, "DELETE", base+"/envs/"+envIDs[2], nil); code != http.StatusNoContent {
		t.Fatalf("release: %d %s", code, raw)
	}

	_, residuals1, _ := doJSON(t, client, "GET", base+"/residuals", nil)

	ts1.Close()
	s1.Close() // drains, snapshots, seals the log

	s2 := New(cfg)
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	client2 := ts2.Client()
	base2 := ts2.URL + "/v1/sessions/" + sid

	_, residuals2, _ := doJSON(t, client2, "GET", base2+"/residuals", nil)
	if !bytes.Equal(residuals1, residuals2) {
		t.Errorf("residuals diverge across restart:\n before %s\n after  %s", residuals1, residuals2)
	}
	// The released tenant stays released; the surviving tenants keep
	// their IDs (a release under the old ID resolves to a live mapping).
	if code, _, _ := doJSON(t, client2, "DELETE", base2+"/envs/"+envIDs[2], nil); code != http.StatusNotFound {
		t.Fatalf("released env resolves after restart: %d", code)
	}
	if code, raw, _ := doJSON(t, client2, "DELETE", base2+"/envs/"+envIDs[1], nil); code != http.StatusNoContent {
		t.Fatalf("release of recovered env %s: %d %s", envIDs[1], code, raw)
	}
	// New work continues: fresh env IDs, fresh session IDs, no reuse.
	code, raw, _ := doJSON(t, client2, "POST", base2+"/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(900, 6))})
	if code != http.StatusCreated {
		t.Fatalf("map after restart: %d %s", code, raw)
	}
	var out AdmitResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range envIDs {
		if out.ID == id {
			t.Fatalf("recovered daemon reused env ID %s", id)
		}
	}
	if sid2 := openSession(t, client2, ts2.URL, cs, ""); sid2 == sid {
		t.Fatalf("recovered daemon reused session ID %s", sid)
	}
}

// TestRestartWithoutSnapshot kills the first daemon without a graceful
// shutdown (no final snapshot): recovery must come entirely from the
// log. The closed session must stay closed.
func TestRestartWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	_, cs := testbed(t)
	cfg := durableConfig(t, dir)

	s1 := New(cfg)
	if err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	client := ts1.Client()
	sid := openSession(t, client, ts1.URL, cs, "")
	dead := openSession(t, client, ts1.URL, cs, "")
	code, raw, _ := doJSON(t, client, "POST", ts1.URL+"/v1/sessions/"+sid+"/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(7, 8))})
	if code != http.StatusCreated {
		t.Fatalf("map: %d %s", code, raw)
	}
	if code, _, _ := doJSON(t, client, "DELETE", ts1.URL+"/v1/sessions/"+dead, nil); code != http.StatusNoContent {
		t.Fatalf("close session: %d", code)
	}
	_, residuals1, _ := doJSON(t, client, "GET", ts1.URL+"/v1/sessions/"+sid+"/residuals", nil)
	ts1.Close()
	// No s1.Close(): simulate a kill. Everything acknowledged is already
	// fsynced, so recovery replays the log alone.

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
	_, residuals2, _ := doJSON(t, client2, "GET", ts2.URL+"/v1/sessions/"+sid+"/residuals", nil)
	if !bytes.Equal(residuals1, residuals2) {
		t.Errorf("residuals diverge across kill/restart:\n before %s\n after  %s", residuals1, residuals2)
	}
	if code, _, _ := doJSON(t, client2, "GET", ts2.URL+"/v1/sessions/"+dead+"/residuals", nil); code != http.StatusNotFound {
		t.Fatalf("closed session resolves after restart: %d", code)
	}
}

// TestClosedSessionIDNotReusedAcrossRestarts pins the recovery
// session-ID invariant: a session closed before a crash keeps its ID
// retired forever. A reused ID would alias the retired session's
// snapshot boundary at the next recovery, and the new session's
// low-index records would be skipped as if the old snapshot had covered
// them — acknowledged admissions silently vanishing.
func TestClosedSessionIDNotReusedAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	_, cs := testbed(t)
	cfg := durableConfig(t, dir)

	// Gen 1: a surviving session plus a victim that is snapshotted with
	// operations and closed AFTER the snapshot, so the victim's boundary
	// entry and its close record are both live at the next recovery.
	s1 := New(cfg)
	if err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	client := ts1.Client()
	keeper := openSession(t, client, ts1.URL, cs, "")
	victim := openSession(t, client, ts1.URL, cs, "")
	if code, raw, _ := doJSON(t, client, "POST", ts1.URL+"/v1/sessions/"+victim+"/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(21, 8))}); code != http.StatusCreated {
		t.Fatalf("map into victim: %d %s", code, raw)
	}
	if err := s1.wal.Snapshot(s1.exportAll); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := doJSON(t, client, "DELETE", ts1.URL+"/v1/sessions/"+victim, nil); code != http.StatusNoContent {
		t.Fatalf("close victim: %d", code)
	}
	ts1.Close() // kill: no graceful shutdown, no second snapshot

	// Gen 2: the victim's ID must stay retired, and work admitted into
	// its replacement must survive ANOTHER restart even though the
	// replacement's operation indices start back at 1.
	s2 := New(cfg)
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	client2 := ts2.Client()
	fresh := openSession(t, client2, ts2.URL, cs, "")
	if fresh == victim || fresh == keeper {
		t.Fatalf("recovered daemon reused session ID %s (victim %s, keeper %s)", fresh, victim, keeper)
	}
	code, raw, _ := doJSON(t, client2, "POST", ts2.URL+"/v1/sessions/"+fresh+"/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(22, 8))})
	if code != http.StatusCreated {
		t.Fatalf("map into fresh session: %d %s", code, raw)
	}
	var out AdmitResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	ts2.Close() // kill again

	// Gen 3: the acknowledged admission from gen 2 must have replayed.
	s3 := New(cfg)
	if err := s3.Recover(); err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(s3.Handler())
	t.Cleanup(func() {
		ts3.Close()
		s3.Close()
		s2.Close()
		s1.Close()
	})
	client3 := ts3.Client()
	if code, raw, _ := doJSON(t, client3, "DELETE", ts3.URL+"/v1/sessions/"+fresh+"/envs/"+out.ID, nil); code != http.StatusNoContent {
		t.Fatalf("acknowledged admission %s/%s lost across restart: %d %s", fresh, out.ID, code, raw)
	}
	if code, _, _ := doJSON(t, client3, "GET", ts3.URL+"/v1/sessions/"+victim+"/residuals", nil); code != http.StatusNotFound {
		t.Fatalf("closed session %s resolves after restarts: %d", victim, code)
	}
}

// TestSessionClosedBeforeSnapshotIDNotReused is the same invariant when
// the snapshot comes after the close and an operator's compaction then
// deletes every record that named the victim, so only the snapshot's
// high-water mark keeps its ID retired across the restart.
func TestSessionClosedBeforeSnapshotIDNotReused(t *testing.T) {
	dir := t.TempDir()
	_, cs := testbed(t)
	cfg := durableConfig(t, dir)

	s1 := New(cfg)
	if err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	client := ts1.Client()
	keeper := openSession(t, client, ts1.URL, cs, "")
	victim := openSession(t, client, ts1.URL, cs, "")
	if code, _, _ := doJSON(t, client, "DELETE", ts1.URL+"/v1/sessions/"+victim, nil); code != http.StatusNoContent {
		t.Fatalf("close victim: %d", code)
	}
	if err := s1.wal.Snapshot(s1.exportAll); err != nil {
		t.Fatal(err)
	}
	if removed, err := wal.Compact(dir); err != nil || len(removed) == 0 {
		t.Fatalf("compaction removed segments %v, %v", removed, err)
	}
	ts1.Close() // kill

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
	if fresh := openSession(t, ts2.Client(), ts2.URL, cs, ""); fresh == victim || fresh == keeper {
		t.Fatalf("recovered daemon reused session ID %s (victim %s, keeper %s)", fresh, victim, keeper)
	}
}

// TestCloseClearsSnapshotBoundary pins the defense-in-depth half of the
// same invariant at the log level: even against an on-disk history in
// which a snapshotted session is closed and its ID reopened (the shape
// a pre-fix daemon could leave behind), the retired session's snapshot
// boundary must die with its close record instead of swallowing the new
// session's low-index operations.
func TestCloseClearsSnapshotBoundary(t *testing.T) {
	dir := t.TempDir()
	_, cs := testbed(t)
	cfg := durableConfig(t, dir)

	s1 := New(cfg)
	if err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	client := ts1.Client()
	sid := openSession(t, client, ts1.URL, cs, "")
	code, raw, _ := doJSON(t, client, "POST", ts1.URL+"/v1/sessions/"+sid+"/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(33, 8))})
	if code != http.StatusCreated {
		t.Fatalf("map: %d %s", code, raw)
	}
	var out AdmitResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}

	// Capture the open and admit records, then snapshot so the session's
	// boundary covers the admit.
	scan, err := wal.Scan(dir, wal.Hooks{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var openRec, admitRec *wal.Record
	for i := range scan.Records {
		r := &scan.Records[i]
		switch {
		case r.Kind == wal.KindOpen && r.SID == sid:
			openRec = r
		case r.Kind == wal.KindAdmit && r.SID == sid:
			admitRec = r
		}
	}
	if openRec == nil || admitRec == nil {
		t.Fatalf("log missing open/admit records for %s", sid)
	}
	if err := s1.wal.Snapshot(s1.exportAll); err != nil {
		t.Fatal(err)
	}

	// Fabricate the reuse: close the snapshotted session, reopen its ID,
	// re-admit at index 1 — at or below the stale boundary.
	for _, rec := range []*wal.Record{{Kind: wal.KindClose, SID: sid}, openRec, admitRec} {
		if err := s1.wal.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.wal.Barrier(); err != nil {
		t.Fatal(err)
	}
	ts1.Close() // kill

	s2 := New(cfg)
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	client2 := ts2.Client()
	if code, raw, _ := doJSON(t, client2, "DELETE", ts2.URL+"/v1/sessions/"+sid+"/envs/"+out.ID, nil); code != http.StatusNoContent {
		t.Fatalf("reopened session's admission %s/%s swallowed by stale boundary: %d %s", sid, out.ID, code, raw)
	}
}

// TestRecoverBumpsNextEnvFromActiveTags pins the phase-3 guard: a
// snapshot whose NextEnv counter lags its own active set (the shape a
// racing export could once produce) must not make the recovered daemon
// re-issue a live environment ID.
func TestRecoverBumpsNextEnvFromActiveTags(t *testing.T) {
	dir := t.TempDir()
	_, cs := testbed(t)
	cfg := durableConfig(t, dir)

	s1 := New(cfg)
	if err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	client := ts1.Client()
	sid := openSession(t, client, ts1.URL, cs, "")
	existing := make(map[string]bool)
	for i := 0; i < 2; i++ {
		code, raw, _ := doJSON(t, client, "POST", ts1.URL+"/v1/sessions/"+sid+"/envs",
			MapEnvRequest{Env: spec.FromEnv(smallEnv(int64(50+i), 6))})
		if code != http.StatusCreated {
			t.Fatalf("map %d: %d %s", i, code, raw)
		}
		var out AdmitResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		existing[out.ID] = true
	}
	// A doctored snapshot: the state is right, but the ID counter lags
	// the active set it describes.
	if err := s1.wal.Snapshot(func() ([]wal.SessionSnap, error) {
		sns, err := s1.exportAll()
		if err != nil {
			return nil, err
		}
		for i := range sns {
			sns[i].NextEnv = 0
		}
		return sns, nil
	}); err != nil {
		t.Fatal(err)
	}
	ts1.Close() // kill

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
	code, raw, _ := doJSON(t, client2, "POST", ts2.URL+"/v1/sessions/"+sid+"/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(60, 6))})
	if code != http.StatusCreated {
		t.Fatalf("map after restart: %d %s", code, raw)
	}
	var out AdmitResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if existing[out.ID] {
		t.Fatalf("recovered daemon re-issued live environment ID %s", out.ID)
	}
}

// TestRecoverRefusesHMNC: HMN is the only session mapper, so a classic
// log whose open record names the consolidating variant HMN-C — the
// record an older build wrote for it — cannot be recovered, and Recover
// says which mapper it does not know. Nothing is published: after Close
// the directory holds exactly the bytes it held before.
func TestRecoverRefusesHMNC(t *testing.T) {
	dir := t.TempDir()
	_, cs := testbed(t)
	w, _, _, err := shard.Replay(shard.Config{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&wal.Record{Kind: wal.KindOpen, SID: "s1", Open: &wal.OpenRec{Cluster: cs, Mapper: "HMN-C"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)

	s := New(Config{DataDir: dir})
	err = s.Recover()
	if want := `unknown mapper "HMN-C"`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Recover() = %v, want an error containing %q", err, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := dirBytes(t, dir)
	if len(after) != len(before) {
		t.Fatalf("the refused directory holds %d files, had %d", len(after), len(before))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("the refused directory's %s changed", name)
		}
	}
}

// exportAll is a classic daemon's snapshot export: the one exporter
// both modes' barriers use, over the open sessions.
func (s *Server) exportAll() ([]wal.SessionSnap, error) {
	return shard.Export(s.sessionDomains())
}

// dirBytes reads every regular file directly in dir, by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestOpenSessionBarrierFailure pins two contracts at once: a failed
// WAL append faults the log permanently (the ack barrier cannot succeed
// vacuously just because nothing new reached the buffer), and an open
// whose barrier fails tears the session back down instead of leaking a
// serving session its client was never told about.
func TestOpenSessionBarrierFailure(t *testing.T) {
	dir := t.TempDir()
	_, cs := testbed(t)
	s := New(durableConfig(t, dir))
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	client := ts.Client()

	sid := openSession(t, client, ts.URL, cs, "")

	// Sever the log out from under the daemon: the open record's append
	// fails, which must fault every later barrier.
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	code, raw, _ := doJSON(t, client, "POST", ts.URL+"/v1/sessions", OpenSessionRequest{Cluster: cs})
	if code != http.StatusInternalServerError {
		t.Fatalf("open with severed log: %d %s, want 500", code, raw)
	}
	s.mu.Lock()
	n := len(s.sessions)
	_, leaked := s.sessions["s2"]
	s.mu.Unlock()
	if leaked || n != 1 {
		t.Fatalf("failed open left %d sessions (leaked s2: %v), want only %s", n, leaked, sid)
	}
	if got := s.mSessions.Value(); got != 1 {
		t.Fatalf("hmnd_active_sessions = %v after failed open, want 1", got)
	}
}

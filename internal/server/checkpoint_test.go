package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/wal"
)

// snapshotSegment reads the segment dir's snapshot resumes the log at;
// 0 without a snapshot.
func snapshotSegment(t *testing.T, dir string) uint64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	var snap wal.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.FirstSeg
}

// churnPastCheckpoint admits environments through base, releasing the
// oldest once three are deployed, until dir holds a snapshot past
// segment seg — a checkpoint, for seg 1 — and then for ten operations
// more.
func churnPastCheckpoint(t *testing.T, client *http.Client, base, dir string, seg uint64) {
	t.Helper()
	var live []string
	extra := -1
	for i := 0; extra != 0; i++ {
		if i > 5000*int(seg) {
			t.Fatalf("no snapshot past segment %d after %d operations", seg, i)
		}
		if extra > 0 {
			extra--
		}
		if len(live) < 3 {
			code, raw, _ := doJSON(t, client, "POST", base+"/envs", MapEnvRequest{Env: spec.FromEnv(smallEnv(int64(i), 8))})
			if code != http.StatusCreated {
				t.Fatalf("admit %d: %d %s", i, code, raw)
			}
			var out struct{ ID string }
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatal(err)
			}
			live = append(live, out.ID)
		} else {
			if code, raw, _ := doJSON(t, client, "DELETE", base+"/envs/"+live[0], nil); code != http.StatusNoContent {
				t.Fatalf("release %s: %d %s", live[0], code, raw)
			}
			live = live[1:]
		}
		if extra < 0 && i%10 == 0 && snapshotSegment(t, dir) > seg {
			extra = 10
		}
	}
}

// logRecords counts the records of a WAL directory.
func logRecords(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	if _, _, err := wal.Each(dir, wal.Hooks{}, func(*wal.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDaemonCheckpointsByGrowth churns a classic daemon and a one-shard
// federation until their logs outgrow the checkpoint limit, kills them,
// and restarts each on its directory: a checkpoint landed on a fresh
// segment with every segment before it still on disk, the restart
// replays only the log after it, and the residuals come back
// byte-identical.
func TestDaemonCheckpointsByGrowth(t *testing.T) {
	_, cs := testbed(t)
	for _, mode := range []string{"classic", "federation"} {
		t.Run(mode, func(t *testing.T) {
			walDir := t.TempDir()
			cfg := durableConfig(t, walDir)
			start, residuals := New, "/v1/sessions/s1/residuals"
			if mode == "federation" {
				cfg.ClusterSpecs = []spec.ClusterSpec{cs}
				start, residuals = NewFederation, "/v1/shards/0/residuals"
			}
			s1 := start(cfg)
			if err := s1.Recover(); err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(s1.Handler())
			client := ts1.Client()
			if mode == "classic" {
				openSession(t, client, ts1.URL, cs, "")
			} else if code, raw, _ := doJSON(t, client, "POST", ts1.URL+"/v1/sessions", nil); code != http.StatusCreated {
				t.Fatalf("open tenant: %d %s", code, raw)
			}
			churnPastCheckpoint(t, client, ts1.URL+"/v1/sessions/s1", walDir, 1)
			_, before, _ := doJSON(t, client, "GET", ts1.URL+residuals, nil)
			ts1.Close() // kill

			if segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.log")); len(segs) < 2 || uint64(len(segs)) != snapshotSegment(t, walDir) {
				t.Fatalf("segments after checkpoints: %v, the last snapshot at segment %d", segs, snapshotSegment(t, walDir))
			}
			all := logRecords(t, walDir)
			s2 := start(cfg)
			t.Cleanup(func() {
				s2.Close()
				s1.Close()
			})
			if err := s2.Recover(); err != nil {
				t.Fatal(err)
			}
			if replayed := int(s2.mReplayRecords.Value()); replayed == 0 || replayed >= all/4 {
				t.Errorf("restart replayed %d of the log's %d records", replayed, all)
			}
			ts2 := httptest.NewServer(s2.Handler())
			defer ts2.Close()
			if _, after, _ := doJSON(t, ts2.Client(), "GET", ts2.URL+residuals, nil); string(after) != string(before) {
				t.Errorf("residuals diverge across the restart:\n before %s\n after  %s", before, after)
			}
		})
	}
}

// TestCompactingALiveDaemon runs hmnwal compact's function over and
// over against the directory of a classic daemon and of a one-shard
// federation while each churns through several checkpoints, then takes
// a crash image — a copy of the directory — and recovers it: the
// compactions deleted segments as they went, and the image still
// recovers to exactly what the live daemon acknowledged, residuals
// byte-identical.
func TestCompactingALiveDaemon(t *testing.T) {
	_, cs := testbed(t)
	for _, mode := range []string{"classic", "federation"} {
		t.Run(mode, func(t *testing.T) {
			walDir := t.TempDir()
			cfg := durableConfig(t, walDir)
			start, residuals := New, "/v1/sessions/s1/residuals"
			if mode == "federation" {
				cfg.ClusterSpecs = []spec.ClusterSpec{cs}
				start, residuals = NewFederation, "/v1/shards/0/residuals"
			}
			s1 := start(cfg)
			if err := s1.Recover(); err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(s1.Handler())
			client := ts1.Client()
			t.Cleanup(func() {
				ts1.Close()
				s1.Close()
			})
			if mode == "classic" {
				openSession(t, client, ts1.URL, cs, "")
			} else if code, raw, _ := doJSON(t, client, "POST", ts1.URL+"/v1/sessions", nil); code != http.StatusCreated {
				t.Fatalf("open tenant: %d %s", code, raw)
			}

			stop, done := make(chan struct{}), make(chan int)
			go func() {
				deleted := 0
				for {
					removed, err := wal.Compact(walDir)
					if err != nil {
						t.Error(err)
					}
					deleted += len(removed)
					select {
					case <-stop:
						done <- deleted
						return
					case <-time.After(time.Millisecond):
					}
				}
			}()
			churnPastCheckpoint(t, client, ts1.URL+"/v1/sessions/s1", walDir, 3)
			close(stop)
			if deleted := <-done; deleted < 2 {
				t.Fatalf("the compactions deleted %d segments over three checkpoints", deleted)
			}
			_, live, _ := doJSON(t, client, "GET", ts1.URL+residuals, nil)

			// The crash image: every file of the directory as it stands.
			image := t.TempDir()
			for name, b := range dirBytes(t, walDir) {
				if err := os.WriteFile(filepath.Join(image, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cfg.DataDir = image
			s2 := start(cfg)
			t.Cleanup(func() { s2.Close() })
			if err := s2.Recover(); err != nil {
				t.Fatalf("recovering a directory compacted under the daemon: %v", err)
			}
			ts2 := httptest.NewServer(s2.Handler())
			defer ts2.Close()
			if _, after, _ := doJSON(t, ts2.Client(), "GET", ts2.URL+residuals, nil); string(after) != string(live) {
				t.Errorf("residuals diverge from the live daemon's:\n live    %s\n crashed %s", live, after)
			}
		})
	}
}

// TestSnapshotInsideSessionClose takes a snapshot from inside a session's
// close — its close record just appended, the session lock still held —
// and restarts from it: the closed session must stay closed and keep its
// ID retired, and the other session must come back byte-identical.
func TestSnapshotInsideSessionClose(t *testing.T) {
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
	for i, sid := range []string{keeper, victim, victim, victim} {
		if code, raw, _ := doJSON(t, client, "POST", ts1.URL+"/v1/sessions/"+sid+"/envs",
			MapEnvRequest{Env: spec.FromEnv(smallEnv(int64(40+i), 8))}); code != http.StatusCreated {
			t.Fatalf("map into %s: %d %s", sid, code, raw)
		}
	}
	s1.mu.Lock()
	sess := s1.sessions[victim]
	s1.mu.Unlock()
	snapped := make(chan error, 1)
	var once sync.Once
	sess.Session().SetCommitHook(func(ev core.Event) {
		if err := s1.wal.Append(wal.RecordFromEvent(victim, sess.Overhead(), ev)); err != nil {
			t.Error(err)
		}
		if ev.Type == core.EventClose {
			once.Do(func() {
				go func() { snapped <- s1.wal.Snapshot(s1.exportAll) }()
				time.Sleep(50 * time.Millisecond)
			})
		}
	})
	if code, raw, _ := doJSON(t, client, "DELETE", ts1.URL+"/v1/sessions/"+victim, nil); code != http.StatusNoContent {
		t.Fatalf("close %s: %d %s", victim, code, raw)
	}
	if err := <-snapped; err != nil {
		t.Fatal(err)
	}
	_, before, _ := doJSON(t, client, "GET", ts1.URL+"/v1/sessions/"+keeper+"/residuals", nil)
	ts1.Close() // kill

	s2 := New(cfg)
	t.Cleanup(func() {
		s2.Close()
		s1.Close()
	})
	if err := s2.Recover(); err != nil {
		t.Fatalf("restart after a snapshot inside a session close: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	client2 := ts2.Client()
	if _, after, _ := doJSON(t, client2, "GET", ts2.URL+"/v1/sessions/"+keeper+"/residuals", nil); string(after) != string(before) {
		t.Errorf("keeper residuals diverge:\n before %s\n after  %s", before, after)
	}
	if code, _, _ := doJSON(t, client2, "GET", ts2.URL+"/v1/sessions/"+victim+"/residuals", nil); code != http.StatusNotFound {
		t.Errorf("closed session %s resolves after the restart: %d", victim, code)
	}
	n, _ := strconv.Atoi(victim[1:])
	if fresh := openSession(t, client2, ts2.URL, cs, ""); fresh != fmt.Sprintf("s%d", n+1) {
		t.Errorf("next session %s, want s%d", fresh, n+1)
	}
}

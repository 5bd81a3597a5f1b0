package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/virtual"
	"repro/internal/wal"
)

// serve sends one request straight through s's handler, with no socket
// and no client goroutine, and returns the recorded reply.
func serve(t *testing.T, s *Server, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Error(err)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
	return rec
}

// servedID decodes the "id" of a 2xx reply that names what it created,
// or reports the reply and returns "". It may run on any goroutine.
func servedID(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var out struct {
		ID string `json:"id"`
	}
	if rec.Code/100 != 2 || json.Unmarshal(rec.Body.Bytes(), &out) != nil || out.ID == "" {
		t.Errorf("reply %d %s names nothing created", rec.Code, rec.Body.Bytes())
	}
	return out.ID
}

// holdSession posts the admission of env to session sid of s and holds
// the session's lock from inside that admission's commit until release
// is called: every later operation on the session waits for the lock
// meanwhile. It returns once the lock is held; release returns the held
// admission's reply. The session's records still reach the daemon's log,
// appended as the hook the session was opened with appends them.
func holdSession(t *testing.T, s *Server, sid string, env *virtual.Env) (release func() *httptest.ResponseRecorder) {
	t.Helper()
	s.mu.Lock()
	sess := s.sessions[sid]
	s.mu.Unlock()
	held, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	sess.Session().SetCommitHook(func(ev core.Event) {
		if s.wal != nil {
			if err := s.wal.Append(wal.RecordFromEvent(sid, sess.Overhead(), ev)); err != nil {
				t.Error(err)
			}
		}
		once.Do(func() {
			close(held)
			<-unblock
		})
	})
	reply := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		reply <- serve(t, s, "POST", "/v1/sessions/"+sid+"/envs", MapEnvRequest{Env: spec.FromEnv(env)})
	}()
	<-held
	return func() *httptest.ResponseRecorder {
		close(unblock)
		return <-reply
	}
}

// waitForMappers waits until n goroutines are inside an admission —
// running it, or waiting for their session's lock to run it.
func waitForMappers(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<22)
	waitFor(t, func() bool {
		stacks := string(buf[:runtime.Stack(buf, true)])
		return strings.Count(stacks, "core.(*Session).MapTagged(") >= n
	})
}

// TestRequestsWaitingOnASessionLockTimeOut pins what a burst against a
// busy session gets, now that no queue bounds it: one session's lock is
// held past a short RequestTimeout while more admissions than the
// deleted queue's default depth (64) wait for it. Every reply is 201 or
// 503 "request timed out" — none is refused for want of room — and the
// ledger afterwards holds exactly the admissions answered 201: one whose
// client gave up while it waited was rolled back, not orphaned.
func TestRequestsWaitingOnASessionLockTimeOut(t *testing.T) {
	_, cs := testbed(t)
	const timeout = 300 * time.Millisecond
	s := New(Config{RequestTimeout: timeout})
	defer s.Close()
	sid := servedID(t, serve(t, s, "POST", "/v1/sessions", OpenSessionRequest{Cluster: cs}))

	release := holdSession(t, s, sid, smallEnv(1, 4))
	const burst = 80
	replies := make(chan *httptest.ResponseRecorder, burst+1)
	for i := 0; i < burst; i++ {
		go func(i int) {
			replies <- serve(t, s, "POST", "/v1/sessions/"+sid+"/envs",
				MapEnvRequest{Env: spec.FromEnv(smallEnv(int64(100+i), 4))})
		}(i)
	}
	waitForMappers(t, burst+1)
	time.Sleep(timeout) // every waiter's deadline passes while the lock is held
	replies <- release()

	admitted := map[string]bool{}
	timedOut := 0
	for i := 0; i <= burst; i++ {
		rec := <-replies
		switch body := rec.Body.String(); {
		case rec.Code == http.StatusCreated:
			admitted[servedID(t, rec)] = true
		case rec.Code == http.StatusServiceUnavailable && strings.Contains(body, `"request timed out"`):
			timedOut++
			if rec.Header().Get("Retry-After") == "" {
				t.Error("a 503 without Retry-After")
			}
		default:
			t.Errorf("reply %d %s, want 201 or 503 request timed out", rec.Code, body)
		}
	}
	if timedOut == 0 {
		t.Fatal("no admission timed out although every one waited past its deadline")
	}
	for i := 0; i < 3; i++ {
		rec := serve(t, s, "POST", "/v1/sessions/"+sid+"/envs", MapEnvRequest{Env: spec.FromEnv(smallEnv(int64(900+i), 4))})
		admitted[servedID(t, rec)] = true
	}
	s.mu.Lock()
	sess := s.sessions[sid]
	s.mu.Unlock()
	active := sess.Session().Export().Active
	if len(active) != len(admitted) {
		t.Fatalf("ledger holds %d environments, %d were answered 201 (%d timed out)", len(active), len(admitted), timedOut)
	}
	for _, a := range active {
		if !admitted[a.Tag] {
			t.Errorf("ledger holds %s, which no client was told of", a.Tag)
		}
	}
}

// TestClassicCloseRacingOperations races Close against all seven
// mutating classic handlers on a durable daemon — open and close a
// session, admit, release, fail and restore a host, rebalance; one
// goroutine only opens and closes sessions. Every call finishes or is
// refused with 503 "draining"; nothing is appended to the log after
// Close's final snapshot, which therefore covers the whole log, nor
// reported once Close has returned; and the directory recovers.
func TestClassicCloseRacingOperations(t *testing.T) {
	c, cs := testbed(t)
	node := c.HostNodes()[0]
	for round := 0; round < 10; round++ {
		dir := t.TempDir()
		var sealed atomic.Bool
		cfg := Config{DataDir: dir, Logf: func(format string, args ...interface{}) {
			if sealed.Load() {
				t.Errorf("round %d: logged after Close: %s", round, fmt.Sprintf(format, args...))
			}
		}}
		s := New(cfg)
		appended := s.domainCfg.Hooks.OnWALRecord
		s.domainCfg.Hooks.OnWALRecord = func() {
			if sealed.Load() {
				t.Errorf("round %d: record appended after Close", round)
			}
			appended()
		}
		if err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		// do makes one call and reports whether its reply is the call's
		// success or the drain's refusal, and drained whether it is the
		// refusal.
		type call struct {
			method, path string
			body         interface{}
			want         int
		}
		do := func(c call) (rec *httptest.ResponseRecorder, fine, drained bool) {
			rec = serve(t, s, c.method, c.path, c.body)
			if rec.Code == http.StatusServiceUnavailable && strings.Contains(rec.Body.String(), "draining") {
				return rec, true, true
			}
			return rec, rec.Code == c.want, false
		}
		var wg, looping sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			looping.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					rec, fine, drained := do(call{"POST", "/v1/sessions", OpenSessionRequest{Cluster: cs}, http.StatusCreated})
					if fine && !drained && g == 3 {
						base := "/v1/sessions/" + servedID(t, rec)
						rec, fine, drained = do(call{"DELETE", base, nil, http.StatusNoContent})
					} else if fine && !drained {
						base := "/v1/sessions/" + servedID(t, rec)
						env := MapEnvRequest{Env: spec.FromEnv(smallEnv(int64(g*1000+i), 4))}
						if rec, fine, drained = do(call{"POST", base + "/envs", env, http.StatusCreated}); fine && !drained {
							for _, c := range []call{
								{"DELETE", base + "/envs/" + servedID(t, rec), nil, http.StatusNoContent},
								{"POST", fmt.Sprintf("%s/hosts/%d/fail", base, node), nil, http.StatusOK},
								{"POST", fmt.Sprintf("%s/hosts/%d/restore", base, node), nil, http.StatusNoContent},
								{"POST", base + "/rebalance", nil, http.StatusOK},
								{"DELETE", base, nil, http.StatusNoContent},
							} {
								if rec, fine, drained = do(c); !fine || drained {
									break
								}
							}
						}
					}
					if i == 0 {
						looping.Done()
					}
					if !fine {
						t.Errorf("round %d, goroutine %d: %d %s", round, g, rec.Code, rec.Body.Bytes())
						return
					}
					if drained {
						return
					}
				}
			}(g)
		}
		looping.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		sealed.Store(true)
		wg.Wait()
		if t.Failed() {
			return
		}
		if res, err := wal.Verify(dir, wal.Hooks{}, nil); err != nil || res.Records != 0 {
			t.Fatalf("round %d: the log past Close's final snapshot: %+v, %v", round, res, err)
		}
		cfg.Logf = t.Logf
		s2 := New(cfg)
		if err := s2.Recover(); err != nil {
			t.Fatalf("round %d: recovering the directory Close sealed: %v", round, err)
		}
		s2.Close()
	}
}

// TestDaemonStartsNoGoroutine builds a durable classic daemon and a
// durable 4-shard federation and drives each through its whole life —
// construction, Recover, one admission and one release through its
// handler, Close — checking after every step that the process runs
// exactly the goroutines it ran before: an operation runs on its
// caller, and nothing ticks in the background.
func TestDaemonStartsNoGoroutine(t *testing.T) {
	_, cs := testbed(t)
	for _, mode := range bothModes(cs) {
		t.Run(mode.name, func(t *testing.T) {
			// Let whatever earlier tests left behind wind down first.
			base := -1
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
				n := runtime.NumGoroutine()
				if n == base {
					break
				}
				base = n
			}
			check := func(step string) {
				t.Helper()
				if n := runtime.NumGoroutine(); n != base {
					buf := make([]byte, 1<<20)
					t.Fatalf("after %s: %d goroutines, %d before the daemon was built:\n%s",
						step, n, base, buf[:runtime.Stack(buf, true)])
				}
			}
			s := mode.build(Config{DataDir: t.TempDir(), ClusterSpecs: fedSpecs(t, 4), Logf: t.Logf})
			check("construction")
			if err := s.Recover(); err != nil {
				t.Fatal(err)
			}
			check("Recover")
			sid := servedID(t, serve(t, s, "POST", "/v1/sessions", mode.open))
			check("opening a session")
			eid := servedID(t, serve(t, s, "POST", "/v1/sessions/"+sid+"/envs",
				MapEnvRequest{Env: spec.FromEnv(smallEnv(5, 4))}))
			check("an admission")
			if rec := serve(t, s, "DELETE", "/v1/sessions/"+sid+"/envs/"+eid, nil); rec.Code != http.StatusNoContent {
				t.Fatalf("release: %d %s", rec.Code, rec.Body.Bytes())
			}
			check("a release")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			check("Close")
		})
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"repro/internal/server"
	"repro/internal/spec"
)

// target is the daemon as the one closed-loop client sees it. Each
// mutating call returns the service time the client observed: request
// sent until the reply body is read, which for the daemon is after the
// WAL barrier. Replies come back raw; the pass decodes them outside
// the timed path, the same way for every target.
type target interface {
	admit(tenant int, body []byte) (raw []byte, rejected bool, d time.Duration, err error)
	release(tenant int, eid string) (time.Duration, error)
	fail(kind string, id int) (raw []byte, d time.Duration, err error)
	restore(kind string, id int) (time.Duration, error)
	residuals(shard int) ([]byte, error)
}

// daemon is a real in-process hmnd: server.New or server.NewFederation,
// recovered on its data directory and served on a loopback listener.
type daemon struct {
	classic *server.Server
	fed     *server.FedServer
	hs      *http.Server
	served  chan error
	url     string
}

// newServer builds the daemon for a workload on dataDir and recovers
// it. The flush policy is the daemon's own: fsync before every ack, no
// periodic snapshot, so the window never contains one.
func newServer(def def, specs []spec.ClusterSpec, dataDir string) (*daemon, error) {
	d := &daemon{}
	if def.fed {
		d.fed = server.NewFederation(server.FedConfig{
			ClusterSpecs: specs, GatewayBW: def.gatewayBW, DataDir: dataDir,
		})
	} else {
		d.classic = server.New(server.Config{DataDir: dataDir, BatchSize: 1})
	}
	if err := d.recoverServer(); err != nil {
		_ = d.closeServer()
		return nil, err
	}
	return d, nil
}

func (d *daemon) recoverServer() error {
	if d.fed != nil {
		return d.fed.Recover()
	}
	return d.classic.Recover()
}

func (d *daemon) handler() http.Handler {
	if d.fed != nil {
		return d.fed.Handler()
	}
	return d.classic.Handler()
}

// closeServer drains the daemon gracefully (final snapshot, WAL close).
func (d *daemon) closeServer() error {
	if d.fed != nil {
		return d.fed.Close()
	}
	d.classic.Close()
	return nil
}

// startDaemon recovers a daemon on dataDir and serves it on loopback.
func startDaemon(g *generated, dataDir string) (*daemon, error) {
	d, err := newServer(g.def, g.specs, dataDir)
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.closeServer()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, then closes the daemon; it returns how
// long the graceful close (the final snapshot) took.
func (d *daemon) stop() (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	start := time.Now()
	if cerr := d.closeServer(); err == nil {
		err = cerr
	}
	return time.Since(start), err
}

// httpTarget drives a daemon over HTTP with one keep-alive connection.
type httpTarget struct {
	base   string
	client *http.Client
	fed    bool
	sids   []string
}

// do sends one request and reads the whole reply; d covers exactly
// that.
func (t *httpTarget) do(method, path string, body []byte) (code int, raw []byte, d time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	raw, err = io.ReadAll(resp.Body)
	d = time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%s %s: read reply: %w", method, path, err)
	}
	return resp.StatusCode, raw, d, nil
}

func statusErr(op string, code int, raw []byte) error {
	return fmt.Errorf("%s: status %d: %s", op, code, bytes.TrimSpace(raw))
}

// openSessions opens the workload's tenants (one session carrying the
// cluster for the classic daemon, bodiless tenants for the federation).
func (t *httpTarget) openSessions(g *generated) error {
	for i := 0; i < g.def.tenants; i++ {
		var body []byte
		if !t.fed {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(server.OpenSessionRequest{Cluster: g.specs[0]}); err != nil {
				return err
			}
			body = buf.Bytes()
		}
		code, raw, _, err := t.do("POST", "/v1/sessions", body)
		if err != nil {
			return err
		}
		if code != http.StatusCreated {
			return statusErr("open session", code, raw)
		}
		var opened server.OpenTenantResponse // both replies carry "id"
		if err := json.Unmarshal(raw, &opened); err != nil {
			return err
		}
		t.sids = append(t.sids, opened.ID)
	}
	return nil
}

func (t *httpTarget) admit(tenant int, body []byte) ([]byte, bool, time.Duration, error) {
	code, raw, d, err := t.do("POST", "/v1/sessions/"+t.sids[tenant]+"/envs", body)
	switch {
	case err != nil:
		return nil, false, 0, err
	case code == http.StatusConflict:
		return nil, true, d, nil
	case code != http.StatusOK && code != http.StatusCreated:
		return nil, false, 0, statusErr("admit", code, raw)
	}
	return raw, false, d, nil
}

func (t *httpTarget) release(tenant int, eid string) (time.Duration, error) {
	code, raw, d, err := t.do("DELETE", "/v1/sessions/"+t.sids[tenant]+"/envs/"+eid, nil)
	if err == nil && code != http.StatusNoContent {
		err = statusErr("release "+eid, code, raw)
	}
	return d, err
}

// targetPath addresses a host or link of the classic session.
func (t *httpTarget) targetPath(kind string, id int, verb string) string {
	return "/v1/sessions/" + t.sids[0] + "/" + kind + "s/" + strconv.Itoa(id) + "/" + verb
}

func (t *httpTarget) fail(kind string, id int) ([]byte, time.Duration, error) {
	code, raw, d, err := t.do("POST", t.targetPath(kind, id, "fail"), nil)
	if err == nil && code != http.StatusOK {
		err = statusErr("fail "+kind, code, raw)
	}
	return raw, d, err
}

func (t *httpTarget) restore(kind string, id int) (time.Duration, error) {
	code, raw, d, err := t.do("POST", t.targetPath(kind, id, "restore"), nil)
	if err == nil && code != http.StatusNoContent {
		err = statusErr("restore "+kind, code, raw)
	}
	return d, err
}

func residualsPath(fed bool, shard int) string {
	if fed {
		return "/v1/shards/" + strconv.Itoa(shard) + "/residuals"
	}
	return "/v1/sessions/s1/residuals"
}

func (t *httpTarget) residuals(shard int) ([]byte, error) {
	code, raw, _, err := t.do("GET", residualsPath(t.fed, shard), nil)
	if err == nil && code != http.StatusOK {
		err = statusErr("residuals", code, raw)
	}
	return raw, err
}

// recoverOnce is one crash recovery: New + Recover() on dir until the
// daemon would serve, timed, followed by every shard's residuals body
// exactly as GET …/residuals renders it.
func recoverOnce(def def, dir string) (seconds float64, residuals [][]byte, err error) {
	start := time.Now()
	d, err := newServer(def, nil, dir) // the clusters come back from the logs
	seconds = time.Since(start).Seconds()
	if err != nil {
		return 0, nil, fmt.Errorf("recover %s: %w", dir, err)
	}
	h := d.handler()
	for k := 0; k < def.shards(); k++ {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", residualsPath(def.fed, k), nil))
		if rr.Code != http.StatusOK {
			_ = d.closeServer()
			return 0, nil, statusErr("recovered residuals", rr.Code, rr.Body.Bytes())
		}
		residuals = append(residuals, rr.Body.Bytes())
	}
	return seconds, residuals, d.closeServer()
}

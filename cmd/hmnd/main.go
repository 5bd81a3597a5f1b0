// Command hmnd runs the testbed-allocation daemon: the HMN mapper
// served as a long-lived HTTP/JSON service in which testers open
// sessions on a physical cluster, map virtual environments against the
// live residual resources, and release them when their experiments end
// (the multi-tester testbed of the paper's §6).
//
// Usage:
//
//	hmnd -addr :8080 -timeout 30s
//
// A request runs on its own goroutine, serialized per session by the
// session's lock; the daemon starts no goroutine of its own. A request
// still waiting for the lock at its -timeout answers 503 with
// Retry-After once it gets the lock, any admission it made rolled back.
// SIGINT/SIGTERM starts a graceful drain: in-flight operations finish,
// new work is refused, and the process exits once the listener is idle
// (or the -drain budget runs out).
//
// Failure handling: POST /v1/sessions/{id}/hosts/{node}/fail (and the
// /links/{edge}/fail twin) quarantines capacity, evicts the
// environments using it in admission order, and runs the self-healing
// repair engine over the evictions — each comes back repaired (paths
// re-routed around a cut), replaced (fully re-mapped) or unrecoverable,
// with the per-environment fate in the response body. The matching
// /restore endpoints return the capacity; restoring a healthy target or
// failing a failed one is a 409.
//
// Durability: -data-dir enables the write-ahead log (internal/wal).
// Every mutating request is logged and fsynced before its success
// response. Every snapshot starts a fresh log segment: a checkpoint
// lands whenever the log outgrows the last snapshot twofold (so a
// restart reads a bounded suffix), and a graceful shutdown takes one
// more. No snapshot deletes a segment, so the directory holds the whole
// operation trace; `hmnwal compact <data-dir>` reclaims the segments
// before the last snapshot, and is safe against the running daemon. On
// startup the daemon replays snapshot+log back into memory, and
// cross-checks every recovered session's objective against a recompute,
// before the /v1 API stops answering 503 "replaying":
//
//	hmnd -addr :8080 -data-dir /var/lib/hmnd
//
// Rebalancing: POST /v1/sessions/{id}/rebalance runs, on demand, a round
// of the paper's Migration stage (§4.2) over every deployed environment
// against the live residual-CPU vector: cheapest victim off the most
// loaded host, least loaded destination first, one move scored and
// committed per hold of the session lock — so an admission waits behind
// one move at most, and no move is ever stale — and every committed move
// is WAL-logged like any other operation. -rebalance-max-moves caps each
// round (default 8).
//
// Profiling: -pprof-addr (off by default) serves net/http/pprof on its
// own listener, kept away from the service port so profiling endpoints
// are never exposed to tenants by accident. The index serves every
// runtime profile — allocation profiles under load come from
// /debug/pprof/allocs, and the contention profiles activate behind
// -mutex-profile-fraction / -block-profile-rate (both sampled, both off
// by default because sampling costs the hot path):
//
//	hmnd -addr :8080 -pprof-addr 127.0.0.1:6060 -mutex-profile-fraction 100 -block-profile-rate 10000
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=30
//	go tool pprof http://127.0.0.1:6060/debug/pprof/allocs
//	go tool pprof http://127.0.0.1:6060/debug/pprof/mutex
//
// Federation: -shards N switches the daemon into sharded multi-cluster
// mode — N independent shards (each its own session and ledger) behind
// a router that places each environment by consistent hashing with a
// best-fit fallback. A request runs on its own goroutine, serialized per
// shard by the shard's session lock, so unrelated environments never
// contend on a session lock; they share the one WAL's group-commit
// fsyncs. -shard-cluster names a cluster-spec JSON file instantiated
// once per shard; -gateway-bw budgets the inter-shard bandwidth that
// split admissions may charge. The durability and rebalancing flags mean
// what they mean in the classic mode (-data-dir holds one WAL, the
// shards its sessions shard-0 … shard-N-1, plus the tenant registry, and
// a restart recovers every shard before serving; a data directory
// written with a WAL per shard-k directory is refused):
//
//	hmnd -addr :8080 -shards 4 -shard-cluster cluster.json -gateway-bw 100 -data-dir /var/lib/hmnd
//
// See the README's "hmnd service" section for a curl walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/spec"
)

func main() {
	serve, err := configure(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmnd: %v\n", err)
		os.Exit(2)
	}
	if err := serve(); err != nil {
		fmt.Fprintf(os.Stderr, "hmnd: %v\n", err)
		os.Exit(1)
	}
}

// configure parses and validates the command line and returns the
// daemon to run, classic or federation. An error is a usage error: the
// caller exits 2 before anything listens.
func configure(args []string) (func() error, error) {
	fs := flag.NewFlagSet("hmnd", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request timeout; a request still waiting for its session's lock then answers 503 once it gets the lock, any admission it made rolled back")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget")
		pprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		dataDir   = fs.String("data-dir", "", "durability directory: WAL + snapshots (empty = in-memory only)")
		rebMoves  = fs.Int("rebalance-max-moves", 8, "guest moves per POST .../rebalance round (0 = unbounded)")
		mutexFrac = fs.Int("mutex-profile-fraction", 0, "runtime mutex profile sampling fraction for /debug/pprof/mutex (0 = disabled)")
		blockRate = fs.Int("block-profile-rate", 0, "runtime block profile sampling rate in ns for /debug/pprof/block (0 = disabled)")
		shards    = fs.Int("shards", 0, "federation mode: independent shard count (0 = single-session daemon)")
		gatewayBW = fs.Float64("gateway-bw", 0, "inter-shard gateway bandwidth budget in Mbps for split admissions (needs -shards; 0 = splits disabled)")
		shardSpec = fs.String("shard-cluster", "", "cluster spec JSON instantiated once per shard (needs -shards; optional when -data-dir holds recoverable state)")
	)
	// Removed flags are usage errors that name what replaced them.
	var err error
	for name, replacement := range map[string]string{
		"queue":             "a request waits for its session's lock, bounded by -timeout",
		"snapshot-interval": "checkpoints land by log growth; reclaim disk with hmnwal compact <data-dir>",
	} {
		fs.Func(name, "removed: "+replacement, func(string) error {
			err = fmt.Errorf("-%s was removed: %s", name, replacement)
			return nil
		})
	}
	fs.Parse(args) // ExitOnError: a malformed command line never returns

	if err == nil {
		err = profileConfig(*mutexFrac, *blockRate)
	}
	var cfg server.Config
	if err == nil {
		cfg, err = buildConfig(*timeout, *rebMoves, *dataDir)
	}
	switch {
	case err != nil:
	case *shards <= 0 && (*gatewayBW != 0 || *shardSpec != ""):
		err = errors.New("-gateway-bw and -shard-cluster need -shards")
	case *shards > 0:
		err = federationConfig(&cfg, *shards, *gatewayBW, *shardSpec)
	}
	if err != nil {
		return nil, err
	}
	return func() error { return run(*addr, cfg, *shards > 0, *drain, *pprofAddr) }, nil
}

// buildConfig validates the flags both modes share into a server
// config.
func buildConfig(timeout time.Duration, maxMoves int, dataDir string) (server.Config, error) {
	var err error
	switch {
	case timeout <= 0:
		err = fmt.Errorf("-timeout must be positive, got %v", timeout)
	case maxMoves < 0:
		err = fmt.Errorf("-rebalance-max-moves must be >= 0, got %d", maxMoves)
	}
	return server.Config{RequestTimeout: timeout, RebalanceMaxMoves: maxMoves, DataDir: dataDir}, err
}

// profileConfig validates the profiling flags and arms the runtime's
// contention profilers. The rates take effect process-wide immediately,
// classic and federation mode alike; the profiles themselves are only
// reachable when -pprof-addr serves them.
func profileConfig(mutexFrac, blockRate int) error {
	if mutexFrac < 0 {
		return fmt.Errorf("-mutex-profile-fraction must be >= 0, got %d", mutexFrac)
	}
	if blockRate < 0 {
		return fmt.Errorf("-block-profile-rate must be >= 0, got %d", blockRate)
	}
	if mutexFrac > 0 {
		runtime.SetMutexProfileFraction(mutexFrac)
	}
	if blockRate > 0 {
		runtime.SetBlockProfileRate(blockRate)
	}
	return nil
}

// federationConfig validates the federation flags into cfg, loading the
// per-shard cluster spec when one was named. The spec may be omitted
// only when the data directory already holds recoverable federation
// state.
func federationConfig(cfg *server.Config, shards int, gatewayBW float64, specPath string) error {
	if gatewayBW < 0 {
		return fmt.Errorf("-gateway-bw must be >= 0, got %g", gatewayBW)
	}
	cfg.GatewayBW = gatewayBW
	if cfg.DataDir != "" && shard.HasState(cfg.DataDir) {
		return nil
	}
	if specPath == "" {
		return fmt.Errorf("-shards needs -shard-cluster (no recoverable state in %q)", cfg.DataDir)
	}
	raw, err := os.Open(specPath)
	if err != nil {
		return fmt.Errorf("-shard-cluster: %w", err)
	}
	defer raw.Close()
	var cs spec.ClusterSpec
	if err := spec.DecodeStrict(raw, &cs); err != nil {
		return fmt.Errorf("-shard-cluster %s: %w", specPath, err)
	}
	cfg.ClusterSpecs = make([]spec.ClusterSpec, shards)
	for k := range cfg.ClusterSpecs {
		cfg.ClusterSpecs[k] = cs
	}
	return nil
}

// pprofHandler builds the net/http/pprof mux by hand: the package's
// init registers on http.DefaultServeMux, which the daemon never
// serves, so profiling stays opt-in and off the service listener.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// run serves the daemon, classic or federation, until SIGINT/SIGTERM,
// then drains: listener first, so no handler is left waiting on an
// operation, the lock domains after.
func run(addr string, cfg server.Config, federation bool, drain time.Duration, pprofAddr string) error {
	logger := log.New(os.Stderr, "hmnd: ", log.LstdFlags)
	cfg.Logf = logger.Printf
	build := server.New
	if federation {
		build = server.NewFederation
	}
	srv := build(cfg)
	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if pprofAddr != "" {
		pprofSrv := &http.Server{Addr: pprofAddr, Handler: pprofHandler()}
		go func() {
			logger.Printf("pprof listening on %s", pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof server: %v", err)
			}
		}()
		defer pprofSrv.Close()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (timeout=%v)", addr, cfg.RequestTimeout)
		errc <- httpSrv.ListenAndServe()
	}()

	// Recover with the listener already up: /healthz answers 503
	// "replaying" while the state is built or rebuilt, and the /v1 API
	// opens the moment Recover returns.
	if cfg.DataDir != "" {
		logger.Printf("recovering from %s", cfg.DataDir)
	}
	if err := srv.Recover(); err != nil {
		httpSrv.Close()
		srv.Close()
		return fmt.Errorf("recover: %w", err)
	}
	if fed := srv.Federation(); fed != nil {
		logger.Printf("federation serving (%d shards, gateway %g Mbps)", fed.Shards(), fed.Stats().GatewayBudget)
	} else {
		logger.Printf("serving")
	}

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	logger.Printf("signal received, draining (budget %v)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := httpSrv.Shutdown(shutdownCtx)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Printf("drained, exiting")
	return nil
}

// Package shard is the federation layer: N fully independent shards —
// each its own core.Session, ledger, WAL directory and rebalance
// scheduler — behind a front-end router that places every incoming
// environment on a shard. Unrelated environments therefore never
// contend on a lock, a snapshot or an fsync: each shard serializes its
// own operations on one worker goroutine, and the only shared state is
// the router's reservation ledger (a handful of floats under one
// mutex) and the inter-shard gateway budget.
//
// Placement is consistent hashing on the tenant session ID for the
// fast path, best-fit on the router's reservation-exact headroom view
// when the hashed shard lacks room, and a split admission — the
// environment cut at its lowest-bandwidth virtual links into per-shard
// fragments, the cut bandwidth charged against the gateway budget —
// when no single shard fits. Fragments commit all-or-nothing: any
// fragment failure releases the committed siblings and refunds every
// reservation.
//
// The router's decisions are a pure function of the order in which
// environments are submitted: reservations and refunds are applied on
// the submitting goroutine, and each shard's single worker executes
// its operations in submission order, so a fixed submission sequence
// yields byte-identical placements and per-shard ledgers on every run.
// The epoch-versioned per-shard residual summaries (core.ResidualSummary)
// refreshed after each commit are advisory — they feed metrics and the
// introspection endpoints, never a routing decision — which is exactly
// what keeps routing deterministic while commits complete in the
// background.
package shard

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rebalance"
	"repro/internal/spec"
	"repro/internal/wal"
)

// Sentinel errors of the federation layer. Errors from the underlying
// sessions (core.ErrNoHostFits, core.ErrNoPath, ...) pass through
// wrapped, so errors.Is sees both layers.
var (
	// ErrNoShardFits means no single shard has the headroom for the
	// environment and splitting could not produce a feasible
	// fragmentation either.
	ErrNoShardFits = errors.New("shard: no shard fits the environment, split included")
	// ErrGatewayExhausted means a split admission's cut bandwidth does
	// not fit the remaining inter-shard gateway budget.
	ErrGatewayExhausted = errors.New("shard: inter-shard gateway bandwidth exhausted")
	// ErrUnknownTenant names a tenant session that was never opened or
	// is already closed.
	ErrUnknownTenant = errors.New("shard: unknown tenant session")
	// ErrUnknownEnv names an environment that is not deployed.
	ErrUnknownEnv = errors.New("shard: unknown environment")
	// ErrClosed reports an operation against a closed federation.
	ErrClosed = errors.New("shard: federation closed")
	// ErrBadShard names a shard index outside [0, Shards).
	ErrBadShard = errors.New("shard: no such shard")
)

// Config parameterizes a federation.
type Config struct {
	// Mapper is the session mapper wire name ("", "HMN" or "HMN-C"),
	// applied to every shard.
	Mapper string
	// Overhead is the per-host VMM overhead, applied to every shard.
	Overhead cluster.VMMOverhead
	// GatewayBW is the inter-shard gateway bandwidth budget in Mbps.
	// Zero disables split admissions: an environment that fits no
	// single shard is rejected with ErrNoShardFits.
	GatewayBW float64
	// DataDir enables durability: shard k logs to DataDir/shard-k and
	// the tenant registry persists in DataDir/federation.json. Empty
	// keeps the federation in memory.
	DataDir string
	// SnapshotInterval, when positive and DataDir is set, snapshots
	// every shard on this cadence; a final snapshot is always taken on
	// a clean Close.
	SnapshotInterval time.Duration
	// RebalanceInterval, when positive, runs each shard's background
	// rebalancer on this cadence. RebalanceMaxMoves caps guest moves
	// per round (0 = the scheduler's default).
	RebalanceInterval time.Duration
	RebalanceMaxMoves int
	// VerifyReplay cross-checks every recovered shard before serving.
	VerifyReplay bool
	// QueueDepth bounds each shard's operation queue (default 256).
	QueueDepth int
	// Logf reports housekeeping; nil discards.
	Logf func(format string, args ...interface{})
	// Hooks observe durability events for metrics.
	Hooks Hooks
}

// Hooks observe the federation's durability machinery, mirroring
// wal.Hooks across all shards.
type Hooks struct {
	// OnWALRecord fires per appended record, OnFsync per fsync with its
	// latency in seconds, OnSnapshot per shard snapshot with its
	// latency in seconds, OnReplay per replayed record during Recover.
	OnWALRecord func()
	OnFsync     func(seconds float64)
	OnSnapshot  func(seconds float64)
	OnReplay    func()
}

// withDefaults fills the zero values.
func (cfg Config) withDefaults() Config {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	return cfg
}

// shardSID is the WAL session ID a shard's operations are logged
// under; it never collides with tenant IDs ("s1", "s2", ...).
func shardSID(k int) string { return fmt.Sprintf("shard-%d", k) }

// Shard is one lock domain of the federation: a session on its own
// cluster, its own WAL, its own rebalance scheduler, and one worker
// goroutine that executes the shard's operations in submission order.
type Shard struct {
	// Index is the shard's position in the federation, in [0, Shards).
	Index int

	c           *cluster.Cluster
	clusterSpec spec.ClusterSpec
	sess        *core.Session
	w           *wal.WAL // nil without a data directory
	reb         *rebalance.Scheduler

	ops  chan func()
	done chan struct{}
}

// Session exposes the shard's core session for read-side introspection
// (residuals, summaries). Mutating it directly bypasses the worker's
// FIFO and the router's accounting; use the Federation methods.
func (sh *Shard) Session() *core.Session { return sh.sess }

// Cluster returns the shard's physical cluster.
func (sh *Shard) Cluster() *cluster.Cluster { return sh.c }

// loop is the shard's worker goroutine: operations run one at a time,
// in submission order — the property the router's reservation ledger
// and the bench's determinism guarantee both rest on.
func (sh *Shard) loop() {
	defer close(sh.done)
	for fn := range sh.ops {
		fn()
	}
}

// enqueue submits fn to the worker, blocking while the queue is full.
func (sh *Shard) enqueue(fn func()) {
	sh.ops <- fn
}

// run submits fn and waits for it to finish.
func (sh *Shard) run(fn func()) {
	done := make(chan struct{})
	sh.ops <- func() {
		defer close(done)
		fn()
	}
	<-done
}

// barrier makes the shard's appended records durable; free without a
// data directory.
func (sh *Shard) barrier() error {
	if sh.w == nil {
		return nil
	}
	return sh.w.Barrier()
}

// stop drains and stops the worker and the rebalancer. Safe once.
func (sh *Shard) stop() {
	if sh.reb != nil {
		sh.reb.Stop()
	}
	close(sh.ops)
	<-sh.done
}

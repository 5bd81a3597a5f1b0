// Package shard is the federation layer: N independent shards — each
// its own core.Session and ledger — behind a front-end router that
// places every incoming environment on a shard. Unrelated environments
// never contend on a session lock: an operation runs on its caller's
// goroutine, serialized per shard by that shard's session lock. What the
// shards share is the router's reservation ledger (a handful of floats
// under one mutex), the inter-shard gateway budget and, with a data
// directory, the one write-ahead log they all append to — its append
// mutex, its group-commit fsyncs and its snapshots.
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
// environments are submitted: a reservation is charged before its
// fragment runs and a refund lands once its release has, both on the
// submitting goroutine, so a fixed submission sequence yields
// byte-identical placements, per-shard ledgers and per-shard record
// streams on every run.
//
// The package also owns the lock domain as such. A Shard is a session
// whose commits are logged to a WAL; Open creates one, Replay recovers
// the ones a data directory holds, Barrier acknowledges through their
// WAL and Seal shuts it down. Either daemon mode keeps one WAL per data
// directory: a federation's shards are the sessions shard-0 … shard-N-1
// of its log, and the sessions of a classic daemon (internal/server)
// are the sessions of its — there is one copy of the commit hook, the
// open record, the rebalance round, the recovery step, the snapshot
// export and the ack barrier, whoever asks.
package shard

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
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

// Config parameterizes a federation, and the lock domains of either
// daemon mode (Open and Replay read Mapper, Overhead, RebalanceMaxMoves,
// Logf and Hooks).
type Config struct {
	// Mapper is the session mapper wire name ("" or "HMN"; Open refuses
	// any other), applied to every shard.
	Mapper string
	// Overhead is the per-host VMM overhead, applied to every shard.
	Overhead cluster.VMMOverhead
	// GatewayBW is the inter-shard gateway bandwidth budget in Mbps.
	// Zero disables split admissions: an environment that fits no
	// single shard is rejected with ErrNoShardFits.
	GatewayBW float64
	// DataDir enables durability: every shard logs to the one WAL at
	// the directory's root, shard k as session shard-k, and the tenant
	// registry persists beside it in federation.json. Empty keeps the
	// federation in memory.
	DataDir string
	// RebalanceMaxMoves caps guest moves per rebalancing round (0 =
	// unbounded).
	RebalanceMaxMoves int
	// Logf reports housekeeping; nil discards.
	Logf func(format string, args ...interface{})
	// Hooks observe durability events for metrics.
	Hooks Hooks
}

// Hooks observe the lock domains' machinery for the metrics layer.
// All fields are optional.
type Hooks struct {
	// OnWALRecord fires per appended record, OnFsync per fsync with its
	// latency in seconds, OnSnapshot per snapshot with its latency in
	// seconds, OnReplay per replayed record during recovery.
	OnWALRecord func()
	OnFsync     func(seconds float64)
	OnSnapshot  func(seconds float64)
	OnReplay    func()
	// OnAdmit fires on the admitting goroutine after every fragment
	// admission attempt, committed or not, with the attempt's funnel
	// counters and the wall time of its MapTagged call.
	OnAdmit func(st core.AdmitStats, seconds float64)
	// OnRebalance fires after every rebalancing round with what it did.
	OnRebalance func(res core.RebalanceResult)
}

// logf reports through the configured logger.
func (cfg Config) logf(format string, args ...interface{}) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// walHooks adapts the durability hooks for wal.Recover.
func (cfg Config) walHooks() wal.Hooks {
	return wal.Hooks{
		OnAppend:   cfg.Hooks.OnWALRecord,
		OnFsync:    cfg.Hooks.OnFsync,
		OnSnapshot: cfg.Hooks.OnSnapshot,
		Logf:       cfg.Logf,
	}
}

// shardSID is the WAL session ID a shard's operations are logged
// under; it never collides with tenant IDs ("s1", "s2", ...).
func shardSID(k int) string { return fmt.Sprintf("shard-%d", k) }

// Shard is one lock domain: a session on its own cluster whose commits
// are logged to its owner's WAL. Its operations run on their callers
// under the session lock. A federation's shards and a classic daemon's
// sessions are domains alike, on their owner's one WAL.
type Shard struct {
	// Index is the shard's position in the federation, in [0, Shards).
	Index int
	// EnvHigh is the highest environment ordinal recovery found the
	// domain naming — in its snapshot entry, a replayed record or an
	// active tag — so an ID counter seeded past it never reissues one.
	// Zero for a domain opened fresh.
	EnvHigh int
	// NextEnv reads the owner's environment-ID counter, which the session
	// does not know about, for a snapshot of the domain. The owner sets
	// it before the domain serves.
	NextEnv func() int

	sid         string
	c           *cluster.Cluster
	clusterSpec spec.ClusterSpec
	mapper      string
	overhead    cluster.VMMOverhead
	sess        *core.Session
	cfg         Config
}

// Open creates a lock domain: a fresh session for cfg.Mapper and
// cfg.Overhead on c, its open record appended to w (nil: no log) ahead
// of anything its commit hook will write. clusterSpec is c as it goes
// into the log. The caller makes the open record durable with a barrier
// on w before it tells anyone the domain exists.
func Open(cfg Config, sid string, c *cluster.Cluster, clusterSpec spec.ClusterSpec, w *wal.WAL) (*Shard, error) {
	mapper, err := core.MapperByName(cfg.Mapper, cfg.Overhead)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(c, cfg.Overhead, mapper)
	if err != nil {
		return nil, err
	}
	if w != nil {
		rec := &wal.Record{Kind: wal.KindOpen, SID: sid, Open: &wal.OpenRec{
			Cluster: clusterSpec,
			Mapper:  cfg.Mapper,
			Proc:    cfg.Overhead.Proc,
			Mem:     cfg.Overhead.Mem,
			Stor:    cfg.Overhead.Stor,
		}}
		if err := w.Append(rec); err != nil {
			// The fault is sticky: the caller's barrier reports it.
			cfg.logf("hmnd: wal append (open %s): %v", sid, err)
		}
	}
	return adopt(cfg, &wal.Replayed{
		SID: sid, Session: sess, Cluster: c, ClusterSpec: clusterSpec,
		Mapper: cfg.Mapper, Overhead: cfg.Overhead,
	}, w), nil
}

// adopt wraps a session, fresh or replayed, as a lock domain logging
// to w: the commit hook that turns every committed operation into a
// record.
func adopt(cfg Config, rs *wal.Replayed, w *wal.WAL) *Shard {
	sh := &Shard{
		sid: rs.SID, c: rs.Cluster, clusterSpec: rs.ClusterSpec,
		mapper: rs.Mapper, overhead: rs.Overhead, sess: rs.Session, cfg: cfg,
	}
	if w != nil {
		// The hook runs under the session lock: it serializes the event
		// and buffers it — the fsync is paid once per acknowledged
		// request, not per operation.
		sh.sess.SetCommitHook(func(ev core.Event) {
			if err := w.Append(wal.RecordFromEvent(sh.sid, sh.overhead, ev)); err != nil {
				// Already committed in memory; the fault is sticky, so the
				// ack-path barrier fails too and no client is ever told the
				// lost operation is durable.
				cfg.logf("hmnd: wal append (%s): %v", sh.sid, err)
			}
		})
	}
	return sh
}

// envOrdinal is the environment ordinal a tag names: a classic
// session's tags are its environment IDs ("e7"), a federation's carry
// the tenant and fragment around one ("s1/e7#1of2@5").
func envOrdinal(tag string) int {
	if _, eid, _, _, _, ok := parseTag(tag); ok {
		tag = eid
	}
	n, _ := wal.EnvOrdinal(tag)
	return n
}

// Replay is the recovery step of a data directory, either mode's: it
// opens (or initializes) the WAL at dir's root and, in one pass over its
// log (wal.Recover), rebuilds every session the snapshot plus log suffix
// hold as a lock domain logging to the returned WAL, in SID order,
// EnvHigh set. maxSession is the highest session ordinal the directory
// ever named. Each domain's incremental objective is cross-checked
// against a recompute, O(hosts) a session.
func Replay(cfg Config, dir string) (w *wal.WAL, domains []*Shard, maxSession int, err error) {
	start := time.Now() //hmn:wallclock
	// Replayed records can name environment IDs the final active sets no
	// longer hold (admitted and released since the snapshot); the ID
	// counters must still move past them.
	high := make(map[*wal.Replayed]int)
	w, rec, err := wal.Recover(dir, cfg.walHooks(), func(rs *wal.Replayed, r *wal.Record) {
		if cfg.Hooks.OnReplay != nil {
			cfg.Hooks.OnReplay()
		}
		r.EachTag(func(tag string) { high[rs] = max(high[rs], envOrdinal(tag)) })
	})
	if err != nil {
		return nil, nil, 0, err
	}
	for _, rs := range rec.Sessions {
		if err := wal.VerifyObjective(rs.Session); err != nil {
			w.Close()
			return nil, nil, 0, fmt.Errorf("shard: session %s %w", rs.SID, err)
		}
		sh := adopt(cfg, rs, w)
		sh.EnvHigh = max(int(rs.NextEnv), high[rs])
		// Belt and braces on top of the snapshotted counter and the
		// replayed-record bumps: no live environment's ID is ever handed
		// out again, even against a snapshot whose counter lagged its
		// active set.
		for _, a := range rs.Session.Export().Active {
			sh.EnvHigh = max(sh.EnvHigh, envOrdinal(a.Tag))
		}
		domains = append(domains, sh)
	}
	// Torn bytes were a write the crash interrupted: never acknowledged.
	cfg.logf("hmnd: %s: recovered %d sessions from %d log records (%d bytes) in %.3fs, %d torn bytes truncated",
		dir, len(domains), rec.Records, rec.Bytes, time.Since(start).Seconds(), rec.TruncatedBytes) //hmn:wallclock
	return w, domains, rec.MaxSession, nil
}

// SID is the session ID the domain's operations are logged under.
func (sh *Shard) SID() string { return sh.sid }

// Session exposes the domain's core session. Mutating a federation
// shard's directly bypasses the router's accounting and the tenant
// registry; use the Federation methods.
func (sh *Shard) Session() *core.Session { return sh.sess }

// Cluster returns the domain's physical cluster.
func (sh *Shard) Cluster() *cluster.Cluster { return sh.c }

// Mapper is the wire name of the session's mapper and Overhead the
// per-host VMM overhead it was opened with.
func (sh *Shard) Mapper() string                { return sh.mapper }
func (sh *Shard) Overhead() cluster.VMMOverhead { return sh.overhead }

// Rebalance runs one rebalancing round now (core.Session.Rebalance).
// The owner's barrier makes the moves it committed durable.
func (sh *Shard) Rebalance() core.RebalanceResult {
	res := sh.sess.Rebalance(sh.cfg.RebalanceMaxMoves)
	if sh.cfg.Hooks.OnRebalance != nil {
		sh.cfg.Hooks.OnRebalance(res)
	}
	return res
}

// Export captures domains, the lock domains logged to one WAL, for a
// snapshot of it, in SID order for deterministic snapshot bytes. Each
// domain's counter (NextEnv) is read after its session's export: an
// admission the export captured took its ID before it committed, so the
// counter covers it.
func Export(domains []*Shard) ([]wal.SessionSnap, error) {
	domains = slices.Clone(domains)
	sort.Slice(domains, func(i, j int) bool { return domains[i].sid < domains[j].sid })
	out := make([]wal.SessionSnap, len(domains))
	for i, sh := range domains {
		out[i] = wal.ExportSession(sh.sid, sh.clusterSpec, sh.mapper, sh.overhead, 0, sh.sess)
		out[i].NextEnv = uint64(sh.NextEnv())
	}
	return out, nil
}

// Barrier is the acknowledgement step of either daemon mode: it makes
// every record appended to w so far durable. The operation whose records
// made a checkpoint due writes it here first — a snapshot of every
// domain domains lists, the WAL's whole state — so the log a recovery
// must read stays within a few times the live state. Free without a
// data directory (w nil).
func Barrier(cfg Config, w *wal.WAL, domains func() []*Shard) error {
	if w == nil {
		return nil
	}
	if err := w.Checkpoint(exporter(domains)); err != nil {
		cfg.logf("hmnd: checkpoint: %v", err)
	}
	return w.Barrier()
}

// Seal shuts w down, either mode's: a final snapshot of every domain
// domains lists — a checkpoint, deleting nothing, so the next start
// reads no log — and the log sealed. It returns both steps' errors,
// joined; free without a data directory (w nil).
func Seal(w *wal.WAL, domains func() []*Shard) error {
	if w == nil {
		return nil
	}
	return errors.Join(w.Snapshot(exporter(domains)), w.Close())
}

// exporter is Export over the domains listed when a snapshot is cut.
// The list is taken after the cut, so a domain found there had not
// closed by it: its close record, if any, follows the cut.
func exporter(domains func() []*Shard) func() ([]wal.SessionSnap, error) {
	return func() ([]wal.SessionSnap, error) { return Export(domains()) }
}

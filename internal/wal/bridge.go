package wal

import (
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/virtual"
)

// This file converts between the live core types and the WAL's on-disk
// records. The two directions are asymmetric on purpose: the forward
// direction (RecordFromEvent) captures *effects* — the exact committed
// mapping, down to the physical edge IDs — and the reverse direction
// (ReplayRecord) applies those effects through the session's canonical
// commit funnel without ever re-running the mapper. A newer build may
// break a tie differently, and logs from daemons that admitted
// optimistically hold placements no serial re-map would produce, so
// re-deriving mappings at replay time could diverge; re-applying
// recorded net transactions in recorded order cannot.

// RecordFromEvent converts one commit-hook event into its log record.
// It runs inside the commit hook — under the session lock — so it only
// serializes (spec conversions) and allocates; overhead parameterizes
// the MappingSpec objective.
func RecordFromEvent(sid string, overhead cluster.VMMOverhead, ev core.Event) *Record {
	rec := &Record{SID: sid, Index: ev.Index}
	switch ev.Type {
	case core.EventAdmit:
		rec.Kind = KindAdmit
		rec.Admit = admitRec(*ev.Admit, overhead)
	case core.EventRelease:
		rec.Kind = KindRelease
		rec.Release = &ReleaseRec{Seq: ev.ReleaseSeq}
	case core.EventFail:
		rec.Kind = KindFail
		rec.Fail = &FailRec{Kind: ev.Fail.Kind, Target: ev.Fail.Target, Evicted: ev.Fail.Evicted}
		for _, r := range ev.Fail.Repairs {
			rr := RepairRec{OldSeq: r.OldSeq, Outcome: r.Outcome.String()}
			if r.M != nil {
				env := spec.FromEnv(r.M.Env)
				m := spec.FromMapping(r.M, overhead)
				rr.NewSeq, rr.Tag, rr.Env, rr.M = r.NewSeq, r.Tag, &env, &m
			}
			rec.Fail.Repairs = append(rec.Fail.Repairs, rr)
		}
	case core.EventRestore:
		rec.Kind = KindRestore
		rec.Restore = &RestoreRec{Kind: ev.Restore.Kind, Target: ev.Restore.Target}
	case core.EventMigrate:
		rec.Kind = KindMigrate
		mr := &MigrateRec{
			Moves: make([]MoveRec, 0, len(ev.Migrate.Moves)),
			Envs:  make([]MigrateEnvRec, 0, len(ev.Migrate.Envs)),
		}
		for _, mv := range ev.Migrate.Moves {
			mr.Moves = append(mr.Moves, MoveRec{Seq: mv.Seq, Guest: int(mv.Guest), From: int(mv.From), To: int(mv.To)})
		}
		for _, e := range ev.Migrate.Envs {
			mr.Envs = append(mr.Envs, MigrateEnvRec{Seq: e.Seq, Tag: e.Tag, M: spec.FromMapping(e.M, overhead)})
		}
		rec.Migrate = mr
	case core.EventClose:
		rec.Kind = KindClose
	}
	return rec
}

func admitRec(a core.AdmitInfo, overhead cluster.VMMOverhead) *AdmitRec {
	return &AdmitRec{
		Seq: a.Seq,
		Tag: a.Tag,
		Env: spec.FromEnv(a.Env),
		M:   spec.FromMapping(a.M, overhead),
	}
}

// ExportSession captures one session for a snapshot. clusterSpec,
// mapperName and nextEnv are the server-side facts the session does not
// know about itself.
func ExportSession(sid string, clusterSpec spec.ClusterSpec, mapperName string, overhead cluster.VMMOverhead, nextEnv uint64, cs *core.Session) SessionSnap {
	exp := cs.Export()
	sn := SessionSnap{
		SID:     sid,
		Cluster: clusterSpec,
		Mapper:  mapperName,
		Proc:    overhead.Proc,
		Mem:     overhead.Mem,
		Stor:    overhead.Stor,
		NextEnv: nextEnv,
		NextSeq: exp.NextSeq,
		OpCount: exp.OpCount,
		Ledger:  exp.Ledger,
	}
	for _, a := range exp.Active {
		sn.Active = append(sn.Active, ActiveRec{
			Seq: a.Seq,
			Tag: a.Tag,
			Env: spec.FromEnv(a.M.Env),
			M:   spec.FromMapping(a.M, overhead),
		})
	}
	return sn
}

// RestoreSnap rebuilds a session from its snapshot entry as
// encoding/json decoded it: the form a declined snapshot file and
// Replay restore from.
func RestoreSnap(sn SessionSnap) (*core.Session, *cluster.Cluster, error) {
	r := sessionRestore{sn: sn}
	if err := r.begin(); err != nil {
		return nil, nil, err
	}
	for i := range sn.Active {
		if err := r.add((*AdmitRec)(&sn.Active[i])); err != nil {
			return nil, nil, err
		}
	}
	cs, err := r.finish()
	if err != nil {
		return nil, nil, err
	}
	return cs, r.c, nil
}

// sessionRestore rebuilds one session from its snapshot entry in three
// steps: begin, from the entry's configuration; add, once per active
// environment, in file order; finish. The snapshot scanner feeds it each
// environment as it reads it, RestoreSnap those encoding/json decoded,
// and both convert them by decodeAdmit, as a log admit record is.
type sessionRestore struct {
	// sn is the entry; its Active is not read.
	sn       SessionSnap
	c        *cluster.Cluster
	overhead cluster.VMMOverhead
	mapper   core.Mapper
	active   []core.ActiveExport
}

func (r *sessionRestore) begin() error {
	c, err := r.sn.Cluster.ToCluster()
	if err != nil {
		return fmt.Errorf("wal: session %s snapshot cluster: %w", r.sn.SID, err)
	}
	r.overhead = cluster.VMMOverhead{Proc: r.sn.Proc, Mem: r.sn.Mem, Stor: r.sn.Stor}
	if r.mapper, err = core.MapperByName(r.sn.Mapper, r.overhead); err != nil {
		return fmt.Errorf("wal: session %s snapshot: %w", r.sn.SID, err)
	}
	r.c = c
	return nil
}

func (r *sessionRestore) add(a *AdmitRec) error {
	_, m, err := decodeAdmit(r.c, a)
	if err != nil {
		return fmt.Errorf("wal: session %s snapshot seq %d: %w", r.sn.SID, a.Seq, err)
	}
	r.active = append(r.active, core.ActiveExport{Seq: a.Seq, Tag: a.Tag, M: m})
	return nil
}

// finish restores the session, beginning it first when no environment
// was added.
func (r *sessionRestore) finish() (*core.Session, error) {
	if r.c == nil {
		if err := r.begin(); err != nil {
			return nil, err
		}
	}
	cs, err := core.RestoreSession(r.c, r.overhead, r.mapper, core.SessionExport{
		Ledger:  r.sn.Ledger,
		Active:  r.active,
		NextSeq: r.sn.NextSeq,
		OpCount: r.sn.OpCount,
	})
	if err != nil {
		return nil, fmt.Errorf("wal: session %s: %w", r.sn.SID, err)
	}
	return cs, nil
}

// OpenSession rebuilds a fresh session from an open record (for
// sessions born after the last snapshot).
func OpenSession(rec *Record) (*core.Session, *cluster.Cluster, error) {
	if rec.Open == nil {
		return nil, nil, fmt.Errorf("wal: open record for %s has no body", rec.SID)
	}
	c, err := rec.Open.Cluster.ToCluster()
	if err != nil {
		return nil, nil, fmt.Errorf("wal: session %s open record cluster: %w", rec.SID, err)
	}
	overhead := cluster.VMMOverhead{Proc: rec.Open.Proc, Mem: rec.Open.Mem, Stor: rec.Open.Stor}
	mapper, err := core.MapperByName(rec.Open.Mapper, overhead)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: session %s open record: %w", rec.SID, err)
	}
	cs, err := core.NewSession(c, overhead, mapper)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: session %s: %w", rec.SID, err)
	}
	return cs, c, nil
}

// ReplayRecord re-applies one operation record against its session.
// Replay is the recovery loop around it: open/close records create and
// retire sessions there, and records whose Index is at or below the
// session's snapshot OpCount never reach this function.
func ReplayRecord(cs *core.Session, rec *Record) error {
	c := cs.Cluster()
	if !rec.hasBody() {
		return fmt.Errorf("wal: session %s %s record has no body", rec.SID, rec.Kind)
	}
	switch rec.Kind {
	case KindAdmit:
		env, m, err := decodeAdmit(c, rec.Admit)
		if err != nil {
			return fmt.Errorf("wal: session %s admit seq %d: %w", rec.SID, rec.Admit.Seq, err)
		}
		return cs.ReplayAdmit(env, m, rec.Admit.Tag, rec.Admit.Seq)
	case KindBatch:
		admits := make([]core.AdmitInfo, 0, len(rec.Batch))
		for i := range rec.Batch {
			a := &rec.Batch[i]
			env, m, err := decodeAdmit(c, a)
			if err != nil {
				return fmt.Errorf("wal: session %s batch seq %d: %w", rec.SID, a.Seq, err)
			}
			admits = append(admits, core.AdmitInfo{Seq: a.Seq, Tag: a.Tag, Env: env, M: m})
		}
		return cs.ReplayBatch(admits)
	case KindRelease:
		return cs.ReplayRelease(rec.Release.Seq)
	case KindFail:
		repairs := make([]core.ReplayRepair, 0, len(rec.Fail.Repairs))
		for _, rr := range rec.Fail.Repairs {
			rep := core.ReplayRepair{OldSeq: rr.OldSeq, NewSeq: rr.NewSeq, Tag: rr.Tag}
			if rr.M != nil {
				env, err := rr.Env.ToEnv()
				if err != nil {
					return fmt.Errorf("wal: session %s repair of seq %d: %w", rec.SID, rr.OldSeq, err)
				}
				m, err := rr.M.ToMapping(c, env)
				if err != nil {
					return fmt.Errorf("wal: session %s repair of seq %d: %w", rec.SID, rr.OldSeq, err)
				}
				rep.Env, rep.M = env, m
			}
			repairs = append(repairs, rep)
		}
		return cs.ReplayFail(rec.Fail.Kind, rec.Fail.Target, rec.Fail.Evicted, repairs)
	case KindRestore:
		return cs.ReplayRestore(rec.Restore.Kind, rec.Restore.Target)
	case KindMigrate:
		moves := make([]core.GuestMove, 0, len(rec.Migrate.Moves))
		for _, mv := range rec.Migrate.Moves {
			moves = append(moves, core.GuestMove{
				Seq:   mv.Seq,
				Guest: virtual.GuestID(mv.Guest),
				From:  graph.NodeID(mv.From),
				To:    graph.NodeID(mv.To),
			})
		}
		envs := make([]core.ReplayMigrateEnv, 0, len(rec.Migrate.Envs))
		for _, er := range rec.Migrate.Envs {
			// A migrate never changes the environment, so the record does
			// not re-serialize it: the replacement mapping decodes against
			// the env of the active mapping it replaces.
			old := cs.MappingBySeq(er.Seq)
			if old == nil {
				return fmt.Errorf("wal: session %s migrate of seq %d, which is not active: %w",
					rec.SID, er.Seq, core.ErrReplayDiverged)
			}
			m, err := er.M.ToMapping(c, old.Env)
			if err != nil {
				return fmt.Errorf("wal: session %s migrate of seq %d: %w", rec.SID, er.Seq, err)
			}
			envs = append(envs, core.ReplayMigrateEnv{Seq: er.Seq, Tag: er.Tag, M: m})
		}
		return cs.ReplayMigrate(moves, envs)
	default:
		return fmt.Errorf("wal: session %s: unknown record kind %q", rec.SID, rec.Kind)
	}
}

// hasBody reports whether an operation record carries the body its kind
// is replayed from. A CRC-valid record may still lack it: the checksum
// guards torn writes, not what was written.
func (rec *Record) hasBody() bool {
	switch rec.Kind {
	case KindAdmit:
		return rec.Admit != nil
	case KindRelease:
		return rec.Release != nil
	case KindFail:
		if rec.Fail == nil {
			return false
		}
		for _, rr := range rec.Fail.Repairs {
			if rr.M != nil && rr.Env == nil {
				return false
			}
		}
	case KindRestore:
		return rec.Restore != nil
	case KindMigrate:
		return rec.Migrate != nil
	}
	return true
}

// EachTag calls fn with every caller tag an operation record introduces
// (admit, batch and fail-repair records; the other kinds name no tag
// the session has not seen), so recovery can advance its ID counters
// past them.
func (rec *Record) EachTag(fn func(tag string)) {
	switch rec.Kind {
	case KindAdmit:
		fn(rec.Admit.Tag)
	case KindBatch:
		for i := range rec.Batch {
			fn(rec.Batch[i].Tag)
		}
	case KindFail:
		for _, rr := range rec.Fail.Repairs {
			fn(rr.Tag)
		}
	}
}

// objectiveTolerance is the acceptable gap between a recovered
// session's incremental Eq. (10) objective and a two-pass recompute
// from its residual vector — the same band the core property tests use.
// The residual vectors themselves are compared bit-exactly by the WAL
// tests; the objective accumulators are rebuilt on restore (see
// cluster.LedgerState) and may differ in the last few ulps.
const objectiveTolerance = 1e-9

// varianceUlps is the same last-few-ulps band on the variance, in units
// of the mean square's last place. Near a perfect balance σ is the
// square root of a difference of two nearly equal sums, so one ulp of
// Σx² — 4.7e-10 on four 2000-MIPS hosts — reads as 2e-5 in σ, far past
// objectiveTolerance on a ledger that is exactly right.
const varianceUlps = 16

// VerifyObjective cross-checks a recovered session before it serves:
// the incremental objective must match a two-pass recompute, as σ
// within objectiveTolerance or as σ² within varianceUlps.
func VerifyObjective(cs *core.Session) error {
	res := cs.ResidualProc()
	inc, re := cs.ObjectiveStdDev(), mapping.Objective(res)
	if diff := inc - re; diff <= objectiveTolerance && diff >= -objectiveTolerance {
		return nil
	}
	var sq float64
	for _, x := range res {
		sq += float64(x * x)
	}
	band := varianceUlps * 0x1p-52 * sq / float64(len(res))
	if diff := float64(inc*inc) - float64(re*re); diff <= band && diff >= -band {
		return nil
	}
	return fmt.Errorf("recovered objective %.17g diverges from recomputed %.17g", inc, re)
}

// EnvOrdinal parses hmnd's environment IDs ("e7" → 7).
func EnvOrdinal(eid string) (int, bool) { return ordinal(eid, 'e') }

// SessionOrdinal parses hmnd's session IDs ("s3" → 3).
func SessionOrdinal(sid string) (int, bool) { return ordinal(sid, 's') }

func ordinal(id string, prefix byte) (int, bool) {
	if id == "" || id[0] != prefix {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func decodeAdmit(c *cluster.Cluster, a *AdmitRec) (*virtual.Env, *mapping.Mapping, error) {
	env, err := a.Env.ToEnv()
	if err != nil {
		return nil, nil, err
	}
	m, err := a.M.ToMapping(c, env)
	if err != nil {
		return nil, nil, err
	}
	return env, m, nil
}

package wal

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/spec"
)

// Replayed is one session that survived Replay, with the facts its
// snapshot entry or open record carried about it.
type Replayed struct {
	SID         string
	Session     *core.Session
	Cluster     *cluster.Cluster
	ClusterSpec spec.ClusterSpec
	Mapper      string
	Overhead    cluster.VMMOverhead
	// NextEnv is the environment-ID counter of the session's snapshot
	// entry; zero for a session opened after the snapshot.
	NextEnv uint64

	// pending lists the admissions a one-pass replay has committed as
	// effects and not built, in seq order: the order they are admitted in.
	pending []*pending
	// eager is set by the session's first fail or migrate record: its
	// later admissions are built as they are replayed.
	eager bool
}

// pending is one admission committed as its effect: its seq, the numbers
// it committed, and where its frame is, to build it from if it survives.
type pending struct {
	seq    uint64
	effect mapping.Effect
	seg    uint64
	off    int64
}

// pendingAt returns the index of the pending admission seq, or -1.
func (rs *Replayed) pendingAt(seq uint64) int {
	i := sort.Search(len(rs.pending), func(i int) bool { return rs.pending[i].seq >= seq })
	if i < len(rs.pending) && rs.pending[i].seq == seq {
		return i
	}
	return -1
}

// replayer is the recovery state machine: the snapshotted sessions
// restored at their own operation boundaries, then the log suffix
// applied one record at a time, in append order. Operation records at or
// below the owning session's boundary were already applied by the
// snapshot and are skipped; an open record for a live session is an
// idempotent no-op; a close record retires the session. A session the
// snapshot counted (its ordinal at or below the snapshot's MaxSession)
// but does not hold had closed by the export, and its records are
// skipped too: a snapshot exports each session after the cut, so one
// that closed in between may have committed records past the cut that
// the snapshot already says how they ended.
//
// Fed by a one-pass recovery (pass set), it replays an admission as its
// effect: the numbers the record holds are committed to the session's
// ledger, the frame's position is kept, and the Env and the Mapping are
// built — by reading the frame again — only if the admission is still
// deployed at the end of the pass or a fail or migrate record is about to
// read the session's deployments. A release of a pending admission undoes
// its effect. From a session's first fail or migrate record on, its
// admissions are built as they come, so a log that fails hosts often
// does not read each admission twice.
type replayer struct {
	live     map[string]*Replayed
	boundary map[string]uint64
	// closedBelow is the snapshot's MaxSession, -1 without a snapshot: a
	// session at or below it that is not live had closed by the
	// snapshot's export.
	closedBelow int
	// maxSession is the highest session ordinal the directory has ever
	// named — snapshotted, opened or closed — so a restarted daemon never
	// reuses a session ID: a reused ID would alias the retired session's
	// snapshot boundary at the next recovery and silently swallow the new
	// session's low-index records.
	maxSession int
	// seen counts the records applied so far, across segments.
	seen int
	// onRecord, when non-nil, is called after each operation record
	// actually re-applied.
	onRecord func(*Replayed, *Record)

	// pass is the one-pass recovery feeding the replayer, nil for Replay;
	// frames reads its frames back, and free recycles the effects of
	// released admissions.
	pass   *logPass
	frames frameAt
	free   []*pending
	// effects counts the admissions replayed as effects alone, built the
	// admissions built as an Env and a Mapping.
	effects, built int
}

func newReplayer(snap *Snapshot, onRecord func(*Replayed, *Record)) (*replayer, error) {
	rp := &replayer{live: make(map[string]*Replayed), boundary: make(map[string]uint64), closedBelow: -1, onRecord: onRecord}
	if snap == nil {
		return rp, nil
	}
	rp.maxSession, rp.closedBelow = snap.MaxSession, snap.MaxSession
	for _, sn := range snap.Sessions {
		cs, c, err := RestoreSnap(sn)
		if err != nil {
			return nil, err
		}
		rp.live[sn.SID] = &Replayed{
			SID: sn.SID, Session: cs, Cluster: c, ClusterSpec: sn.Cluster, Mapper: sn.Mapper,
			Overhead: cluster.VMMOverhead{Proc: sn.Proc, Mem: sn.Mem, Stor: sn.Stor},
			NextEnv:  sn.NextEnv,
		}
		rp.boundary[sn.SID] = sn.OpCount
		rp.noteSID(sn.SID)
	}
	return rp, nil
}

func (rp *replayer) noteSID(sid string) {
	if n, ok := SessionOrdinal(sid); ok && n > rp.maxSession {
		rp.maxSession = n
	}
}

// apply replays one record. It keeps nothing of r: ReplayRecord copies
// what the session holds on to (ToEnv, ToMapping), and the strings of a
// record are never shared with the buffer it was decoded from — so r may
// be a decoder's reused storage.
func (rp *replayer) apply(r *Record) error {
	i := rp.seen
	rp.seen++
	rp.noteSID(r.SID)
	switch r.Kind {
	case KindOpen:
		if rp.live[r.SID] != nil {
			return nil
		}
		cs, c, err := OpenSession(r)
		if err != nil {
			return err
		}
		rp.live[r.SID] = &Replayed{
			SID: r.SID, Session: cs, Cluster: c, ClusterSpec: r.Open.Cluster, Mapper: r.Open.Mapper,
			Overhead: cluster.VMMOverhead{Proc: r.Open.Proc, Mem: r.Open.Mem, Stor: r.Open.Stor},
		}
	case KindClose:
		// The boundary entry must die with the session: a later open
		// record for the same SID starts a fresh session at index 0,
		// and a stale boundary would skip its records as if the old
		// snapshot had covered them.
		if rs := rp.live[r.SID]; rs != nil {
			rp.effects += len(rs.pending)
			rp.free = append(rp.free, rs.pending...)
		}
		delete(rp.live, r.SID)
		delete(rp.boundary, r.SID)
	default:
		rs := rp.live[r.SID]
		if rs == nil {
			if n, ok := SessionOrdinal(r.SID); ok && n <= rp.closedBelow {
				return nil
			}
			return fmt.Errorf("wal: record %d (%s) names unknown session %s", i, r.Kind, r.SID)
		}
		if r.Index <= rp.boundary[r.SID] {
			return nil
		}
		if err := rp.replay(rs, r); err != nil {
			return err
		}
		if rp.onRecord != nil {
			rp.onRecord(rs, r)
		}
	}
	return nil
}

// replay applies one operation record to its session: as an effect where
// the pass allows it, through ReplayRecord otherwise.
func (rp *replayer) replay(rs *Replayed, r *Record) error {
	switch r.Kind {
	case KindAdmit:
		if rp.pass != nil && !rs.eager && r.Admit != nil {
			return rp.admitEffect(rs, r)
		}
		rp.built++
	case KindBatch:
		rp.built += len(r.Batch)
	case KindRelease:
		if r.Release == nil {
			break
		}
		if i := rs.pendingAt(r.Release.Seq); i >= 0 {
			rs.Session.ReplayReleaseEffect(&rs.pending[i].effect)
			rp.free = append(rp.free, rs.pending[i])
			rs.pending = slices.Delete(rs.pending, i, i+1)
			rp.effects++
			return nil
		}
	case KindFail, KindMigrate:
		// Both read the session's deployments.
		if err := rp.materialise(rs); err != nil {
			return err
		}
		rs.eager = true
		if r.Fail != nil {
			for _, rr := range r.Fail.Repairs {
				if rr.M != nil {
					rp.built++
				}
			}
		}
	}
	return ReplayRecord(rs.Session, r)
}

// admitEffect commits an admit record as its effect and keeps the
// admission pending. The record is validated exactly as building it
// would validate it, and refused with the same error.
func (rp *replayer) admitEffect(rs *Replayed, r *Record) error {
	a := r.Admit
	var pa *pending
	if n := len(rp.free); n > 0 {
		pa, rp.free = rp.free[n-1], rp.free[:n-1]
	} else {
		pa = new(pending)
	}
	if err := spec.Effect(rs.Cluster, &a.Env, &a.M, &pa.effect); err != nil {
		rp.free = append(rp.free, pa)
		return fmt.Errorf("wal: session %s admit seq %d: %w", r.SID, a.Seq, err)
	}
	if err := rs.Session.ReplayAdmitEffect(&pa.effect, a.Seq); err != nil {
		rp.free = append(rp.free, pa)
		return err
	}
	pa.seq, pa.seg, pa.off = a.Seq, rp.pass.seg, rp.pass.at
	rs.pending = append(rs.pending, pa)
	return nil
}

// materialise builds the session's pending admissions, in seq order,
// from their frames: the Env and the Mapping they would have been built
// as had they not been replayed as effects, adopted by the session under
// their seqs and tags.
func (rp *replayer) materialise(rs *Replayed) error {
	for _, pa := range rs.pending {
		seq := pa.seq
		r, err := rp.frames.read(pa.seg, pa.off)
		if err != nil {
			return err
		}
		if r.Kind != KindAdmit || r.SID != rs.SID || r.Admit == nil || r.Admit.Seq != seq {
			return fmt.Errorf("wal: session %s admit seq %d: frame at offset %d of %s reads back as another record: %w",
				rs.SID, seq, pa.off, segName(pa.seg), core.ErrReplayDiverged)
		}
		_, m, err := decodeAdmit(rs.Cluster, r.Admit)
		if err != nil {
			return fmt.Errorf("wal: session %s admit seq %d: %w", rs.SID, seq, err)
		}
		if err := rs.Session.ReplayAdoptEffect(m, r.Admit.Tag, seq, &pa.effect); err != nil {
			return err
		}
		rp.built++
	}
	rp.free = append(rp.free, rs.pending...)
	rs.pending = rs.pending[:0]
	return nil
}

// sessions lists the surviving sessions in SID order.
func (rp *replayer) sessions() []*Replayed {
	out := make([]*Replayed, 0, len(rp.live))
	for _, rs := range rp.live {
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SID < out[j].SID })
	return out
}

// Replay rebuilds the sessions of a materialised Recovered: the
// replayer over rec.Records. onRecord, when non-nil, is called after each
// operation record actually re-applied. The surviving sessions come back
// in SID order, with the highest session ordinal the directory has ever
// named.
func Replay(rec *Recovered, onRecord func(*Replayed, *Record)) (sessions []*Replayed, maxSession int, err error) {
	rp, err := newReplayer(rec.Snapshot, onRecord)
	if err != nil {
		return nil, 0, err
	}
	for i := range rec.Records {
		if err := rp.apply(&rec.Records[i]); err != nil {
			return nil, 0, err
		}
	}
	return rp.sessions(), rp.maxSession, nil
}

// Recovery is what a one-pass recovery rebuilt and what it read to do
// so.
type Recovery struct {
	// Sessions are the surviving sessions, in SID order.
	Sessions []*Replayed
	// MaxSession is the highest session ordinal the directory has ever
	// named.
	MaxSession int
	// Records and Bytes count the log records read — replayed or skipped
	// as covered by the snapshot — and the frames they occupy.
	Records int
	Bytes   int64
	// TruncatedBytes is the torn tail, as in Recovered.
	TruncatedBytes int64
	// Effects counts the log's admissions replayed as effects alone:
	// committed as numbers, then undone by their release record or dropped
	// with their closed session, never built. Built counts those built as
	// an Env and a Mapping: the ones still deployed when the pass ended or
	// when a fail or migrate record of their session came, and every one
	// replayed after its session's first fail or migrate record.
	Effects, Built int
	// SnapshotBytes is the size of the snapshot the pass started from and
	// SnapshotTime what loading and restoring it took, apart from the log.
	SnapshotBytes int64
	SnapshotTime  time.Duration
}

// replay runs p as the one pass of recovery: every record of segs is
// decoded into one reused Record, applied to the replayer and forgotten,
// so the pass holds the largest record and the live sessions, never the
// log. A record that diverges, names an unknown session or fails to
// decode aborts the pass with nothing published.
func (p *logPass) replay(snap *Snapshot, segs []uint64, onRecord func(*Replayed, *Record)) (*Recovery, error) {
	start := time.Now() //hmn:wallclock
	rp, err := newReplayer(snap, onRecord)
	if err != nil {
		return nil, err
	}
	restored := time.Since(start) //hmn:wallclock
	rp.pass, rp.frames.dir = p, p.dir
	defer rp.frames.close()
	p.reuse, p.fn = true, rp.apply
	if snap != nil {
		p.fromSeg = snap.FirstSeg
	}
	if err := p.run(segs); err != nil {
		return nil, err
	}
	sessions := rp.sessions()
	for _, rs := range sessions {
		if err := rp.materialise(rs); err != nil {
			return nil, err
		}
	}
	res := &Recovery{
		Sessions: sessions, MaxSession: rp.maxSession,
		Records: rp.seen, Bytes: p.bytes, TruncatedBytes: p.truncated,
		Effects: rp.effects, Built: rp.built,
	}
	if snap != nil {
		res.SnapshotBytes, res.SnapshotTime = snap.size, snap.took+restored
	}
	return res, nil
}

package wal

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
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
// the snapshot already says how they ended. Every operation record it
// applies goes through ReplayRecord, whether Replay or a one-pass
// recovery feeds it.
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
		if err := ReplayRecord(rs.Session, r); err != nil {
			return err
		}
		if rp.onRecord != nil {
			rp.onRecord(rs, r)
		}
	}
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

// Replay rebuilds the sessions of a Recovered held in memory: the
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
	start := time.Now()
	rp, err := newReplayer(snap, onRecord)
	if err != nil {
		return nil, err
	}
	restored := time.Since(start)
	p.reuse, p.fn = true, rp.apply
	if snap != nil {
		p.fromSeg = snap.FirstSeg
	}
	if err := p.run(segs); err != nil {
		return nil, err
	}
	res := &Recovery{
		Sessions: rp.sessions(), MaxSession: rp.maxSession,
		Records: rp.seen, Bytes: p.bytes, TruncatedBytes: p.truncated,
	}
	if snap != nil {
		res.SnapshotBytes, res.SnapshotTime = snap.size, snap.took+restored
	}
	return res, nil
}

package wal

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jsonx"
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
// snapshot and are skipped, and each one past it must carry the
// session's next operation index; an open record for a live session is an
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

func newReplayer(onRecord func(*Replayed, *Record)) *replayer {
	return &replayer{live: make(map[string]*Replayed), boundary: make(map[string]uint64), closedBelow: -1, onRecord: onRecord}
}

// restore rebuilds the sessions of dir's snapshot into rp, which holds
// nothing yet, and returns the snapshot's position and size: zero
// without one. The scanner restores the file as it reads it, each active
// environment decoded into d, the storage the log pass then reads the
// records into; a file it declines is decoded by encoding/json and
// restored from that value, whose entries convert the same way.
func (rp *replayer) restore(dir string, d *decoder) (firstSeg uint64, size int64, err error) {
	buf, found, err := readSnapshot(dir)
	if !found || err != nil {
		return 0, 0, err
	}
	var s jsonx.Scanner
	s.Reset(buf)
	if firstSeg, ok := rp.scanSnapshot(&s, d); ok {
		return firstSeg, int64(len(buf)), nil
	}
	snap, err := unmarshalSnapshot(buf)
	if err != nil {
		return 0, 0, err
	}
	*rp = *newReplayer(rp.onRecord)
	if err := rp.restoreValues(snap); err != nil {
		return 0, 0, err
	}
	return snap.FirstSeg, snap.size, nil
}

// restoreValues rebuilds the sessions of a decoded snapshot into rp,
// which holds nothing yet.
func (rp *replayer) restoreValues(snap *Snapshot) error {
	rp.maxSession, rp.closedBelow = snap.MaxSession, snap.MaxSession
	for i := range snap.Sessions {
		sn := &snap.Sessions[i]
		cs, c, err := RestoreSnap(*sn)
		if err != nil {
			return err
		}
		rp.add(sn, cs, c)
	}
	return nil
}

// add makes cs, restored from sn onto c, a live session at sn's
// operation boundary.
func (rp *replayer) add(sn *SessionSnap, cs *core.Session, c *cluster.Cluster) {
	rp.live[sn.SID] = &Replayed{
		SID: sn.SID, Session: cs, Cluster: c, ClusterSpec: sn.Cluster, Mapper: sn.Mapper,
		Overhead: cluster.VMMOverhead{Proc: sn.Proc, Mem: sn.Mem, Stor: sn.Stor},
		NextEnv:  sn.NextEnv,
	}
	rp.boundary[sn.SID] = sn.OpCount
	rp.noteSID(sn.SID)
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
		// Past the boundary the log is the session's every operation, one
		// index after the other: a record that skips one follows a hole —
		// a lost segment, say — and applying it would undo what the lost
		// records did.
		if next := rs.Session.OpCount() + 1; r.Index != next {
			return fmt.Errorf("wal: record %d (%s) of session %s has operation index %d, the session's next is %d: %w",
				i, r.Kind, r.SID, r.Index, next, core.ErrReplayDiverged)
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
	rp := newReplayer(onRecord)
	if rec.Snapshot != nil {
		if err := rp.restoreValues(rec.Snapshot); err != nil {
			return nil, 0, err
		}
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

// replay runs p as the one pass of recovery: the snapshot is restored,
// its environments decoded into the decoder the pass then decodes every
// log record into; the log is followed by number from the snapshot's
// position, and each record is applied to the replayer and forgotten,
// so the pass holds the largest record and the live sessions, never the
// log. A record that diverges, names an unknown session or fails to
// decode aborts the pass with nothing published. It returns the number
// of the first segment past the log, where the log resumes.
func (p *logPass) replay(onRecord func(*Replayed, *Record)) (*Recovery, uint64, error) {
	start := time.Now()
	rp := newReplayer(onRecord)
	p.dec, p.reuse, p.fn = new(decoder), true, rp.apply
	firstSeg, size, err := rp.restore(p.dir, p.dec)
	if err != nil {
		return nil, 0, err
	}
	restored := time.Since(start)
	next, err := p.follow(max(firstSeg, 1))
	if err != nil {
		return nil, 0, err
	}
	res := &Recovery{
		Sessions: rp.sessions(), MaxSession: rp.maxSession,
		Records: rp.seen, Bytes: p.bytes, TruncatedBytes: p.truncated,
		SnapshotBytes: size,
	}
	if size > 0 {
		res.SnapshotTime = restored
	}
	return res, next, nil
}

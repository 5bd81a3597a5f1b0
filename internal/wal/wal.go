package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// WAL is the open write-ahead log of one data directory. It is safe for
// concurrent use: appends serialize internally, barriers share fsyncs
// (group commit), and snapshots take their cut so no record is lost
// between a snapshot and the log it resumes.
type WAL struct {
	dir   string
	hooks Hooks
	log   *log

	// limit is the log growth past the last snapshot's position that
	// makes a checkpoint due (checkpointLimit of that snapshot's size).
	limit atomic.Int64
	// snapMu serializes snapshots, checkpoints and shutdown ones alike;
	// buf is the encoding buffer they share.
	snapMu sync.Mutex
	buf    []byte //hmn:guardedby snapMu
}

// A checkpoint is due once the log has grown past the last snapshot's
// position by checkpointRatio times the larger of that snapshot's size
// and checkpointFloor (the rule of Raft §7). So writing snapshots costs
// at most 1/checkpointRatio of what writing the log does, and a recovery
// reads at most checkpointRatio times the live state's size of log, plus
// the records of the one operation that made the checkpoint due.
const (
	checkpointRatio = 2
	checkpointFloor = 64 << 10
)

func checkpointLimit(snapshotSize int64) int64 {
	return checkpointRatio * max(snapshotSize, checkpointFloor)
}

// Recovered is what Open found on disk: the latest snapshot (nil before
// the first one lands) and every log record, in append order — the
// ones before the snapshot's position too, which replay onto it as
// already applied. TruncatedBytes reports a torn tail Open dropped; the
// caller should surface it as a warning (the bytes were never
// acknowledged — see the ack-after-log guarantee — but an operator
// should know a crash tore a write).
type Recovered struct {
	Snapshot       *Snapshot
	Records        []Record
	TruncatedBytes int64
}

// load reads the directory's snapshot and lists its segments. With
// repair set — recovery, not inspection — it first creates the
// directory and removes a snapshot temp file a crash left. It never
// deletes a segment: those before the snapshot's position are the log
// every snapshot keeps until Compact deletes them, and recovery skips
// them.
func load(dir string, repair bool) (*Snapshot, []uint64, error) {
	if repair {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("wal: create data dir: %w", err)
		}
		// A crash during snapshot writing can leave the tmp file; it was
		// never published, so it is garbage.
		if err := os.Remove(filepath.Join(dir, snapshotTmp)); err != nil && !os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("wal: remove stale snapshot tmp: %w", err)
		}
	}
	snap, err := loadSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	return snap, segs, nil
}

// resume opens the log for appending, on a fresh segment numbered after
// everything on disk (and after the snapshot boundary, when the
// directory holds only a snapshot), so recovery artifacts are never
// mixed with new records mid-segment. grown is the log recovery read
// past the snapshot's position, and maxSession the highest session
// ordinal it found: the growth count and the high-water mark go on
// from them.
func resume(dir string, hooks Hooks, snap *Snapshot, segs []uint64, grown int64, maxSession int) (*WAL, error) {
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	} else if snap != nil && snap.FirstSeg > next {
		next = snap.FirstSeg
	}
	l := &log{dir: dir, hooks: hooks, maxSession: maxSession}
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	l.grown.Store(grown)
	w := &WAL{dir: dir, hooks: hooks, log: l}
	var size int64
	if snap != nil {
		size = snap.size
	}
	w.limit.Store(checkpointLimit(size))
	return w, nil
}

// collect reads the whole log into a Recovered: the form of the pass that
// keeps every record, for callers that want the records themselves.
func collect(dir string, hooks Hooks, snap *Snapshot, segs []uint64, repair bool) (*Recovered, error) {
	rec := &Recovered{Snapshot: snap}
	p := logPass{dir: dir, hooks: hooks, repair: repair, fn: func(r *Record) error {
		rec.Records = append(rec.Records, *r)
		return nil
	}}
	if err := p.run(segs); err != nil {
		return nil, err
	}
	rec.TruncatedBytes = p.truncated
	return rec, nil
}

// Open opens (or initializes) the data directory and reads its contents
// into memory; the returned WAL appends to a fresh segment. A daemon
// recovers through Recover, which never holds the log.
func Open(dir string, hooks Hooks) (*WAL, *Recovered, error) {
	snap, segs, err := load(dir, true)
	if err != nil {
		return nil, nil, err
	}
	rec, err := collect(dir, hooks, snap, segs, true)
	if err != nil {
		return nil, nil, err
	}
	maxSession := 0
	if snap != nil {
		maxSession = snap.MaxSession
	}
	for i := range rec.Records {
		if n, ok := SessionOrdinal(rec.Records[i].SID); ok {
			maxSession = max(maxSession, n)
		}
	}
	w, err := resume(dir, hooks, snap, segs, 0, maxSession)
	if err != nil {
		return nil, nil, err
	}
	return w, rec, nil
}

// Recover opens (or initializes) the data directory and rebuilds its
// sessions in one pass: the snapshot is restored, and each log record
// from the snapshot's position on is decoded, replayed and forgotten as
// it is read, a torn tail truncated on the way. onRecord, when non-nil,
// is called after each operation record actually re-applied; its record
// is valid only until it returns. On any error — a corrupt sealed
// segment, a record that diverges — nothing is returned and no segment
// is created.
func Recover(dir string, hooks Hooks, onRecord func(*Replayed, *Record)) (*WAL, *Recovery, error) {
	snap, segs, err := load(dir, true)
	if err != nil {
		return nil, nil, err
	}
	p := logPass{dir: dir, hooks: hooks, repair: true}
	res, err := p.replay(snap, segs, onRecord)
	if err != nil {
		return nil, nil, err
	}
	w, err := resume(dir, hooks, snap, segs, res.Bytes, res.MaxSession)
	if err != nil {
		return nil, nil, err
	}
	return w, res, nil
}

// Append buffers rec into the log. The record becomes durable at the
// next Barrier; mutating HTTP handlers append inside the commit hook
// and call Barrier before writing their response (ack-after-log).
func (w *WAL) Append(rec *Record) error { return w.log.append(rec) }

// Barrier makes every record appended before the call durable, sharing
// fsyncs between concurrent callers.
func (w *WAL) Barrier() error { return w.log.barrier() }

// Snapshot takes a snapshot now and deletes nothing, whether or not
// one is due: the checkpoint a daemon takes at shutdown, so the next
// start reads no log. export must not append to the WAL on the calling
// goroutine (other goroutines may, freely).
func (w *WAL) Snapshot(export func() ([]SessionSnap, error)) error {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	return w.snapshot(export)
}

// CheckpointDue reports whether the log has grown past the checkpoint
// limit since the last snapshot's position. It costs two atomic loads,
// for callers that must prepare before Checkpoint.
func (w *WAL) CheckpointDue() bool { return w.log.grown.Load() > w.limit.Load() }

// Checkpoint takes a snapshot if one is due, and deletes nothing: the
// directory keeps the whole log, and a recovery reads only the segments
// from the snapshot's position on. The daemon calls it on the ack path
// of the operation whose append made it due, before the ack.
func (w *WAL) Checkpoint(export func() ([]SessionSnap, error)) error {
	if !w.CheckpointDue() {
		return nil
	}
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	if !w.CheckpointDue() {
		return nil
	}
	return w.snapshot(export)
}

// snapshot is the one way a snapshot is taken. It rotates to a fresh
// segment (flush and fsync the active one, open the next, fsync the
// directory); calls export to capture the state — after the rotation, so
// every record in the sealed segments is covered by the exported
// operation indices; and publishes the snapshot atomically at offset 0
// of the fresh segment. It deletes nothing: the segments before it stay
// until an operator runs Compact. The next checkpoint falls due once the
// log has grown by checkpointLimit of the snapshot's size. The caller
// holds snapMu.
//
//hmn:locked snapMu
func (w *WAL) snapshot(export func() ([]SessionSnap, error)) error {
	start := time.Now()
	at, err := w.log.rotate()
	if err != nil {
		return err
	}
	if err := w.publish(at, export); err != nil {
		// Still due: the next acknowledged operation tries again.
		w.log.grown.Add(at.grown)
		return err
	}
	if w.hooks.OnSnapshot != nil {
		w.hooks.OnSnapshot(time.Since(start).Seconds())
	}
	return nil
}

// publish exports the state and lands it as the snapshot that resumes
// the log at the cut. The caller holds snapMu.
//
//hmn:locked snapMu
func (w *WAL) publish(at cut, export func() ([]SessionSnap, error)) error {
	sessions, err := export()
	if err != nil {
		return fmt.Errorf("wal: export for snapshot: %w", err)
	}
	snap := Snapshot{FirstSeg: at.seg, MaxSession: at.maxSession, Sessions: sessions}
	if w.buf, err = snap.appendJSON(w.buf[:0]); err != nil {
		return err
	}
	if err := PublishFile(w.dir, snapshotName, w.buf); err != nil {
		return err
	}
	w.limit.Store(checkpointLimit(int64(len(w.buf))))
	return nil
}

// Close seals the log. The WAL must not be used afterwards.
func (w *WAL) Close() error { return w.log.close() }

// Scan reads a data directory into memory without mutating it: the
// snapshot, every decodable record, and the size of any torn tail
// (reported, not truncated).
func Scan(dir string, hooks Hooks) (*Recovered, error) {
	snap, segs, err := load(dir, false)
	if err != nil {
		return nil, err
	}
	return collect(dir, hooks, snap, segs, false)
}

// Verify is Recover's dry run: the same one pass over the same bytes,
// but nothing is created, pruned or truncated — a torn tail is measured
// and left. The hmnwal inspector runs on Verify and Each so that
// inspecting a live or crashed directory never races the daemon or
// destroys evidence.
func Verify(dir string, hooks Hooks, onRecord func(*Replayed, *Record)) (*Recovery, error) {
	snap, segs, err := load(dir, false)
	if err != nil {
		return nil, err
	}
	p := logPass{dir: dir, hooks: hooks}
	return p.replay(snap, segs, onRecord)
}

// HasState reports whether dir holds a log segment or a snapshot: whether
// it is a data directory Recover would restore rather than start afresh.
func HasState(dir string) (bool, error) {
	segs, err := listSegments(dir)
	if err != nil || len(segs) > 0 {
		return len(segs) > 0, err
	}
	_, err = os.Stat(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return false, nil
	}
	return err == nil, err
}

// Each reads a data directory without mutating it, handing fn every log
// record in append order; the record is valid only until fn returns, and
// an error from fn ends the pass. It returns the snapshot and the size
// of any torn tail.
func Each(dir string, hooks Hooks, fn func(*Record) error) (*Snapshot, int64, error) {
	snap, segs, err := load(dir, false)
	if err != nil {
		return nil, 0, err
	}
	p := logPass{dir: dir, hooks: hooks, reuse: true, fn: fn}
	if err := p.run(segs); err != nil {
		return nil, 0, err
	}
	return snap, p.truncated, nil
}

// Compact reclaims disk: it deletes the segments before the published
// snapshot's first segment, which no recovery reads, and keeps the rest;
// it returns the numbers of the segments it deleted. A snapshot's first
// segment only moves forward and a running daemon never reopens a
// sealed segment, so compacting the directory of a live daemon is as
// safe as compacting a stopped one. Without a snapshot there is nothing
// to delete. The directory is the experiment's trace until compacted:
// Compact is the operator's call, never the daemon's.
func Compact(dir string) ([]uint64, error) {
	snap, segs, err := load(dir, false)
	if err != nil || snap == nil {
		return nil, err
	}
	var removed []uint64
	for _, n := range segs {
		if n >= snap.FirstSeg {
			break
		}
		if err := os.Remove(filepath.Join(dir, segName(n))); err != nil {
			return removed, fmt.Errorf("wal: remove sealed segment: %w", err)
		}
		removed = append(removed, n)
	}
	if len(removed) > 0 {
		if err := syncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// WAL is the open write-ahead log of one data directory. It is safe for
// concurrent use: appends serialize internally, barriers share fsyncs
// (group commit), and WriteSnapshot coordinates rotation so no record
// is lost between a snapshot and the segments it replaces.
type WAL struct {
	dir   string
	hooks Hooks
	log   *log
}

// Recovered is what Open found on disk: the latest snapshot (nil before
// the first one lands) and the log suffix to replay on top of it, in
// append order. TruncatedBytes reports a torn tail Open dropped; the
// caller should surface it as a warning (the bytes were never
// acknowledged — see the ack-after-log guarantee — but an operator
// should know a crash tore a write).
type Recovered struct {
	Snapshot       *Snapshot
	Records        []Record
	TruncatedBytes int64
}

// load reads the directory's snapshot and lists the segments that hold
// its log suffix. With repair set — recovery, not inspection — it first
// creates the directory, removes a snapshot temp file a crash left and
// prunes the segments the snapshot supersedes.
func load(dir string, hooks Hooks, repair bool) (*Snapshot, []uint64, error) {
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
	// A crash between publishing a snapshot and deleting the segments
	// it covers leaves stale segments behind; prune them now. (Replay
	// would skip their records anyway — indices at or below the
	// snapshot boundary — but unbounded stale segments are a disk leak.)
	if repair && snap != nil {
		kept := segs[:0]
		for _, n := range segs {
			if n < snap.FirstSeg {
				hooks.logf("wal: pruning segment %s superseded by snapshot", segName(n))
				if err := os.Remove(filepath.Join(dir, segName(n))); err != nil {
					return nil, nil, fmt.Errorf("wal: prune segment: %w", err)
				}
				continue
			}
			kept = append(kept, n)
		}
		if len(kept) < len(segs) {
			if err := syncDir(dir); err != nil {
				return nil, nil, err
			}
		}
		segs = kept
	}
	return snap, segs, nil
}

// resume opens the log for appending, on a fresh segment numbered after
// everything on disk (and after the snapshot boundary, when the
// directory holds only a snapshot), so recovery artifacts are never
// mixed with new records mid-segment.
func resume(dir string, hooks Hooks, snap *Snapshot, segs []uint64) (*WAL, error) {
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	} else if snap != nil && snap.FirstSeg > next {
		next = snap.FirstSeg
	}
	l := &log{dir: dir, hooks: hooks}
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return &WAL{dir: dir, hooks: hooks, log: l}, nil
}

// collect reads the whole log into a Recovered: the materialising form
// of the pass, for callers that want the records themselves.
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
	snap, segs, err := load(dir, hooks, true)
	if err != nil {
		return nil, nil, err
	}
	rec, err := collect(dir, hooks, snap, segs, true)
	if err != nil {
		return nil, nil, err
	}
	w, err := resume(dir, hooks, snap, segs)
	if err != nil {
		return nil, nil, err
	}
	return w, rec, nil
}

// Recover opens (or initializes) the data directory and rebuilds its
// sessions in one pass: each log record is decoded, replayed and
// forgotten as it is read, and a torn tail is truncated on the way.
// onRecord, when non-nil, is called after each operation record actually
// re-applied; its record is valid only until it returns. On any error —
// a corrupt sealed segment, a record that diverges — nothing is
// returned and no segment is created.
func Recover(dir string, hooks Hooks, onRecord func(*Replayed, *Record)) (*WAL, *Recovery, error) {
	snap, segs, err := load(dir, hooks, true)
	if err != nil {
		return nil, nil, err
	}
	p := logPass{dir: dir, hooks: hooks, repair: true}
	res, err := p.replay(snap, segs, onRecord)
	if err != nil {
		return nil, nil, err
	}
	w, err := resume(dir, hooks, snap, segs)
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

// WriteSnapshot takes a full-state snapshot: it rotates to a fresh
// segment, calls export to capture the state (export runs after the
// rotation, so every record in the sealed segments is covered by the
// exported operation indices), publishes the snapshot atomically, and
// deletes the sealed segments. export must not append to the WAL on the
// calling goroutine (other goroutines may, freely).
func (w *WAL) WriteSnapshot(export func() ([]SessionSnap, error)) error {
	start := time.Now() //hmn:wallclock
	sealed, err := w.log.rotate()
	if err != nil {
		return err
	}
	sessions, err := export()
	if err != nil {
		return fmt.Errorf("wal: export for snapshot: %w", err)
	}
	buf, err := json.Marshal(&Snapshot{FirstSeg: sealed + 1, Sessions: sessions})
	if err != nil {
		return fmt.Errorf("wal: encode snapshot: %w", err)
	}
	if err := PublishFile(w.dir, snapshotName, buf); err != nil {
		return err
	}
	// The snapshot is durable; the sealed segments are now redundant.
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	removed := false
	for _, n := range segs {
		if n <= sealed {
			if err := os.Remove(filepath.Join(w.dir, segName(n))); err != nil {
				return fmt.Errorf("wal: remove sealed segment: %w", err)
			}
			removed = true
		}
	}
	if removed {
		if err := syncDir(w.dir); err != nil {
			return err
		}
	}
	if w.hooks.OnSnapshot != nil {
		w.hooks.OnSnapshot(time.Since(start).Seconds()) //hmn:wallclock
	}
	return nil
}

// Close seals the log. The WAL must not be used afterwards.
func (w *WAL) Close() error { return w.log.close() }

// Scan reads a data directory into memory without mutating it: the
// snapshot, every decodable record, and the size of any torn tail
// (reported, not truncated).
func Scan(dir string, hooks Hooks) (*Recovered, error) {
	snap, segs, err := load(dir, hooks, false)
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
	snap, segs, err := load(dir, hooks, false)
	if err != nil {
		return nil, err
	}
	p := logPass{dir: dir, hooks: hooks}
	return p.replay(snap, segs, onRecord)
}

// Each reads a data directory without mutating it, handing fn every log
// record in append order; the record is valid only until fn returns, and
// an error from fn ends the pass. It returns the snapshot and the size
// of any torn tail.
func Each(dir string, hooks Hooks, fn func(*Record) error) (*Snapshot, int64, error) {
	snap, segs, err := load(dir, hooks, false)
	if err != nil {
		return nil, 0, err
	}
	p := logPass{dir: dir, hooks: hooks, reuse: true, fn: fn}
	if err := p.run(segs); err != nil {
		return nil, 0, err
	}
	return snap, p.truncated, nil
}

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

// Open opens (or initializes) the data directory and recovers its
// contents. The returned WAL appends to a fresh segment, so recovery
// artifacts are never mixed with new records mid-segment.
func Open(dir string, hooks Hooks) (*WAL, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create data dir: %w", err)
	}
	// A crash during snapshot writing can leave the tmp file; it was
	// never published, so it is garbage.
	if err := os.Remove(filepath.Join(dir, snapshotTmp)); err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: remove stale snapshot tmp: %w", err)
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
	if snap != nil {
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
	rec := &Recovered{Snapshot: snap}
	for i, n := range segs {
		recs, dropped, err := readSegment(dir, n, i == len(segs)-1, true, hooks)
		if err != nil {
			return nil, nil, err
		}
		rec.Records = append(rec.Records, recs...)
		rec.TruncatedBytes += dropped
	}
	// Append to a fresh segment numbered after everything on disk (and
	// after the snapshot boundary, when the directory holds only a
	// snapshot).
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	} else if snap != nil && snap.FirstSeg > next {
		next = snap.FirstSeg
	}
	l := &log{dir: dir, hooks: hooks}
	if err := l.openSegment(next); err != nil {
		return nil, nil, err
	}
	if err := syncDir(dir); err != nil {
		return nil, nil, err
	}
	return &WAL{dir: dir, hooks: hooks, log: l}, rec, nil
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

// Scan reads a data directory without mutating it: the snapshot, every
// decodable record, and the size of any torn tail (reported, not
// truncated). The hmnwal inspector runs on Scan so that inspecting a
// live or crashed directory never races the daemon or destroys
// evidence.
func Scan(dir string, hooks Hooks) (*Recovered, error) {
	snap, err := loadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	rec := &Recovered{Snapshot: snap}
	for i, n := range segs {
		recs, dropped, err := readSegment(dir, n, i == len(segs)-1, false, hooks)
		if err != nil {
			return nil, err
		}
		rec.Records = append(rec.Records, recs...)
		rec.TruncatedBytes += dropped
	}
	return rec, nil
}

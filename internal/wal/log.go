package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonx"
)

// Hooks are the WAL's observation points. All fields are optional; hmnd
// wires them to metrics (internal/metrics) and to its logger. Hooks run
// on the calling goroutine and must not call back into the WAL.
type Hooks struct {
	// OnAppend runs once per record appended (buffered, not yet
	// durable).
	OnAppend func()
	// OnFsync runs after each fsync with its duration in seconds.
	OnFsync func(seconds float64)
	// OnSnapshot runs after each snapshot write with its duration in
	// seconds.
	OnSnapshot func(seconds float64)
	// Logf receives recovery warnings (torn-tail truncation) and
	// housekeeping notices.
	Logf func(format string, args ...interface{})
}

func (h Hooks) logf(format string, args ...interface{}) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

// segPrefix and segSuffix frame segment file names:
// wal-<20-digit segment number>.log.
const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

func segName(n uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, n, segSuffix)
}

// parseSegName returns the segment number, or false when name is not a
// segment file.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(digits) != 20 {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// log is the append side of the WAL: one active segment file, buffered
// writes, and group-commit fsync. Appends are cheap (serialize + copy
// into the bufio writer under the lock); durability is paid by Barrier,
// where concurrent waiters share one fsync — the first caller through
// syncMu flushes everything appended so far and everyone queued behind
// it returns without syncing again.
type log struct {
	dir   string
	hooks Hooks

	mu  sync.Mutex    // guards f, w, seg, appendSeq, maxSession
	f   *os.File      //hmn:guardedby mu
	w   *bufio.Writer //hmn:guardedby mu
	seg uint64        //hmn:guardedby mu
	// appendSeq numbers appended records; barrier targets are expressed
	// in it.
	appendSeq uint64 //hmn:guardedby mu
	// fault is sticky: the first append or fsync failure. Once a record
	// the in-memory state already committed has been lost — or an fsync
	// failed, after which the kernel may have dropped dirty pages — the
	// log has diverged from memory permanently, so every later barrier
	// fails and no client is ever told lost work is durable.
	fault error //hmn:guardedby mu
	// maxSession is the highest session ordinal an open record has named,
	// in this run or in the log it resumed.
	maxSession int //hmn:guardedby mu
	// grown counts the frame bytes appended since the position of the
	// last snapshot: what a recovery would read past it.
	grown atomic.Int64

	// syncMu serializes fsync. Lock ordering: syncMu before mu — a
	// barrier holds syncMu while it flushes under mu, then syncs with
	// only syncMu held so appends continue meanwhile. The contract is
	// machine-checked: any path that takes syncMu while holding mu is a
	// lockorder diagnostic.
	//
	//hmn:lockorder syncMu mu
	syncMu    sync.Mutex
	syncedSeq atomic.Uint64
}

// openSegment creates segment n and opens it for appending. The number
// must be new: a segment that already exists is a stale one past a hole
// recovery did not see (follow reads up to the first missing number), and
// appending to it would bury its records under the new ones, so creating
// it fails instead. Callers either hold mu (rotate) or own the log
// exclusively because it is not yet published (resume).
//
//hmn:locked mu
func (l *log) openSegment(n uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(n)), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.seg = n
	return nil
}

// faultLocked records the log's first unrecoverable failure and returns
// it. Every later barrier reports the fault instead of succeeding.
//
//hmn:locked mu
func (l *log) faultLocked(err error) error {
	if l.fault == nil {
		l.fault = err
	}
	return err
}

// faultBarrier is faultLocked for the barrier path, which runs with mu
// released.
func (l *log) faultBarrier(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.faultLocked(err)
}

// append serializes rec into the active segment's buffer. The record is
// NOT durable until a barrier; callers on the ack path follow with
// Barrier(). A failed append is a permanent fault: the in-memory state
// holds an operation the log does not, so barriers fail from then on
// and the lost record can never be acknowledged as durable.
func (l *log) append(rec *Record) error {
	buf := jsonx.GetBuffer()
	defer buf.Put()
	frame, err := appendFrame(buf.B, rec)
	buf.B = frame
	if err != nil {
		l.mu.Lock()
		l.faultLocked(err)
		l.mu.Unlock()
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return l.faultLocked(fmt.Errorf("wal: log is closed"))
	}
	if _, err := l.w.Write(frame); err != nil {
		return l.faultLocked(fmt.Errorf("wal: append: %w", err))
	}
	l.appendSeq++
	l.grown.Add(int64(len(frame)))
	if rec.Kind == KindOpen {
		if n, ok := SessionOrdinal(rec.SID); ok && n > l.maxSession {
			l.maxSession = n
		}
	}
	if l.hooks.OnAppend != nil {
		l.hooks.OnAppend()
	}
	return nil
}

// barrier makes every record appended before the call durable. Group
// commit: the target is captured first, so a caller that queues behind
// an in-flight fsync which already covered its records returns without
// issuing another.
func (l *log) barrier() error {
	l.mu.Lock()
	target := l.appendSeq
	fault := l.fault
	l.mu.Unlock()
	if fault != nil {
		return fmt.Errorf("wal: log faulted: %w", fault)
	}
	if l.syncedSeq.Load() >= target {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncedSeq.Load() >= target {
		return nil
	}
	return l.syncLocked()
}

// syncLocked flushes the buffered frames and fsyncs the active segment,
// holding mu for the flush only, so appends continue during the fsync.
// The caller holds syncMu.
func (l *log) syncLocked() error {
	l.mu.Lock()
	if l.w == nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: log is closed")
	}
	if l.fault != nil {
		err := l.fault
		l.mu.Unlock()
		return fmt.Errorf("wal: log faulted: %w", err)
	}
	flushed := l.appendSeq
	err := l.w.Flush()
	f := l.f
	l.mu.Unlock()
	if err != nil {
		return l.faultBarrier(fmt.Errorf("wal: flush: %w", err))
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		return l.faultBarrier(fmt.Errorf("wal: fsync: %w", err))
	}
	if l.hooks.OnFsync != nil {
		l.hooks.OnFsync(time.Since(start).Seconds())
	}
	l.syncedSeq.Store(flushed)
	return nil
}

// cut is a snapshot's position in the log — the segment it starts, whose
// frames it does not cover — with the growth the log had reached since
// the previous position and the session high-water mark at the cut.
type cut struct {
	seg        uint64
	grown      int64
	maxSession int
}

// rotate seals the active segment (flush, fsync, close) and opens the
// next one, where the growth count restarts: every snapshot's cut.
// Holding syncMu for the duration keeps rotation atomic with respect to
// barriers. A failure faults the log as a barrier's would: after a
// failed fsync the kernel may have dropped frames a later fsync would
// then seem to make durable, and after a failed reopen there is no
// segment to append to.
func (l *log) rotate() (cut, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return cut{}, fmt.Errorf("wal: log is closed")
	}
	if err := l.w.Flush(); err != nil {
		return cut{}, l.faultLocked(fmt.Errorf("wal: flush on rotate: %w", err))
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return cut{}, l.faultLocked(fmt.Errorf("wal: fsync on rotate: %w", err))
	}
	if l.hooks.OnFsync != nil {
		l.hooks.OnFsync(time.Since(start).Seconds())
	}
	l.syncedSeq.Store(l.appendSeq)
	if err := l.f.Close(); err != nil {
		return cut{}, l.faultLocked(fmt.Errorf("wal: close segment: %w", err))
	}
	if err := l.openSegment(l.seg + 1); err != nil {
		return cut{}, l.faultLocked(err)
	}
	if err := syncDir(l.dir); err != nil {
		return cut{}, l.faultLocked(err)
	}
	return cut{seg: l.seg, grown: l.grown.Swap(0), maxSession: l.maxSession}, nil
}

// close flushes, fsyncs and closes the active segment.
func (l *log) close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return nil
	}
	flushErr := l.w.Flush()
	syncErr := l.f.Sync()
	closeErr := l.f.Close()
	l.w, l.f = nil, nil
	for _, err := range []error{flushErr, syncErr, closeErr} {
		if err != nil {
			return fmt.Errorf("wal: close: %w", err)
		}
	}
	return nil
}

// listSegments returns the data directory's segment numbers, ascending.
// A directory that does not exist holds none, as a missing snapshot file
// is no snapshot: reading it finds no log. The names are read unsorted —
// os.ReadDir would build and name-sort an entry per file — and the
// numbers sorted.
func listSegments(dir string) ([]uint64, error) {
	d, err := os.Open(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	names, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var segs []uint64
	for _, name := range names {
		if n, ok := parseSegName(name); ok {
			segs = append(segs, n)
		}
	}
	slices.Sort(segs)
	return segs, nil
}

// logPass is one pass over a data directory's log: every record of
// every segment, in append order, handed to fn as it is decoded.
type logPass struct {
	dir   string
	hooks Hooks
	// repair truncates a torn tail (recovery); without it the tail is
	// only measured (inspection).
	repair bool
	// reuse decodes every record into the same storage, so fn's record is
	// valid only until fn returns; without it each record is fn's to keep.
	reuse bool
	fn    func(*Record) error

	fr  frameReader
	dec *decoder

	// bytes counts the valid frames read, truncated the torn tail
	// dropped or measured.
	bytes     int64
	truncated int64
}

// run walks segs, which is the directory's whole log, ascending.
func (p *logPass) run(segs []uint64) error {
	for i, n := range segs {
		f, err := os.Open(filepath.Join(p.dir, segName(n)))
		if err != nil {
			return fmt.Errorf("wal: read segment: %w", err)
		}
		err = p.segment(f, n, i == len(segs)-1)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// follow walks the log by number — segment n, n+1, … up to the first
// number with no file — and returns that number, where the log resumes.
// It lists no directory, so a recovery costs the log it replays, not the
// history before it: the segments from a snapshot's position on are
// consecutive by construction (rotate and resume open the number after
// the last, and Compact deletes only below the position). A missing
// number with a segment right after it is a hole in the log, and
// refused. A wider hole is not seen here; the log then resumes at the
// first missing number, and openSegment refuses to append to a segment
// that already exists, so the rotation that reaches a stale segment
// faults the log rather than writing into it.
func (p *logPass) follow(n uint64) (uint64, error) {
	f, err := openSegmentFile(p.dir, n)
	for ; f != nil && err == nil; n++ {
		var next *os.File
		if next, err = openSegmentFile(p.dir, n+1); err == nil {
			err = p.segment(f, n, next == nil)
		}
		f.Close()
		if err != nil && next != nil {
			next.Close()
		}
		f = next
	}
	if err != nil {
		return 0, err
	}
	if _, err := os.Stat(filepath.Join(p.dir, segName(n+1))); !os.IsNotExist(err) {
		if err != nil {
			return 0, fmt.Errorf("wal: read segment: %w", err)
		}
		return 0, fmt.Errorf("wal: segment %s is missing and %s follows it: the log has a hole", segName(n), segName(n+1))
	}
	return n, nil
}

// openSegmentFile opens segment n for reading: nil, with no error, when
// it does not exist.
func openSegmentFile(dir string, n uint64) (*os.File, error) {
	f, err := os.Open(filepath.Join(dir, segName(n)))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: read segment: %w", err)
	}
	return f, nil
}

// segment walks f, segment n. final marks the log's last segment: there,
// an invalid frame with nothing after it is a torn tail — truncated to
// the last valid record when repair is set, measured either way. An
// invalid frame in a non-final segment, or a record that fails to decode
// anywhere, is corruption and returns an error; so does fn.
func (p *logPass) segment(f *os.File, n uint64, final bool) error {
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: read segment: %w", err)
	}
	size := st.Size()
	p.fr.reset(f, size)
	for {
		off := p.fr.off
		payload, err := p.fr.next()
		var rec *Record
		if err == nil {
			if p.dec == nil || !p.reuse {
				p.dec = new(decoder)
			}
			rec, err = p.dec.decode(payload)
		}
		if err == nil {
			p.bytes += int64(frameHeaderSize + len(payload))
			if err := p.fn(rec); err != nil {
				return err
			}
			continue
		}
		if err == io.EOF {
			return nil
		}
		torn, ok := err.(errTorn)
		if !ok || !final {
			return fmt.Errorf("wal: segment %s at offset %d: %w", segName(n), off, err)
		}
		// Torn tail on the final segment: the crash interrupted the last
		// write. Truncate to the last valid record and carry on — every
		// record past this point was never acknowledged (acks barrier
		// first), so dropping the tail loses nothing a client was
		// promised.
		p.truncated = size - off
		if !p.repair {
			p.hooks.logf("wal: torn tail in %s: %d bytes after offset %d (%s)",
				segName(n), p.truncated, off, torn.reason)
			return nil
		}
		p.hooks.logf("wal: truncating torn tail of %s: %d bytes after offset %d (%s)",
			segName(n), p.truncated, off, torn.reason)
		path := filepath.Join(p.dir, segName(n))
		if err := os.Truncate(path, off); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		return syncFile(path)
	}
}

// syncDir fsyncs a directory so renames and unlinks inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// syncFile fsyncs one file by path.
func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: open for sync: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", filepath.Base(path), err)
	}
	return nil
}

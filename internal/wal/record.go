// Package wal is hmnd's durability layer: a length-prefixed,
// CRC-checksummed, fsync-batched write-ahead log of the deterministic
// session operations (admissions, releases, failures, restores), plus
// periodic full-state snapshots. Because every session commit funnels
// through one canonical application path (core.Session.commitTxnLocked;
// see internal/core/events.go), replaying the logged operation sequence
// against a restored snapshot reproduces the ledger's residual vectors
// bit-for-bit — durability reduces to serializing the sequence.
//
// On-disk layout, inside the data directory:
//
//	wal-00000000000000000001.log   log segments, ascending
//	wal-00000000000000000002.log
//	snapshot.json                  latest snapshot (atomic write-rename)
//
// Each segment is a stream of frames:
//
//	[u32le payload length][u32le CRC-32C of payload][payload]
//
// where the payload is one JSON-encoded Record. A torn tail — a partial
// frame or a checksum mismatch with nothing valid after it in the final
// segment — is truncated on open with a warning; an invalid frame
// anywhere else is corruption and open refuses. A snapshot — a
// checkpoint once the log has grown twofold past the last one, and
// one at shutdown — rotates to a fresh segment, notes that segment as
// its position, exports every session, writes the snapshot to a
// temporary file and renames it over the old one (fsyncing the
// directory). No snapshot deletes a segment: the directory keeps the
// whole log until an operator compacts it (Compact). Recovery restores
// the snapshot and reads the log from its position; records whose
// per-session operation index is at or below the snapshot's recorded
// index are skipped as already applied.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/spec"
)

// Record kinds. Session-lifecycle records (open, close) have no
// operation index and replay idempotently by session-ID existence;
// operation records carry the session's per-operation index (see
// core.Event.Index) so recovery can line a log suffix up against a
// snapshot boundary.
const (
	// KindOpen declares a session: its ID, cluster, mapper and overhead.
	KindOpen = "open"
	// KindClose retires a session.
	KindClose = "close"
	// KindAdmit is one committed admission.
	KindAdmit = "admit"
	// KindBatch is a legacy kind, read but never written: several
	// admissions committed as one operation by a daemon run with the
	// since-deleted hmnd -batch K > 1. Replay re-applies it under its
	// one operation index (core.Session.ReplayBatch).
	KindBatch = "batch"
	// KindRelease is one environment teardown.
	KindRelease = "release"
	// KindFail is a host failure or link cut with its evictions and
	// (when the repair engine ran) the repair outcomes.
	KindFail = "fail"
	// KindRestore is a host or link readmission.
	KindRestore = "restore"
	// KindMigrate is one committed rebalance plan: guests relocated and
	// their environments' mappings replaced under unchanged seqs/tags.
	KindMigrate = "migrate"
)

// Record is one logged operation. Exactly one payload field is set,
// according to Kind.
type Record struct {
	// Kind discriminates the payload.
	Kind string `json:"kind"`
	// SID is the session the record belongs to.
	SID string `json:"sid"`
	// Index is the session's operation index for operation records
	// (admit, batch, release, fail, restore); 0 for open and close.
	Index uint64 `json:"index,omitempty"`

	Open    *OpenRec    `json:"open,omitempty"`
	Admit   *AdmitRec   `json:"admit,omitempty"`
	Batch   []AdmitRec  `json:"batch,omitempty"`
	Release *ReleaseRec `json:"release,omitempty"`
	Fail    *FailRec    `json:"fail,omitempty"`
	Restore *RestoreRec `json:"restore,omitempty"`
	Migrate *MigrateRec `json:"migrate,omitempty"`
}

// OpenRec declares a session's immutable configuration: everything a
// recovering daemon needs to rebuild the session from scratch when no
// snapshot covers it.
type OpenRec struct {
	Cluster spec.ClusterSpec `json:"cluster"`
	Mapper  string           `json:"mapper"`
	Proc    float64          `json:"overhead_proc"`
	Mem     int64            `json:"overhead_mem"`
	Stor    float64          `json:"overhead_stor"`
}

// AdmitRec is one committed admission: the environment, the mapping the
// session committed (its effect, not a recipe — replay must not re-run
// the mapper, whose tie-breaks may differ from the build that wrote the
// record), the sequence number it received and
// the caller tag (hmnd's environment ID).
type AdmitRec struct {
	Seq uint64           `json:"seq"`
	Tag string           `json:"tag,omitempty"`
	Env spec.EnvSpec     `json:"env"`
	M   spec.MappingSpec `json:"mapping"`
}

// ReleaseRec tears one admission down.
type ReleaseRec struct {
	Seq uint64 `json:"seq"`
}

// FailRec is a host failure or link cut. Evicted lists the admission
// sequence numbers the failure evicted, in admission order — replay
// verifies it re-derives the same set. Repairs, present when the
// failure ran through FailHostAndRepair/FailLinkAndRepair, record each
// eviction's fate in order.
type FailRec struct {
	Kind    string      `json:"fail_kind"`
	Target  int         `json:"target"`
	Evicted []uint64    `json:"evicted,omitempty"`
	Repairs []RepairRec `json:"repairs,omitempty"`
}

// RepairRec is the fate of one evicted environment: the replacement
// mapping and its new sequence number, or outcome "unrecoverable" with
// no replacement.
type RepairRec struct {
	OldSeq  uint64            `json:"old_seq"`
	Outcome string            `json:"outcome"`
	NewSeq  uint64            `json:"new_seq,omitempty"`
	Tag     string            `json:"tag,omitempty"`
	Env     *spec.EnvSpec     `json:"env,omitempty"`
	M       *spec.MappingSpec `json:"mapping,omitempty"`
}

// RestoreRec readmits a failed host or cut link.
type RestoreRec struct {
	Kind   string `json:"restore_kind"`
	Target int    `json:"target"`
}

// MigrateRec is one committed migrate plan (a core.Session.Rebalance
// move, or the multi-move plan of an older log): the
// guest-level moves in canonical commit order and, per touched
// environment, the replacement mapping — again its *effect*, with the
// exact physical edges, so replay reserves the same bandwidth on the
// same links without re-running the router. The environment itself is
// not re-serialized: a migrate never changes it, and replay takes it
// from the active mapping the record replaces.
type MigrateRec struct {
	Moves []MoveRec       `json:"moves"`
	Envs  []MigrateEnvRec `json:"envs"`
}

// MoveRec is one guest relocation of a migrate plan.
type MoveRec struct {
	Seq   uint64 `json:"seq"`
	Guest int    `json:"guest"`
	From  int    `json:"from"`
	To    int    `json:"to"`
}

// MigrateEnvRec is one environment whose mapping a migrate replaced.
type MigrateEnvRec struct {
	Seq uint64           `json:"seq"`
	Tag string           `json:"tag,omitempty"`
	M   spec.MappingSpec `json:"mapping"`
}

// castagnoli is the CRC-32C table; Castagnoli's polynomial has hardware
// support on amd64/arm64, and the checksum only guards torn writes, not
// adversaries.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the fixed prefix of every frame: payload length
// plus checksum, both little-endian u32.
const frameHeaderSize = 8

// maxFrameSize bounds a single record. A frame claiming more is treated
// as corruption rather than an allocation: a torn length prefix can
// decode to anything.
const maxFrameSize = 64 << 20

// appendFrame encodes rec and appends its frame to buf, returning the
// extended slice. The payload is json.Marshal(rec), byte for byte,
// whichever encoder wrote it.
func appendFrame(buf []byte, rec *Record) ([]byte, error) {
	start := len(buf)
	var hdr [frameHeaderSize]byte
	out, ok := rec.AppendJSON(append(buf, hdr[:]...))
	if !ok {
		payload, err := json.Marshal(rec)
		if err != nil {
			return buf, fmt.Errorf("wal: encode %s record: %w", rec.Kind, err)
		}
		out = append(append(buf, hdr[:]...), payload...)
	}
	payload := out[start+frameHeaderSize:]
	if len(payload) > maxFrameSize {
		return buf, fmt.Errorf("wal: %s record is %d bytes (limit %d)", rec.Kind, len(payload), maxFrameSize)
	}
	binary.LittleEndian.PutUint32(out[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[start+4:], crc32.Checksum(payload, castagnoli))
	return out, nil
}

// errTorn marks an invalid frame: a partial header, a length beyond the
// remaining bytes or the frame cap, or a checksum mismatch. The caller
// decides whether it is a recoverable torn tail (final segment, nothing
// after it) or corruption.
type errTorn struct{ reason string }

func (e errTorn) Error() string { return "wal: invalid frame: " + e.reason }

// frameWindow is the read-ahead a frameReader starts with. The window
// grows to the largest frame the walk meets, never to the segment.
const frameWindow = 1 << 16

// frameReader walks the frames of one segment through a bounded window,
// so a pass over the log holds one frame, not the file. It is the only
// reader of the frame layout.
type frameReader struct {
	r io.Reader
	// size is the segment's length when the walk began; bytes a live
	// daemon appends later are not this walk's.
	size int64
	// off is the offset of the next frame: every byte before it belongs
	// to a valid frame.
	off int64
	// buf is the window; buf[lo:hi] is read and not yet consumed.
	buf    []byte
	lo, hi int
}

// reset points the reader at the start of a segment of the given size,
// keeping the window.
func (fr *frameReader) reset(r io.Reader, size int64) {
	if fr.buf == nil {
		fr.buf = make([]byte, frameWindow)
	}
	fr.r, fr.size, fr.off, fr.lo, fr.hi = io.LimitReader(r, size), size, 0, 0, 0
}

// fill reads ahead until n unconsumed bytes are in the window. The
// caller has checked that the segment holds them.
func (fr *frameReader) fill(n int) error {
	if fr.hi-fr.lo >= n {
		return nil
	}
	if fr.lo+n > len(fr.buf) {
		buf := fr.buf
		if n > len(buf) {
			// A quarter of headroom: frames that creep upwards do not
			// reallocate the window one by one.
			buf = make([]byte, n+n/4)
		}
		fr.hi = copy(buf, fr.buf[fr.lo:fr.hi])
		fr.lo, fr.buf = 0, buf
	}
	m, err := io.ReadAtLeast(fr.r, fr.buf[fr.hi:], fr.lo+n-fr.hi)
	fr.hi += m
	if err != nil {
		return fmt.Errorf("wal: read segment: %w", err)
	}
	return nil
}

// next returns the payload of the frame at off, checksum verified, and
// steps past it. The payload aliases the window and is valid until the
// next call. io.EOF signals a clean end; an errTorn describes why the
// bytes at off are not a valid frame.
func (fr *frameReader) next() ([]byte, error) {
	left := fr.size - fr.off
	if left == 0 {
		return nil, io.EOF
	}
	if left < frameHeaderSize {
		return nil, errTorn{fmt.Sprintf("%d trailing bytes, header needs %d", left, frameHeaderSize)}
	}
	if err := fr.fill(frameHeaderSize); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.buf[fr.lo:]))
	sum := binary.LittleEndian.Uint32(fr.buf[fr.lo+4:])
	if n > maxFrameSize {
		return nil, errTorn{fmt.Sprintf("frame claims %d bytes (limit %d)", n, maxFrameSize)}
	}
	if left -= frameHeaderSize; int64(n) > left {
		return nil, errTorn{fmt.Sprintf("frame claims %d bytes, %d remain", n, left)}
	}
	if err := fr.fill(frameHeaderSize + n); err != nil {
		return nil, err
	}
	payload := fr.buf[fr.lo+frameHeaderSize : fr.lo+frameHeaderSize+n]
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, errTorn{fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", sum, got)}
	}
	fr.lo += frameHeaderSize + n
	fr.off += int64(frameHeaderSize + n)
	return payload, nil
}

package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/jsonx"
	"repro/internal/spec"
)

// snapshotName is the snapshot file inside the data directory; writes
// go through PublishFile, which stages at snapshotTmp.
const (
	snapshotName = "snapshot.json"
	snapshotTmp  = snapshotName + tmpSuffix
	tmpSuffix    = ".tmp"
)

// Snapshot is the full daemon state at one log position: every open
// session, exported at its own operation index. Recovery loads the
// snapshot, rebuilds the sessions, and replays the log from the
// position on, skipping records whose Index is at or below the owning
// session's OpCount.
type Snapshot struct {
	// FirstSeg is the snapshot's position: every snapshot rotates first,
	// so the log it does not cover starts at offset 0 of segment FirstSeg.
	// A snapshot cut inside a segment, by a build that checkpointed
	// without rotating, also carries "first_off", the offset it was cut
	// at; that field is not read. Recovery replays FirstSeg from its start
	// all the same: a record before the offset is at or below its
	// session's OpCount, or names a session the snapshot had already
	// closed, and is skipped either way.
	FirstSeg uint64 `json:"first_seg"`
	// MaxSession is the highest session ordinal the log had named when
	// the snapshot was cut, so a session closed before it keeps its ID
	// retired although recovery never reads its records again.
	MaxSession int `json:"max_session,omitempty"`
	// Sessions are the open sessions, in session-ID order.
	Sessions []SessionSnap `json:"sessions"`

	// size is the file's length.
	size int64
}

// SessionSnap is one session's exported state.
type SessionSnap struct {
	// SID is the session's HTTP identifier.
	SID string `json:"sid"`
	// Cluster, Mapper and the overhead triple mirror the session's
	// OpenRec: the immutable configuration.
	Cluster spec.ClusterSpec `json:"cluster"`
	Mapper  string           `json:"mapper"`
	Proc    float64          `json:"overhead_proc"`
	Mem     int64            `json:"overhead_mem"`
	Stor    float64          `json:"overhead_stor"`
	// NextEnv is the server's environment-ID counter for the session.
	NextEnv uint64 `json:"next_env"`
	// NextSeq and OpCount resume the session's admission-sequence and
	// operation-index counters.
	NextSeq uint64 `json:"next_seq"`
	OpCount uint64 `json:"op_count"`
	// Ledger is the residual state (bit-exact; see cluster.LedgerState).
	Ledger cluster.LedgerState `json:"ledger"`
	// Active lists the deployed environments, sequence-ascending.
	Active []ActiveRec `json:"active,omitempty"`
}

// ActiveRec is one deployed environment in a session snapshot: the
// fields, and the bytes, of the admit record that deployed it.
type ActiveRec struct {
	Seq uint64           `json:"seq"`
	Tag string           `json:"tag,omitempty"`
	Env spec.EnvSpec     `json:"env"`
	M   spec.MappingSpec `json:"mapping"`
}

// readSnapshot reads the snapshot file; found is false, with no error,
// when there is none — a log-only directory is valid (the daemon may die
// before its first snapshot).
func readSnapshot(dir string) (buf []byte, found bool, err error) {
	buf, err = os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("wal: read snapshot: %w", err)
	}
	return buf, true, nil
}

// loadSnapshot reads and decodes the snapshot file for the passes that
// hand it out (Scan, Open, Each, Compact); nil without one. Recovery
// never holds the decoded value: it restores the file as it scans it
// (replayer.restore).
func loadSnapshot(dir string) (*Snapshot, error) {
	buf, found, err := readSnapshot(dir)
	if !found || err != nil {
		return nil, err
	}
	return decodeSnapshot(buf)
}

// decodeSnapshot decodes a snapshot file under decoder.decode's contract:
// the scanner declines blanks, a key out of json.Marshal's order, null
// and a sum_proc that is not two numbers, and encoding/json decodes what
// it declines. Each active entry is scanned into storage of its own, its
// environment keeping its bytes as a slice of buf.
func decodeSnapshot(buf []byte) (*Snapshot, error) {
	snap := &Snapshot{size: int64(len(buf))}
	var s jsonx.Scanner
	s.Reset(buf)
	if snap.scan(&s, func() { snap.Sessions = append(snap.Sessions, scanSessionValue(&s)) }) {
		return snap, nil
	}
	return unmarshalSnapshot(buf)
}

// scanSessionValue decodes one session entry, each active environment
// into storage of its own.
func scanSessionValue(s *jsonx.Scanner) (sn SessionSnap) {
	sn.scan(s, func() {
		sn.Active = jsonx.List(s, func() (a ActiveRec) {
			scanAdmit(s, (*AdmitRec)(&a), new(spec.PathArena), true)
			return a
		})
	})
	return sn
}

// unmarshalSnapshot decodes a snapshot file with encoding/json.
func unmarshalSnapshot(buf []byte) (*Snapshot, error) {
	snap := &Snapshot{size: int64(len(buf))}
	if err := json.Unmarshal(buf, snap); err != nil {
		return nil, fmt.Errorf("wal: decode snapshot: %w", err)
	}
	return snap, nil
}

// The keys of a snapshot, a session and a ledger, in json.Marshal's order.
var (
	snapshotKeys = jsonx.NewKeys("first_seg", "max_session", "sessions")
	sessionKeys  = jsonx.NewKeys("sid", "cluster", "mapper", "overhead_proc", "overhead_mem",
		"overhead_stor", "next_env", "next_seq", "op_count", "ledger", "active")
	ledgerKeys = jsonx.NewKeys("proc", "mem", "stor", "bw", "quarantined", "cut_edges",
		"topo_gen", "cut_count", "gen_seq", "sum_proc", "sum_proc_sq")
)

// scan decodes the whole input into snap, which must be the zero value,
// but for the sessions: session reads each element of that array. It
// reports whether the scanner accepted the input.
func (snap *Snapshot) scan(s *jsonx.Scanner, session func()) bool {
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(snapshotKeys, &f) {
		case 0: // first_seg
			snap.FirstSeg = s.Uint64()
		case 1: // max_session
			snap.MaxSession = s.Int()
		case 2: // sessions
			snap.Sessions = []SessionSnap{}
			for s.Open('['); s.More(']'); {
				session()
			}
		}
	}
	return s.End()
}

// scan decodes one session entry into sn, the zero value, but for its
// active environments: active reads that array, after every other key.
func (sn *SessionSnap) scan(s *jsonx.Scanner, active func()) {
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(sessionKeys, &f) {
		case 0: // sid
			sn.SID = s.String()
		case 1: // cluster
			sn.Cluster.Scan(s)
		case 2: // mapper
			sn.Mapper = s.String()
		case 3: // overhead_proc
			sn.Proc = s.Float64()
		case 4: // overhead_mem
			sn.Mem = s.Int64()
		case 5: // overhead_stor
			sn.Stor = s.Float64()
		case 6: // next_env
			sn.NextEnv = s.Uint64()
		case 7: // next_seq
			sn.NextSeq = s.Uint64()
		case 8: // op_count
			sn.OpCount = s.Uint64()
		case 9: // ledger
			scanLedger(s, &sn.Ledger)
		case 10: // active
			active()
		}
	}
}

// scanSnapshot restores a snapshot file into rp, which holds nothing yet,
// as it scans it, and reports whether the scanner accepted the file —
// under decodeSnapshot's contract — and every session in it converted.
// Each active environment is scanned into d's reused storage and
// converted there by sessionRestore.add, the decodeAdmit a log admit
// record goes through: the file is read once, and no entry outlives its
// conversion. A decline leaves rp half-filled.
func (rp *replayer) scanSnapshot(s *jsonx.Scanner, d *decoder) (firstSeg uint64, ok bool) {
	var snap Snapshot
	ok = snap.scan(s, func() {
		var r sessionRestore
		r.sn.scan(s, func() {
			// Every other key comes before it: the cluster the
			// environments map onto is known.
			if s.OK() && r.begin() != nil {
				s.Fail()
			}
			for s.Open('['); s.More(']'); {
				if scanAdmit(s, &d.admit, &d.arena, true); s.OK() && r.add(&d.admit) != nil {
					s.Fail()
				}
			}
		})
		if !s.OK() {
			return
		}
		cs, err := r.finish()
		if err != nil {
			s.Fail()
			return
		}
		rp.add(&r.sn, cs, r.c)
	})
	rp.maxSession, rp.closedBelow = max(rp.maxSession, snap.MaxSession), snap.MaxSession
	return snap.FirstSeg, ok
}

func scanLedger(s *jsonx.Scanner, l *cluster.LedgerState) {
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(ledgerKeys, &f) {
		case 0: // proc
			l.Proc = jsonx.List(s, s.Float64)
		case 1: // mem
			l.Mem = jsonx.List(s, s.Int64)
		case 2: // stor
			l.Stor = jsonx.List(s, s.Float64)
		case 3: // bw
			l.BW = jsonx.List(s, s.Float64)
		case 4: // quarantined
			l.Quarantined = jsonx.List(s, s.Bool)
		case 5: // cut_edges
			l.CutEdges = jsonx.List(s, s.Bool)
		case 6: // topo_gen
			l.TopoGen = s.Uint64()
		case 7: // cut_count
			l.CutCount = s.Int()
		case 8: // gen_seq
			l.GenSeq = s.Uint64()
		case 9: // sum_proc
			l.SumProc = scanPair(s)
		case 10: // sum_proc_sq
			l.SumProcSq = scanPair(s)
		}
	}
}

// scanPair decodes an array of exactly two numbers: json.Unmarshal
// zero-fills a shorter one and drops the rest of a longer one.
func scanPair(s *jsonx.Scanner) *[2]float64 {
	if p := jsonx.List(s, s.Float64); len(p) == 2 {
		return (*[2]float64)(p)
	}
	s.Fail()
	return nil
}

// appendJSON appends the snapshot's encoding — json.Marshal's bytes,
// through the record codec's appenders where it can and encoding/json
// where they decline.
func (s *Snapshot) appendJSON(dst []byte) ([]byte, error) {
	start := len(dst)
	ok := true
	dst = append(dst, `{"first_seg":`...)
	dst = strconv.AppendUint(dst, s.FirstSeg, 10)
	if s.MaxSession != 0 {
		dst = append(dst, `,"max_session":`...)
		dst = strconv.AppendInt(dst, int64(s.MaxSession), 10)
	}
	dst = append(dst, `,"sessions":`...)
	if s.Sessions == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range s.Sessions {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = s.Sessions[i].appendJSON(dst, &ok); err != nil {
				return dst[:start], err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, '}')
	if ok {
		return dst, nil
	}
	buf, err := json.Marshal(s)
	if err != nil {
		return dst[:start], fmt.Errorf("wal: encode snapshot: %w", err)
	}
	return append(dst[:start], buf...), nil
}

func (sn *SessionSnap) appendJSON(dst []byte, ok *bool) ([]byte, error) {
	dst = append(dst, `{"sid":`...)
	dst = jsonx.AppendString(dst, sn.SID, ok)
	dst = append(dst, `,"cluster":`...)
	cl, err := json.Marshal(&sn.Cluster)
	if err != nil {
		return dst, fmt.Errorf("wal: encode snapshot: %w", err)
	}
	dst = append(dst, cl...)
	dst = append(dst, `,"mapper":`...)
	dst = jsonx.AppendString(dst, sn.Mapper, ok)
	dst = append(dst, `,"overhead_proc":`...)
	dst = jsonx.AppendFloat(dst, sn.Proc, ok)
	dst = append(dst, `,"overhead_mem":`...)
	dst = strconv.AppendInt(dst, sn.Mem, 10)
	dst = append(dst, `,"overhead_stor":`...)
	dst = jsonx.AppendFloat(dst, sn.Stor, ok)
	dst = append(dst, `,"next_env":`...)
	dst = strconv.AppendUint(dst, sn.NextEnv, 10)
	dst = append(dst, `,"next_seq":`...)
	dst = strconv.AppendUint(dst, sn.NextSeq, 10)
	dst = append(dst, `,"op_count":`...)
	dst = strconv.AppendUint(dst, sn.OpCount, 10)
	dst = append(dst, `,"ledger":`...)
	dst = appendLedger(dst, &sn.Ledger, ok)
	if len(sn.Active) > 0 {
		dst = append(dst, `,"active":[`...)
		for i := range sn.Active {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = (*AdmitRec)(&sn.Active[i]).appendJSON(dst, ok)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func appendLedger(dst []byte, l *cluster.LedgerState, ok *bool) []byte {
	dst = append(dst, `{"proc":`...)
	dst = appendFloats(dst, l.Proc, ok)
	dst = append(dst, `,"mem":`...)
	if l.Mem == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, m := range l.Mem {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, m, 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"stor":`...)
	dst = appendFloats(dst, l.Stor, ok)
	dst = append(dst, `,"bw":`...)
	dst = appendFloats(dst, l.BW, ok)
	if len(l.Quarantined) > 0 {
		dst = append(dst, `,"quarantined":`...)
		dst = appendBools(dst, l.Quarantined)
	}
	if len(l.CutEdges) > 0 {
		dst = append(dst, `,"cut_edges":`...)
		dst = appendBools(dst, l.CutEdges)
	}
	if l.TopoGen != 0 {
		dst = append(dst, `,"topo_gen":`...)
		dst = strconv.AppendUint(dst, l.TopoGen, 10)
	}
	if l.CutCount != 0 {
		dst = append(dst, `,"cut_count":`...)
		dst = strconv.AppendInt(dst, int64(l.CutCount), 10)
	}
	if l.GenSeq != 0 {
		dst = append(dst, `,"gen_seq":`...)
		dst = strconv.AppendUint(dst, l.GenSeq, 10)
	}
	if l.SumProc != nil {
		dst = append(dst, `,"sum_proc":`...)
		dst = appendFloats(dst, l.SumProc[:], ok)
	}
	if l.SumProcSq != nil {
		dst = append(dst, `,"sum_proc_sq":`...)
		dst = appendFloats(dst, l.SumProcSq[:], ok)
	}
	return append(dst, '}')
}

func appendFloats(dst []byte, a []float64, ok *bool) []byte {
	if a == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, f := range a {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonx.AppendFloat(dst, f, ok)
	}
	return append(dst, ']')
}

func appendBools(dst []byte, a []bool) []byte {
	dst = append(dst, '[')
	for i, b := range a {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendBool(dst, b)
	}
	return append(dst, ']')
}

// PublishFile lands data as dir/name atomically: write to name.tmp,
// fsync it, rename over the live file, fsync the directory. A crash at
// any point leaves either the old file or the new one, never a partial
// one.
func PublishFile(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %s staging file: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close %s staging file: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("wal: publish %s: %w", name, err)
	}
	return syncDir(dir)
}

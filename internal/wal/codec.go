package wal

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/jsonx"
	"repro/internal/spec"
)

// This file is the hand-written codec for the two records an admission
// workload writes and recovery reads back, admit and release, in both
// directions. It changes no byte on disk — AppendJSON emits
// json.Marshal's exact payload or declines, decoder.scan accepts a
// subset of what json.Unmarshal accepts or declines — and
// appendFrame/decode answer a decline with encoding/json, which owns
// every other kind of record both ways.

// AppendJSON implements jsonx.Appender for admit and release records;
// it declines every other kind.
func (r *Record) AppendJSON(dst []byte) ([]byte, bool) {
	if r.Open != nil || len(r.Batch) > 0 || r.Fail != nil || r.Restore != nil || r.Migrate != nil ||
		r.Admit == nil && r.Release == nil {
		return dst, false
	}
	ok := true
	dst = append(dst, `{"kind":`...)
	dst = jsonx.AppendString(dst, r.Kind, &ok)
	dst = append(dst, `,"sid":`...)
	dst = jsonx.AppendString(dst, r.SID, &ok)
	if r.Index != 0 {
		dst = append(dst, `,"index":`...)
		dst = strconv.AppendUint(dst, r.Index, 10)
	}
	if r.Admit != nil {
		dst = append(dst, `,"admit":`...)
		dst = r.Admit.appendJSON(dst, &ok)
	}
	if r.Release != nil {
		dst = append(dst, `,"release":{"seq":`...)
		dst = strconv.AppendUint(dst, r.Release.Seq, 10)
		dst = append(dst, '}')
	}
	return append(dst, '}'), ok
}

func (a *AdmitRec) appendJSON(dst []byte, ok *bool) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, a.Seq, 10)
	if a.Tag != "" {
		dst = append(dst, `,"tag":`...)
		dst = jsonx.AppendString(dst, a.Tag, ok)
	}
	dst = append(dst, `,"env":`...)
	dst, eok := a.Env.AppendJSON(dst)
	dst = append(dst, `,"mapping":`...)
	dst, mok := a.M.AppendJSON(dst)
	*ok = *ok && eok && mok
	return append(dst, '}')
}

// decoder decodes one record at a time into storage it owns. A pass
// that hands each record on and forgets it keeps one decoder for the
// whole log, and every admit record refills the same AdmitRec, guest,
// link and path arrays, which recovery's pass fills with the snapshot's
// environments first (replayer.scanSnapshot); a collector takes a fresh
// decoder per record and may keep what it returns.
type decoder struct {
	rec     Record
	admit   AdmitRec
	release ReleaseRec
	arena   spec.PathArena
	// sid is the session ID of the last record, which the next one
	// most likely shares.
	sid string
}

// decode decodes one frame payload. The record is valid until the next
// decode on d. The payload is not aliased: the scanner copies strings
// out, and encoding/json, which answers a decline with a zeroed record
// of its own, does too.
func (d *decoder) decode(payload []byte) (*Record, error) {
	var s jsonx.Scanner
	s.Reset(payload)
	if !d.scan(&s) {
		d.rec = Record{}
		if err := json.Unmarshal(payload, &d.rec); err != nil {
			// The checksum matched, so these are the bytes that were
			// written: a decode failure is corruption at write time, not a
			// torn tail.
			return nil, fmt.Errorf("wal: decode record: %w", err)
		}
	}
	return &d.rec, nil
}

// scan decodes an admit or release record into d.rec. It reports false,
// leaving d.rec half-filled, for any other kind of record and for any
// input outside the scanner's subset.
func (d *decoder) scan(s *jsonx.Scanner) bool {
	r := &d.rec
	*r = Record{}
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(recordKeys, &f) {
		case 0: // kind
			r.Kind = s.StringOf(KindAdmit, KindRelease)
		case 1: // sid
			r.SID = s.StringOf(d.sid)
			d.sid = r.SID
		case 2: // index
			r.Index = s.Uint64()
		case 3: // admit
			r.Admit = &d.admit
			scanAdmit(s, &d.admit, &d.arena, false)
		case 4: // release
			r.Release = &d.release
			d.release = ReleaseRec{}
			var rf jsonx.Fields
			for s.Open('{'); s.More('}'); {
				if s.Field(releaseKeys, &rf) == 0 {
					r.Release.Seq = s.Uint64()
				}
			}
		}
	}
	return s.End() && (r.Admit != nil || r.Release != nil)
}

// The keys the scanner takes in a record, an admit body and a release
// body, in json.Marshal's order; every other key declines.
var (
	recordKeys  = jsonx.NewKeys("kind", "sid", "index", "admit", "release")
	admitKeys   = jsonx.NewKeys("seq", "tag", "env", "mapping")
	releaseKeys = jsonx.NewKeys("seq")
)

// scanAdmit decodes an admit body into a, reusing its storage, its paths
// in arena: a log record's, whose env keeps nothing of the read window,
// or (inPlace) a snapshot entry's, whose env keeps its bytes as a slice
// of the snapshot file, for the next snapshot to write.
func scanAdmit(s *jsonx.Scanner, a *AdmitRec, arena *spec.PathArena, inPlace bool) {
	a.Seq, a.Tag = 0, ""
	env, m := false, false
	var f jsonx.Fields
	for s.Open('{'); s.More('}'); {
		switch s.Field(admitKeys, &f) {
		case 0: // seq
			a.Seq = s.Uint64()
		case 1: // tag
			a.Tag = s.String()
		case 2: // env
			env = true
			if inPlace && !a.Env.ScanInPlace(s) || !inPlace && !a.Env.ScanReuse(s) {
				s.Fail()
			}
		case 3: // mapping
			m = true
			if !a.M.ScanReuse(s, arena) {
				s.Fail()
			}
		}
	}
	// A missing key leaves the zero value, not the last record's.
	if !env {
		a.Env = spec.EnvSpec{}
	}
	if !m {
		a.M = spec.MappingSpec{}
	}
}

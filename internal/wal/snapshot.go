package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/spec"
)

// snapshotName is the snapshot file inside the data directory; writes
// go through PublishFile, which stages at snapshotTmp.
const (
	snapshotName = "snapshot.json"
	snapshotTmp  = snapshotName + tmpSuffix
	tmpSuffix    = ".tmp"
)

// Snapshot is the full daemon state at one log boundary: every open
// session, exported at its own operation index. Recovery loads the
// snapshot, rebuilds the sessions, and replays the log suffix, skipping
// records whose Index is at or below the owning session's OpCount.
type Snapshot struct {
	// FirstSeg is the first log segment the snapshot does NOT cover:
	// the segment that became active when the snapshot's rotation
	// sealed its predecessors. Older segments are deleted after the
	// snapshot lands; recovery prunes any a crash left behind.
	FirstSeg uint64 `json:"first_seg"`
	// Sessions are the open sessions, in session-ID order.
	Sessions []SessionSnap `json:"sessions"`
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

// ActiveRec is one deployed environment in a session snapshot.
type ActiveRec struct {
	Seq uint64           `json:"seq"`
	Tag string           `json:"tag,omitempty"`
	Env spec.EnvSpec     `json:"env"`
	M   spec.MappingSpec `json:"mapping"`
}

// loadSnapshot reads the snapshot file; a missing file returns (nil,
// nil) — a log-only directory is valid (the daemon may die before its
// first snapshot).
func loadSnapshot(dir string) (*Snapshot, error) {
	buf, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: read snapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		return nil, fmt.Errorf("wal: decode snapshot: %w", err)
	}
	return &snap, nil
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

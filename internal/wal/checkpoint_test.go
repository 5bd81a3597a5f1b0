package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/spec"
)

// This file holds the checkpoint: a snapshot at the log's end as it
// stands, due by growth, that neither rotates nor prunes, and the
// recovery that seeks to it.

// exportOne is the export of a one-session daemon.
func exportOne(cs spec.ClusterSpec, s *core.Session) func() ([]SessionSnap, error) {
	return func() ([]SessionSnap, error) {
		return []SessionSnap{ExportSession(testSID, cs, "", cluster.VMMOverhead{}, 0, s)}, nil
	}
}

// forceCheckpoint makes a checkpoint due, however little the log has
// grown, and takes it.
func forceCheckpoint(t *testing.T, w *WAL, export func() ([]SessionSnap, error)) {
	t.Helper()
	w.log.grown.Store(w.limit.Load() + 1)
	if err := w.Checkpoint(export); err != nil {
		t.Fatal(err)
	}
	if w.CheckpointDue() {
		t.Fatal("a checkpoint is still due after one was taken")
	}
}

// segmentSize is the length of segment n of dir.
func segmentSize(t *testing.T, dir string, n uint64) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(dir, segName(n)))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestCheckpointDueByGrowth appends until the log has grown past eight
// times the 64 KiB floor: only then is a checkpoint due, and taking it
// fsyncs, publishes a snapshot at the end of the active segment, deletes
// nothing, reports through the hooks and sets the next limit from the
// snapshot's size.
func TestCheckpointDueByGrowth(t *testing.T) {
	dir := t.TempDir()
	c, cs := testCluster(t)
	var fsyncs, snapshots int
	w, _, err := Recover(dir, Hooks{
		OnFsync:    func(float64) { fsyncs++ },
		OnSnapshot: func(float64) { snapshots++ },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := loggedSession(t, w, c, cs)
	fsyncs = 0
	if err := w.Checkpoint(exportOne(cs, s)); err != nil || snapshots != 0 {
		t.Fatalf("a checkpoint ran before one was due: %d snapshots, %v", snapshots, err)
	}
	ops := 0
	for ; !w.CheckpointDue(); ops++ {
		applyOp(t, s, c, ops)
		if ops > 100000 {
			t.Fatal("the log never grew past the limit")
		}
	}
	if grown := w.log.grown.Load(); grown <= checkpointRatio*checkpointFloor || grown > checkpointRatio*checkpointFloor+64<<10 {
		t.Fatalf("due after %d bytes of log, the limit is %d", grown, checkpointRatio*checkpointFloor)
	}
	if err := w.Checkpoint(exportOne(cs, s)); err != nil {
		t.Fatal(err)
	}
	if fsyncs != 1 || snapshots != 1 {
		t.Errorf("the checkpoint reported %d fsyncs and %d snapshots, want 1 and 1", fsyncs, snapshots)
	}
	snap, err := loadSnapshot(dir)
	if err != nil || snap == nil {
		t.Fatalf("no snapshot: %v", err)
	}
	if snap.FirstSeg != 1 || snap.FirstOff != segmentSize(t, dir, 1) {
		t.Errorf("snapshot resumes at %s offset %d; the log ends at offset %d of %s",
			segName(snap.FirstSeg), snap.FirstOff, segmentSize(t, dir, 1), segName(1))
	}
	if segs, _ := listSegments(dir); !reflect.DeepEqual(segs, []uint64{1}) {
		t.Errorf("segments after a checkpoint: %v", segs)
	}
	if got, want := w.limit.Load(), checkpointLimit(snap.size); got != want || want < checkpointRatio*checkpointFloor {
		t.Errorf("next limit %d, want %d", got, want)
	}
	if w.CheckpointDue() {
		t.Error("still due")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Verify(dir, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 0 || res.Bytes != 0 {
		t.Errorf("recovery read %d records (%d bytes) past a checkpoint at the log's end", res.Records, res.Bytes)
	}
	sameAsWriter(t, stateOf(t, dir, res.Sessions, res.MaxSession, 0), map[string]*core.Session{testSID: s})
}

// TestRecoverThroughCheckpoints churns two sessions with a checkpoint
// every 40 operations and a compaction, a rotation and a session closed
// and opened again between them: recovery, which seeks to the last
// checkpoint, rebuilds the writer's sessions, agrees with a replay of
// the whole log onto the same snapshot, reads only the log after the
// checkpoint, and survives the last frame torn at every byte.
func TestRecoverThroughCheckpoints(t *testing.T) {
	dir := t.TempDir()
	c, cs := testCluster(t)
	w, _, err := Recover(dir, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := map[string]*core.Session{
		"s1": loggedSessionAs(t, w, c, cs, "s1"),
		"s2": loggedSessionAs(t, w, c, cs, "s2"),
	}
	export := func() ([]SessionSnap, error) {
		return []SessionSnap{
			ExportSession("s1", cs, "", cluster.VMMOverhead{}, 0, sess["s1"]),
			ExportSession("s2", cs, "", cluster.VMMOverhead{}, 0, sess["s2"]),
		}, nil
	}
	sids := []string{"s1", "s2"}
	for i := 0; i < 330; i++ {
		s := sess[sids[i%2]]
		if i%16 >= 14 {
			s.Rebalance(1)
		} else {
			applyOp(t, s, c, i/2)
		}
		switch {
		case i == 100:
			if err := w.WriteSnapshot(export); err != nil {
				t.Fatal(err)
			}
		case i == 150:
			if err := w.Append(&Record{Kind: KindClose, SID: "s1"}); err != nil {
				t.Fatal(err)
			}
			sess["s1"] = loggedSessionAs(t, w, c, cs, "s1")
		case i == 200:
			if _, err := w.log.rotate(); err != nil {
				t.Fatal(err)
			}
		case i%40 == 39:
			forceCheckpoint(t, w, export)
		}
	}
	exp := sess["s2"].Export()
	if len(exp.Active) == 0 {
		t.Fatal("schedule left s2 empty")
	}
	if err := sess["s2"].Release(exp.Active[0].M); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := loadSnapshot(dir)
	if err != nil || snap == nil || snap.FirstOff == 0 {
		t.Fatalf("the last snapshot is not a checkpoint: %+v, %v", snap, err)
	}
	if segs, _ := listSegments(dir); len(segs) < 2 || segs[0] >= snap.FirstSeg {
		t.Fatalf("segments %v: the log before the checkpoint at %s is gone", segs, segName(snap.FirstSeg))
	}
	all := 0
	if _, _, err := Each(dir, Hooks{}, func(*Record) error { all++; return nil }); err != nil {
		t.Fatal(err)
	}
	res, err := Verify(dir, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 || res.Records >= all/4 {
		t.Errorf("recovery read %d of the log's %d records", res.Records, all)
	}
	if res.MaxSession != 2 {
		t.Errorf("high-water mark %d, want 2", res.MaxSession)
	}

	tearLastFrame(t, dir)
	sameAsWriter(t, agree(t, dir, "whole log"), sess)
}

// TestCheckpointThenContinueEqualsUninterrupted is recover-then-continue
// through a checkpoint: a trace crashed at any point, recovered from its
// last checkpoint and driven on to its end leaves the same placements,
// ledger bits and counters as the run that never crashed.
func TestCheckpointThenContinueEqualsUninterrupted(t *testing.T) {
	const nOps = 160
	c, cs := testCluster(t)
	ref, err := core.NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nOps; i++ {
		if i%16 == 15 {
			ref.Rebalance(2)
			continue
		}
		applyOp(t, ref, c, i)
	}
	want := stateOfSession(t, ref, cluster.VMMOverhead{})

	for _, crash := range []int{23, 64, 101, 150} {
		t.Run(fmt.Sprintf("crash=%d", crash), func(t *testing.T) {
			dir := t.TempDir()
			w, _, err := Recover(dir, testHooks(t), nil)
			if err != nil {
				t.Fatal(err)
			}
			s := loggedSession(t, w, c, cs)
			op := func(s *core.Session, i int) {
				if i%16 == 15 {
					s.Rebalance(2)
					return
				}
				applyOp(t, s, c, i)
			}
			for i := 0; i < crash; i++ {
				op(s, i)
				if i%20 == 19 {
					forceCheckpoint(t, w, exportOne(cs, s))
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, res, err := Recover(dir, testHooks(t), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if len(res.Sessions) != 1 || res.Records > 20 {
				t.Fatalf("recovered %d sessions from %d records", len(res.Sessions), res.Records)
			}
			s2 := res.Sessions[0].Session
			for i := crash; i < nOps; i++ {
				op(s2, i)
			}
			if got := stateOfSession(t, s2, cluster.VMMOverhead{}); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered and continued:\n%+v\nuninterrupted:\n%+v", got, want)
			}
		})
	}
}

// TestCheckpointCrashAtEachStep crashes a checkpoint at each of its
// steps: after the cut's fsync and before the export, with the new
// snapshot half written to its staging file, and after it is published.
// Each directory recovers to the state the checkpoint exported — the
// acknowledged prefix — the first two from the log before the cut.
func TestCheckpointCrashAtEachStep(t *testing.T) {
	dir := t.TempDir()
	c, cs := testCluster(t)
	w, _, err := Recover(dir, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := loggedSession(t, w, c, cs)
	for i := 0; i < 30; i++ {
		applyOp(t, s, c, i)
	}
	forceCheckpoint(t, w, exportOne(cs, s))
	for i := 30; i < 50; i++ {
		applyOp(t, s, c, i)
	}
	beforeCut, halfWritten := t.TempDir(), t.TempDir()
	var wantState sessionState
	forceCheckpoint(t, w, func() ([]SessionSnap, error) {
		copyDir(t, dir, beforeCut)
		wantState = stateOfSession(t, s, cluster.VMMOverhead{})
		return exportOne(cs, s)()
	})
	copyDir(t, beforeCut, halfWritten)
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(halfWritten, snapshotTmp), snap[:len(snap)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]string{"before the export": beforeCut, "half written": halfWritten, "published": dir} {
		st := agree(t, d, name)
		if got := st.Sessions[testSID]; !reflect.DeepEqual(got, wantState) {
			t.Errorf("%s: recovered\n%+v\nwant\n%+v", name, got, wantState)
		}
	}
	w, _, err = Recover(halfWritten, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(halfWritten, snapshotTmp)); !os.IsNotExist(err) {
		t.Errorf("the staging file survived recovery: %v", err)
	}
}

// TestCheckpointFirstFrameTorn tears the first frame after a checkpoint
// at every byte, down to the checkpoint's own offset: a torn tail there
// is a crash, not a bad position.
func TestCheckpointFirstFrameTorn(t *testing.T) {
	dir := t.TempDir()
	c, cs := testCluster(t)
	w, _, err := Recover(dir, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := loggedSession(t, w, c, cs)
	for i := 0; i < 20; i++ {
		applyOp(t, s, c, i)
	}
	forceCheckpoint(t, w, exportOne(cs, s))
	if exp := s.Export(); len(exp.Active) > 0 {
		if err := s.Release(exp.Active[0].M); err != nil {
			t.Fatal(err)
		}
	} else {
		applyOp(t, s, c, 20)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := loadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := tearLastFrame(t, dir)
	if snap.FirstOff+int64(n) != segmentSize(t, dir, snap.FirstSeg) {
		t.Fatalf("the torn frame (%d bytes) is not the first after the checkpoint at %d", n, snap.FirstOff)
	}
}

// TestSnapshotPositionRefused points a checkpoint's snapshot past the end
// of its segment, inside a frame, and at a segment that is not there:
// recovery and its dry run refuse each with an error that says so, and
// the refused recovery changes nothing on disk.
func TestSnapshotPositionRefused(t *testing.T) {
	dir := t.TempDir()
	c, cs := testCluster(t)
	w, _, err := Recover(dir, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := loggedSession(t, w, c, cs)
	for i := 0; i < 12; i++ {
		applyOp(t, s, c, i)
	}
	forceCheckpoint(t, w, exportOne(cs, s))
	for i := 12; i < 16; i++ {
		applyOp(t, s, c, i)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := loadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	size := segmentSize(t, dir, snap.FirstSeg)
	for _, tc := range []struct {
		seg  uint64
		off  int64
		want string
	}{
		{snap.FirstSeg, size + 10, "past its end"},
		{snap.FirstSeg, snap.FirstOff + 3, "not a frame boundary"},
		{snap.FirstSeg, snap.FirstOff - 1, "not a frame boundary"},
		{snap.FirstSeg + 5, 8, "which is missing"},
	} {
		bad := t.TempDir()
		copyDir(t, dir, bad)
		moved := *snap
		moved.FirstSeg, moved.FirstOff = tc.seg, tc.off
		raw, err := json.Marshal(&moved)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(bad, snapshotName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		before := stateOf(t, bad, nil, 0, 0)
		if _, err := Verify(bad, Hooks{}, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Verify of a snapshot at %s offset %d: %v, want %q", segName(tc.seg), tc.off, err, tc.want)
		}
		if _, _, err := Recover(bad, Hooks{}, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Recover of a snapshot at %s offset %d: %v, want %q", segName(tc.seg), tc.off, err, tc.want)
		}
		if after := stateOf(t, bad, nil, 0, 0); !reflect.DeepEqual(after, before) {
			t.Errorf("a refused recovery changed the directory: %v -> %v", before.Files, after.Files)
		}
	}
}

// TestClosedSessionHighWaterSurvivesCompaction closes a session and then
// compacts the log, deleting every record that named it: the snapshot
// still carries its ordinal, so recovery reports it.
func TestClosedSessionHighWaterSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	c, cs := testCluster(t)
	w, _, err := Recover(dir, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := loggedSessionAs(t, w, c, cs, "s1")
	loggedSessionAs(t, w, c, cs, "s2")
	if err := w.Append(&Record{Kind: KindClose, SID: "s2"}); err != nil {
		t.Fatal(err)
	}
	export := func() ([]SessionSnap, error) {
		return []SessionSnap{ExportSession("s1", cs, "", cluster.VMMOverhead{}, 0, s)}, nil
	}
	if err := w.WriteSnapshot(export); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, res, err := Recover(dir, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 0 || res.MaxSession != 2 {
		t.Fatalf("recovered from %d records with high-water mark %d, want 0 and 2", res.Records, res.MaxSession)
	}
	// The mark carries on into the next snapshot, although this run saw no
	// record of s2 either.
	if err := w.WriteSnapshot(export); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if snap, err := loadSnapshot(dir); err != nil || snap.MaxSession != 2 {
		t.Fatalf("second snapshot: %+v, %v", snap, err)
	}
}

// TestSnapshotEncodingMatchesMarshal holds the snapshot encoder to
// encoding/json, byte for byte, on the shapes a snapshot takes: no
// sessions, a session with deployments, failures and cut links, and
// values the appenders decline.
func TestSnapshotEncodingMatchesMarshal(t *testing.T) {
	c, cs := testCluster(t)
	s, err := core.NewSession(c, cluster.VMMOverhead{Proc: 12.5, Mem: 64, Stor: 1.25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		applyOp(t, s, c, i)
	}
	if _, err := s.FailLink(0); err != nil {
		t.Fatal(err)
	}
	full := ExportSession("s3", cs, "HMN", cluster.VMMOverhead{Proc: 12.5, Mem: 64, Stor: 1.25}, 9, s)
	if len(full.Active) == 0 || len(full.Ledger.CutEdges) == 0 {
		t.Fatal("the export has no deployments or no cut link")
	}
	declined := full
	declined.SID = "s<4>"
	for _, snap := range []Snapshot{
		{FirstSeg: 1},
		{FirstSeg: 3, FirstOff: 123456, MaxSession: 7, Sessions: []SessionSnap{}},
		{FirstSeg: 2, FirstOff: 99, MaxSession: 3, Sessions: []SessionSnap{full, ExportSession("s4", cs, "", cluster.VMMOverhead{}, 0, s)}},
		{FirstSeg: 2, Sessions: []SessionSnap{declined}},
	} {
		want, err := json.Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.appendJSON([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Errorf("snapshot encodes as\n%s\nencoding/json writes\n%s", got[len("prefix"):], want)
		}
	}
}

package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jsonx"
	"repro/internal/spec"
)

// This file holds the checkpoint: a snapshot due by growth, which starts
// a fresh segment like every snapshot and deletes nothing, and the
// recovery that starts reading at that segment.

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

// TestCheckpointDueByGrowth appends until the log has grown past twice
// the 64 KiB floor: only then is a checkpoint due, and taking it
// fsyncs, publishes a snapshot at the start of a fresh segment, deletes
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
	if snap.FirstSeg != 2 {
		t.Errorf("snapshot resumes at %s, want the fresh %s", segName(snap.FirstSeg), segName(2))
	}
	if segs, _ := listSegments(dir); !reflect.DeepEqual(segs, []uint64{1, 2}) {
		t.Errorf("segments after a checkpoint: %v, want the sealed one and the fresh one", segs)
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
// every 40 operations and a snapshot, a compaction of the live
// directory, a rotation and a session closed and opened again between
// them: every segment since the compaction stays on disk, and recovery, which starts at the last checkpoint's
// segment, rebuilds the writer's sessions, agrees with a replay of the
// whole log onto the same snapshot, reads only the log after the
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
	var compacted uint64
	for i := 0; i < 330; i++ {
		s := sess[sids[i%2]]
		if i%16 >= 14 {
			s.Rebalance(1)
		} else {
			applyOp(t, s, c, i/2)
		}
		switch {
		case i == 100:
			if err := w.Snapshot(export); err != nil {
				t.Fatal(err)
			}
			if _, err := Compact(dir); err != nil {
				t.Fatal(err)
			}
			snap, err := loadSnapshot(dir)
			if err != nil {
				t.Fatal(err)
			}
			compacted = snap.FirstSeg
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
	if err != nil || snap == nil {
		t.Fatalf("no snapshot: %+v, %v", snap, err)
	}
	// The compaction deleted the segments before its own; every later
	// snapshot started one and deleted none.
	var want []uint64
	for n := compacted; n <= snap.FirstSeg; n++ {
		want = append(want, n)
	}
	if segs, _ := listSegments(dir); len(want) < 3 || !reflect.DeepEqual(segs, want) {
		t.Fatalf("segments %v, want %v: from the compaction's to the last checkpoint's", segs, want)
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

// TestRecoveryReadsAtMostTheCheckpointLimit holds the promise recovery
// is sized by: a restart reads at most checkpointRatio times the live
// state of log. A session churns through three checkpoints, each taken
// as the daemon takes it — after the operation whose records made it
// due — and a crash image is copied at five points of every cycle: just
// after the checkpoint, at a quarter, a half and three quarters of the
// limit, and once a checkpoint is due but not yet taken. Recovering an
// image reads at most checkpointLimit of its snapshot's size plus the
// records of the one operation that crossed the limit, and rebuilds the
// writer's session.
func TestRecoveryReadsAtMostTheCheckpointLimit(t *testing.T) {
	dir := t.TempDir()
	c, cs := testCluster(t)
	w, _, err := Recover(dir, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := loggedSession(t, w, c, cs)
	// step is the most log one operation has appended so far.
	var step int64
	cycle, images := 0, 0
	take := func(point string) {
		t.Helper()
		if err := w.Barrier(); err != nil {
			t.Fatal(err)
		}
		img := t.TempDir()
		copyDir(t, dir, img)
		res, err := Verify(img, Hooks{}, nil)
		if err != nil {
			t.Fatalf("cycle %d, %s: %v", cycle, point, err)
		}
		if limit := checkpointLimit(res.SnapshotBytes); res.Bytes > limit+step {
			t.Errorf("cycle %d, %s: recovery read %d bytes of log; a snapshot of %d bytes sets the limit at %d, and one operation appends at most %d",
				cycle, point, res.Bytes, res.SnapshotBytes, limit, step)
		}
		if len(res.Sessions) != 1 {
			t.Fatalf("cycle %d, %s: recovered %d sessions", cycle, point, len(res.Sessions))
		}
		got, want := stateOfSession(t, res.Sessions[0].Session, cluster.VMMOverhead{}), stateOfSession(t, s, cluster.VMMOverhead{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d, %s: recovered\n%+v\nthe writer's is\n%+v", cycle, point, got, want)
		}
		images++
	}
	quarter := 1
	for i := 0; cycle < 3; i++ {
		before := w.log.grown.Load()
		applyOp(t, s, c, i)
		step = max(step, w.log.grown.Load()-before)
		if w.CheckpointDue() {
			take("due, not yet taken")
			if err := w.Checkpoint(exportOne(cs, s)); err != nil {
				t.Fatal(err)
			}
			cycle, quarter = cycle+1, 1
			take("after the checkpoint")
			continue
		}
		if quarter < 4 && 4*w.log.grown.Load() >= int64(quarter)*w.limit.Load() {
			take(fmt.Sprintf("%d/4 of the limit", quarter))
			quarter++
		}
	}
	if images != 3*5 {
		t.Errorf("%d crash images, want %d", images, 3*5)
	}
	t.Logf("%d crash images; one operation appends at most %d bytes", images, step)
	if err := w.Close(); err != nil {
		t.Fatal(err)
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
	if err := w.Snapshot(export); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if removed, err := Compact(dir); err != nil || len(removed) == 0 {
		t.Fatalf("compaction removed segments %v, %v", removed, err)
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
	if err := w.Snapshot(export); err != nil {
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
		{FirstSeg: 3, MaxSession: 7, Sessions: []SessionSnap{}},
		{FirstSeg: 2, MaxSession: 3, Sessions: []SessionSnap{full, ExportSession("s4", cs, "", cluster.VMMOverhead{}, 0, s)}},
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

// snapCase is one snapshot file the decoder is held to json.Unmarshal
// on: whether the scanner takes it, and whether its bytes are the
// encoder's, which a decoded value must re-encode to.
type snapCase struct {
	name             string
	data             []byte
	scanned, encoded bool
}

// decodeCases returns the snapshots TestSnapshotEncodingMatchesMarshal
// encodes, after ops operations rather than its 40 (null sessions and
// an escaped session ID decline), the checkpoint fixture (its first_off
// declines), and edits of the full snapshot: null sessions, blanks, a
// repeated key and a three-number sum_proc, which json.Unmarshal
// truncates, decline; a ledger float with an exponent does not.
func decodeCases(t testing.TB, ops int) []snapCase {
	c, cs := testCluster(t)
	s, err := core.NewSession(c, cluster.VMMOverhead{Proc: 12.5, Mem: 64, Stor: 1.25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops; i++ {
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
	var cases []snapCase
	for i, snap := range []Snapshot{
		{FirstSeg: 1},
		{FirstSeg: 3, MaxSession: 7, Sessions: []SessionSnap{}},
		{FirstSeg: 2, MaxSession: 3, Sessions: []SessionSnap{full, ExportSession("s4", cs, "", cluster.VMMOverhead{}, 0, s)}},
		{FirstSeg: 2, Sessions: []SessionSnap{declined}},
	} {
		b, err := snap.appendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, snapCase{fmt.Sprintf("encoded %d", i), b, i == 1 || i == 2, true})
	}
	fullJSON := cases[2].data
	fixture, err := os.ReadFile(filepath.Join(checkpointFixture, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, fullJSON, "", "  "); err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) []byte {
		if !bytes.Contains(fullJSON, []byte(old)) {
			t.Fatalf("the full snapshot has no %s", old)
		}
		return bytes.Replace(fullJSON, []byte(old), []byte(new), 1)
	}
	return append(cases,
		snapCase{name: "first_off", data: fixture},
		snapCase{name: "null sessions", data: []byte(`{"first_seg":4,"max_session":1,"sessions":null}`)},
		snapCase{name: "indented", data: indented.Bytes()},
		snapCase{name: "repeated key", data: []byte(`{"first_seg":2,"first_seg":5,"sessions":[]}`)},
		snapCase{name: "exponent", data: edit(`"ledger":{"proc":[`, `"ledger":{"proc":[1.25e3,`), scanned: true},
		snapCase{name: "three-number sum_proc", data: edit(`"sum_proc":[`, `"sum_proc":[7,`)},
	)
}

// decodeAgrees holds decodeSnapshot to json.Unmarshal on one snapshot
// file: where the scanner accepts, its value is json.Unmarshal's but for
// the compact bytes an environment keeps of itself; where it declines,
// decodeSnapshot answers json.Unmarshal's value or error. It reports
// whether the scanner accepted.
func decodeAgrees(t *testing.T, data []byte) bool {
	t.Helper()
	var want Snapshot
	wantErr := json.Unmarshal(data, &want)
	var s jsonx.Scanner
	s.Reset(data)
	scanned := new(Snapshot).scan(&s)
	if scanned && wantErr != nil {
		t.Fatalf("the scanner took %q, which json.Unmarshal refuses: %v", data, wantErr)
	}
	got, err := decodeSnapshot(data)
	if wantErr != nil {
		if err == nil || err.Error() != "wal: decode snapshot: "+wantErr.Error() {
			t.Fatalf("decoding %q: %v, json.Unmarshal: %v", data, err, wantErr)
		}
		return false
	}
	if err != nil {
		t.Fatalf("decoding %q: %v, json.Unmarshal took it", data, err)
	}
	if g, w := withoutEnvBytes(*got), withoutEnvBytes(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%q decodes as\n%#v\njson.Unmarshal decodes\n%#v", data, g, w)
	}
	return scanned
}

// withoutEnvBytes is snap without the bytes an environment the scanner
// decoded keeps of its input, which json.Unmarshal cannot fill.
func withoutEnvBytes(snap Snapshot) Snapshot {
	snap.size, snap.took = 0, 0
	snap.Sessions = slices.Clone(snap.Sessions)
	for i := range snap.Sessions {
		sn := &snap.Sessions[i]
		sn.Active = slices.Clone(sn.Active)
		for j := range sn.Active {
			e := &sn.Active[j].Env
			*e = spec.EnvSpec{Guests: e.Guests, Links: e.Links}
		}
	}
	return snap
}

// TestSnapshotDecodeMatchesUnmarshal holds the snapshot decoder to
// json.Unmarshal on decodeCases: the scanner takes what it should, every
// value is json.Unmarshal's, and a snapshot the encoder wrote re-encodes
// from its decoded value to the same bytes.
func TestSnapshotDecodeMatchesUnmarshal(t *testing.T) {
	for _, tc := range decodeCases(t, 40) {
		if got := decodeAgrees(t, tc.data); got != tc.scanned {
			t.Errorf("%s: scanner accepted %v, want %v", tc.name, got, tc.scanned)
		}
		if !tc.encoded {
			continue
		}
		snap, err := decodeSnapshot(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := snap.appendJSON(nil); err != nil || !bytes.Equal(again, tc.data) {
			t.Errorf("%s re-encodes as\n%s\nnot\n%s", tc.name, again, tc.data)
		}
	}
}

// FuzzSnapshotDecode is decodeAgrees on arbitrary bytes, seeded with
// decodeCases of a shorter history: the engine minimizes every input
// that finds new coverage, which on a large seed takes most of a short
// run. CI runs it for a short burst; `make fuzz` for longer.
func FuzzSnapshotDecode(f *testing.F) {
	for _, tc := range decodeCases(f, 8) {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { decodeAgrees(t, data) })
}

// TestSnapshotFsyncFailureFaultsLog fails the fsync a snapshot's rotation
// makes: the log faults, so no later barrier can acknowledge a frame the
// failed fsync may have dropped.
func TestSnapshotFsyncFailureFaultsLog(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Recover(dir, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(&Record{Kind: KindOpen, SID: "s1", Open: &OpenRec{}}); err != nil {
		t.Fatal(err)
	}
	closed, err := os.Open(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	w.log.mu.Lock()
	f := w.log.f
	w.log.f = closed
	w.log.mu.Unlock()
	if err := w.Snapshot(func() ([]SessionSnap, error) { return nil, nil }); err == nil {
		t.Fatal("a snapshot whose fsync failed was published")
	}
	w.log.mu.Lock()
	w.log.f = f
	w.log.mu.Unlock()
	if err := w.Barrier(); err == nil {
		t.Fatal("a barrier after the failed fsync acknowledged the log")
	}
}

// checkpointFixture is a directory a build that checkpointed without
// rotating wrote: one segment, and a snapshot cut inside it at
// "first_off". Session s2 closed before the cut, s1 lives across it, s3
// opened after it.
const checkpointFixture = "testdata/checkpoint-785029c"

// TestSnapshotInsideSegmentRecovers recovers checkpointFixture, whose
// snapshot's first_off is no longer read: the segment is replayed from
// its start onto the snapshot, and the residuals come back as the
// writing build recovered them, to the byte (the digest is of each
// session's ledger encoding, as that build computed it).
func TestSnapshotInsideSegmentRecovers(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(checkpointFixture, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"first_off":39078`)) {
		t.Fatal("the fixture's snapshot lost its first_off")
	}
	const want = "7715bdf651e9e9dad54d56597295ae7f90895004c4a068c4b86e73437701d466"
	st := agree(t, checkpointFixture, "snapshot inside a segment")
	if st.MaxSession != 3 {
		t.Errorf("high-water mark %d, want 3", st.MaxSession)
	}
	dir := t.TempDir()
	copyDir(t, checkpointFixture, dir)
	w, res, err := Recover(dir, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if res.SnapshotBytes != int64(len(raw)) || res.SnapshotTime <= 0 {
		t.Errorf("recovery restored a snapshot of %d bytes in %v, want %d bytes in some time", res.SnapshotBytes, res.SnapshotTime, len(raw))
	}
	h := sha256.New()
	var sids []string
	for _, rs := range res.Sessions {
		sids = append(sids, rs.SID)
		h.Write([]byte(rs.SID + "\n"))
		h.Write(ledgerJSON(t, rs.Session))
		h.Write([]byte("\n"))
	}
	if !reflect.DeepEqual(sids, []string{"s1", "s3"}) {
		t.Errorf("recovered sessions %v, want [s1 s3]", sids)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("recovered residuals digest %s, want %s", got, want)
	}
}

// TestSnapshotLeavesOutSessionClosedAfterCut closes a session between a
// snapshot's cut and its export, after the session committed records
// past the cut: the export leaves the session out, and recovery skips
// its records as those of a session the snapshot had closed.
func TestSnapshotLeavesOutSessionClosedAfterCut(t *testing.T) {
	dir := t.TempDir()
	c, cs := testCluster(t)
	w, _, err := Recover(dir, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := loggedSessionAs(t, w, c, cs, "s1")
	s2 := loggedSessionAs(t, w, c, cs, "s2")
	for i := 0; i < 10; i++ {
		applyOp(t, s1, c, i)
		applyOp(t, s2, c, 50+i)
	}
	if err := w.Snapshot(func() ([]SessionSnap, error) {
		done := make(chan error)
		go func() {
			for i := 10; i < 14; i++ {
				applyOp(t, s2, c, 50+i)
			}
			done <- s2.Close()
		}()
		if err := <-done; err != nil {
			return nil, err
		}
		return []SessionSnap{ExportSession("s1", cs, "", cluster.VMMOverhead{}, 0, s1)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	applyOp(t, s1, c, 14)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := agree(t, dir, "session closed after the cut")
	sameAsWriter(t, st, map[string]*core.Session{"s1": s1})
	if st.MaxSession != 2 {
		t.Errorf("high-water mark %d, want 2", st.MaxSession)
	}
}

package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

const testSID = "s1"

// testCluster is a 12-host 4x3 torus drawn from the paper's capacity
// distribution — small enough for many full-recovery cycles per test.
func testCluster(t testing.TB) (*cluster.Cluster, spec.ClusterSpec) {
	t.Helper()
	p := workload.PaperClusterParams()
	p.Hosts = 12
	specs := workload.GenerateHosts(p, rand.New(rand.NewSource(1)))
	c, err := topology.Torus2D(specs, 4, 3, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	return c, spec.FromCluster(c)
}

func testEnv(seed int64) *virtual.Env {
	rng := rand.New(rand.NewSource(seed))
	return workload.GenerateEnv(workload.HighLevelParams(2+int(seed%4), 0.05), rng)
}

func testHooks(t *testing.T) Hooks {
	return Hooks{Logf: t.Logf}
}

// loggedSession opens a fresh session wired to w the way the daemon
// does: an open record first, then a commit hook appending one record
// per committed operation.
func loggedSession(t *testing.T, w *WAL, c *cluster.Cluster, cs spec.ClusterSpec) *core.Session {
	t.Helper()
	s := loggedSessionAs(t, w, c, cs, testSID)
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	return s
}

// loggedSessionAs is loggedSession under a session ID of the caller's
// choosing, its open record appended but not yet durable.
func loggedSessionAs(t *testing.T, w *WAL, c *cluster.Cluster, cs spec.ClusterSpec, sid string) *core.Session {
	t.Helper()
	s, err := core.NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Record{Kind: KindOpen, SID: sid, Open: &OpenRec{Cluster: cs}}); err != nil {
		t.Fatal(err)
	}
	s.SetCommitHook(func(ev core.Event) {
		if err := w.Append(RecordFromEvent(sid, cluster.VMMOverhead{}, ev)); err != nil {
			t.Errorf("append: %v", err)
		}
	})
	return s
}

// applyOp applies operation i of the deterministic chaos schedule: a
// mix of admissions, releases of the oldest tenant, and host
// fail/repair/restore pairs. The schedule is a pure function of i
// and the session state, so a reference run and a crash-recovered run
// fed the same indices perform identical operations.
func applyOp(t testing.TB, s *core.Session, c *cluster.Cluster, i int) {
	t.Helper()
	hosts := c.HostNodes()
	switch i % 8 {
	case 3:
		h := hosts[(i*7)%len(hosts)]
		if _, err := s.FailHostAndRepair(h); err != nil && !errors.Is(err, core.ErrAlreadyFailed) {
			t.Fatalf("op %d fail host: %v", i, err)
		}
		return
	case 4:
		// Restore whatever op i-1 failed (same index arithmetic).
		h := hosts[((i-1)*7)%len(hosts)]
		if err := s.RestoreHost(h); err != nil && !errors.Is(err, core.ErrNotFailed) {
			t.Fatalf("op %d restore host: %v", i, err)
		}
		return
	case 5:
		if exp := s.Export(); len(exp.Active) > 0 {
			if err := s.Release(exp.Active[0].M); err != nil {
				t.Fatalf("op %d release: %v", i, err)
			}
			return
		}
	}
	if _, _, err := s.MapTagged(testEnv(int64(i)), fmt.Sprintf("e%d", i)); err != nil &&
		!errors.Is(err, core.ErrNoHostFits) && !errors.Is(err, core.ErrNoPath) {
		t.Fatalf("op %d map: %v", i, err)
	}
}

// ledgerJSON is the byte-identity witness: Go's float64 JSON encoding
// is the shortest round-trip representation, so equal bytes means
// bit-equal residual vectors.
func ledgerJSON(t *testing.T, s *core.Session) []byte {
	t.Helper()
	raw, err := json.Marshal(s.Export().Ledger)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func activeSummary(s *core.Session) []string {
	exp := s.Export()
	out := make([]string, 0, len(exp.Active))
	for _, a := range exp.Active {
		out = append(out, fmt.Sprintf("%d:%s", a.Seq, a.Tag))
	}
	return out
}

// rebuild replays a Recovered the way the daemon does.
func rebuild(t *testing.T, rec *Recovered) map[string]*core.Session {
	t.Helper()
	replayed, _, err := Replay(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make(map[string]*core.Session, len(replayed))
	for _, rs := range replayed {
		sessions[rs.SID] = rs.Session
	}
	return sessions
}

func TestFrameRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindOpen, SID: "a", Open: &OpenRec{Mapper: "HMN"}},
		{Kind: KindRelease, SID: "a", Index: 7, Release: &ReleaseRec{Seq: 3}},
		{Kind: KindClose, SID: "a", Index: 8},
	}
	var buf []byte
	for i := range recs {
		var err error
		buf, err = appendFrame(buf, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i := range recs {
		rec, next, err := readFrame(buf, off)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(*rec, recs[i]) {
			t.Fatalf("frame %d: got %+v want %+v", i, *rec, recs[i])
		}
		off = next
	}
	if _, _, err := readFrame(buf, off); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF at end, got %v", err)
	}

	// A frame cut short is torn, not EOF.
	if _, _, err := readFrame(buf[:len(buf)-3], 0); err != nil {
		t.Fatalf("prefix frames should still read: %v", err)
	}
	_, next, _ := readFrame(buf, 0)
	_, next2, _ := readFrame(buf, next)
	if _, _, err := readFrame(buf[:len(buf)-3], next2); !isTorn(err) {
		t.Fatalf("want torn tail, got %v", err)
	}

	// A flipped payload byte fails the checksum.
	bad := append([]byte(nil), buf...)
	bad[frameHeaderSize+1] ^= 0x40
	if _, _, err := readFrame(bad, 0); !isTorn(err) {
		t.Fatalf("want checksum failure, got %v", err)
	}
}

func isTorn(err error) bool {
	var torn errTorn
	return errors.As(err, &torn)
}

// TestTornTailTruncated crashes mid-write: a partial frame lands at the
// end of the final segment. Open must keep every whole record, truncate
// the tail once, and report clean on the next recovery.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(&Record{Kind: KindRelease, SID: testSID, Index: uint64(i + 1), Release: &ReleaseRec{Seq: uint64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn in-flight write.
	frame, err := appendFrame(nil, &Record{Kind: KindClose, SID: testSID, Index: 4})
	if err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := filepath.Join(dir, segName(segs[len(segs)-1]))
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := frame[:len(frame)-5]
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, rec, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rec.Records))
	}
	if rec.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("truncated %d bytes, want %d", rec.TruncatedBytes, len(torn))
	}

	// The truncation is repaired on disk: a second recovery is clean.
	w3, rec2, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if rec2.TruncatedBytes != 0 || len(rec2.Records) != 3 {
		t.Fatalf("second recovery: %d records, %d truncated bytes", len(rec2.Records), rec2.TruncatedBytes)
	}
}

// TestCorruptSealedSegmentRejected flips one byte in a sealed (non-
// final) segment: that is corruption, not a torn tail, and recovery
// must refuse rather than silently drop acknowledged records.
func TestCorruptSealedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Record{Kind: KindRelease, SID: testSID, Index: 1, Release: &ReleaseRec{Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.log.rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Record{Kind: KindRelease, SID: testSID, Index: 2, Release: &ReleaseRec{Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	sealed := filepath.Join(dir, segName(segs[0]))
	buf, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	buf[frameHeaderSize+1] ^= 0x40
	if err := os.WriteFile(sealed, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(dir, testHooks(t)); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
	if _, err := Scan(dir, testHooks(t)); err == nil {
		t.Fatal("Scan accepted a corrupt sealed segment")
	}
	if _, _, err := Recover(dir, testHooks(t), nil); err == nil {
		t.Fatal("Recover accepted a corrupt sealed segment")
	}
	if _, err := Verify(dir, testHooks(t), nil); err == nil {
		t.Fatal("Verify accepted a corrupt sealed segment")
	}
}

// TestScanReportsWithoutRepair points Scan at a directory with a torn
// tail and checks it reports the damage without touching the file (the
// hmnwal contract: inspection never destroys evidence).
func TestScanReportsWithoutRepair(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Record{Kind: KindRelease, SID: testSID, Index: 1, Release: &ReleaseRec{Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	last := filepath.Join(dir, segName(segs[len(segs)-1]))
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}

	rec, err := Scan(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes != 3 || len(rec.Records) != 1 {
		t.Fatalf("scan: %d records, %d truncated bytes", len(rec.Records), rec.TruncatedBytes)
	}
	after, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("Scan changed the segment size: %d -> %d", before.Size(), after.Size())
	}
}

// TestMissingDirectoryHoldsNoLog: reading a directory that does not
// exist finds no log, as reading one without a snapshot file finds no
// snapshot — and creates nothing.
func TestMissingDirectoryHoldsNoLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	if ok, err := HasState(dir); ok || err != nil {
		t.Fatalf("HasState = %v, %v", ok, err)
	}
	if rec, err := Scan(dir, testHooks(t)); err != nil || rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("Scan = %+v, %v", rec, err)
	}
	if rec, err := Verify(dir, testHooks(t), nil); err != nil || len(rec.Sessions) != 0 || rec.Records != 0 {
		t.Fatalf("Verify = %+v, %v", rec, err)
	}
	if removed, err := Compact(dir); err != nil || len(removed) != 0 {
		t.Fatalf("Compact = %v, %v", removed, err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("reading the directory created it: %v", err)
	}
}

// TestListSegmentsSortsAndFilters: the segment numbers come back
// ascending whatever order the directory yields its names in, and every
// name that is not a segment — the snapshot, a temporary file, a number
// of the wrong width, a directory named like none — is left out.
func TestListSegmentsSortsAndFilters(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{segName(12), segName(3), segName(100), segName(1), "snapshot.json", "snapshot.json.tmp",
		"wal-12.log", "wal-0000000000000000000x.log", segName(7) + ".tmp", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "shard-0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if segs, err := listSegments(dir); err != nil || !reflect.DeepEqual(segs, []uint64{1, 3, 12, 100}) {
		t.Fatalf("listSegments = %v, %v; want [1 3 12 100]", segs, err)
	}
}

// TestSnapshotSuffixEquivalence drives a session, snapshots mid-stream,
// keeps going, and recovers from snapshot+suffix: the recovered session
// must match the live one bit for bit (residual ledger), including its
// active set, sequence counter and operation counter.
func TestSnapshotSuffixEquivalence(t *testing.T) {
	dir := t.TempDir()
	c, cs := testCluster(t)
	w, _, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	s := loggedSession(t, w, c, cs)
	for i := 0; i < 12; i++ {
		applyOp(t, s, c, i)
	}
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	err = w.Snapshot(func() ([]SessionSnap, error) {
		return []SessionSnap{ExportSession(testSID, cs, "", cluster.VMMOverhead{}, 0, s)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 20; i++ {
		applyOp(t, s, c, i)
	}
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, rec, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec.Snapshot == nil {
		t.Fatal("no snapshot recovered")
	}
	s2, ok := rebuild(t, rec)[testSID]
	if !ok {
		t.Fatal("session not recovered")
	}

	if got, want := ledgerJSON(t, s2), ledgerJSON(t, s); !bytes.Equal(got, want) {
		t.Errorf("recovered ledger diverges:\n got %s\nwant %s", got, want)
	}
	if got, want := activeSummary(s2), activeSummary(s); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered active set %v, want %v", got, want)
	}
	le, re := s.Export(), s2.Export()
	if le.NextSeq != re.NextSeq || le.OpCount != re.OpCount {
		t.Errorf("counters diverge: live seq=%d op=%d, recovered seq=%d op=%d",
			le.NextSeq, le.OpCount, re.NextSeq, re.OpCount)
	}
}

// legacyBatchLog is a log as a daemon run with the since-deleted
// hmnd -batch K > 1 left it (the cluster is the checked-in parent
// segment's): admit(1) · batch(2, two admissions) · release(3), then the
// admit(4) a current daemon appends after recovering it. The batch
// record occupies ONE operation index, so the admissions around it are
// indices 1, 2, 3, 4 while their seqs run 1, 2–3, –, 4.
var legacyBatchLog = []string{
	`{"kind":"open","sid":"s1","open":{"cluster":{"nodes":4,"hosts":[{"node":0,"name":"host-0","proc_mips":1000,"mem_mb":1024,"stor_gb":1000},{"node":1,"name":"host-1","proc_mips":1000,"mem_mb":1024,"stor_gb":1000},{"node":2,"name":"host-2","proc_mips":1000,"mem_mb":1024,"stor_gb":1000},{"node":3,"name":"host-3","proc_mips":1000,"mem_mb":256,"stor_gb":1000}],"links":[{"a":0,"b":1,"bw_mbps":1000,"lat_ms":5},{"a":0,"b":2,"bw_mbps":1000,"lat_ms":5},{"a":1,"b":3,"bw_mbps":1000,"lat_ms":5},{"a":2,"b":3,"bw_mbps":1000,"lat_ms":5}]},"mapper":"HMN","overhead_proc":0,"overhead_mem":0,"overhead_stor":0}}`,
	`{"kind":"admit","sid":"s1","index":1,"admit":{"seq":1,"tag":"e1","env":{"guests":[{"name":"a0","proc_mips":300.5,"mem_mb":512,"stor_gb":10}],"links":[]},"mapping":{"guest_host":[0],"link_paths":[],"objective":130.12176557920656}}}`,
	`{"kind":"batch","sid":"s1","index":2,"batch":[{"seq":2,"tag":"e2","env":{"guests":[{"name":"b0","proc_mips":10,"mem_mb":16,"stor_gb":1}],"links":[]},"mapping":{"guest_host":[1],"link_paths":[],"objective":127.65}},{"seq":3,"tag":"e3","env":{"guests":[{"name":"w0","proc_mips":20,"mem_mb":16,"stor_gb":1},{"name":"w1","proc_mips":20.25,"mem_mb":16,"stor_gb":1}],"links":[{"from":0,"to":1,"bw_mbps":1.5,"lat_ms":100}]},"mapping":{"guest_host":[3,1],"link_paths":[[3,1]],"link_edges":[[2]],"objective":121.5}}]}`,
	`{"kind":"release","sid":"s1","index":3,"release":{"seq":1}}`,
	`{"kind":"admit","sid":"s1","index":4,"admit":{"seq":4,"tag":"e4","env":{"guests":[{"name":"c0","proc_mips":400.125,"mem_mb":128,"stor_gb":2.5}],"links":[]},"mapping":{"guest_host":[2],"link_paths":[],"objective":170.3}}}`,
}

// TestLegacyBatchRecordKeepsItsOneIndex is the read side of the deleted
// batch kind under the condition that makes its index matter: a
// snapshot boundary after it. The legacy prefix is recovered from disk,
// snapshotted at operation 3, extended with admit(4) and recovered
// again; had the batch record advanced the operation index once per
// admission, the snapshot would sit at 4 and recovery would skip the
// admit as already applied. The result must equal a straight replay of
// all five records, and so must a recovery that meets the snapshot
// together with the whole log (a crash between publishing a snapshot
// and pruning the segments it covers).
func TestLegacyBatchRecordKeepsItsOneIndex(t *testing.T) {
	recs := make([]Record, len(legacyBatchLog))
	for i, raw := range legacyBatchLog {
		if err := json.Unmarshal([]byte(raw), &recs[i]); err != nil {
			t.Fatalf("fixture record %d: %v", i, err)
		}
	}
	straight := rebuild(t, &Recovered{Records: recs})[testSID]
	if straight == nil {
		t.Fatal("straight replay lost the session")
	}
	if got, want := activeSummary(straight), []string{"2:e2", "3:e3", "4:e4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("straight replay holds %v, want %v", got, want)
	}

	dir := t.TempDir()
	w, _, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs[:4] {
		if err := w.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, rec, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	replayed, _, err := Replay(rec, nil)
	if err != nil || len(replayed) != 1 {
		t.Fatalf("replaying the legacy prefix: %d sessions, %v", len(replayed), err)
	}
	rs := replayed[0]
	if exp := rs.Session.Export(); exp.OpCount != 3 || exp.NextSeq != 3 {
		t.Fatalf("after admit·batch·release: op=%d seq=%d, want 3 and 3", exp.OpCount, exp.NextSeq)
	}
	err = w.Snapshot(func() ([]SessionSnap, error) {
		return []SessionSnap{ExportSession(rs.SID, rs.ClusterSpec, rs.Mapper, rs.Overhead, 0, rs.Session)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&recs[4]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Compact(dir); err != nil {
		t.Fatal(err)
	}

	w, rec, err = Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if rec.Snapshot == nil || len(rec.Records) != 1 {
		t.Fatalf("recovery: snapshot=%v, %d records; want the snapshot and the one admit", rec.Snapshot != nil, len(rec.Records))
	}
	for name, from := range map[string]*Recovered{
		"snapshot+suffix":    rec,
		"snapshot+whole log": {Snapshot: rec.Snapshot, Records: recs},
	} {
		got := rebuild(t, from)[testSID]
		if got == nil {
			t.Fatalf("%s: session not recovered", name)
		}
		if g, want := ledgerJSON(t, got), ledgerJSON(t, straight); !bytes.Equal(g, want) {
			t.Errorf("%s: ledger diverges from the straight replay:\n got %s\nwant %s", name, g, want)
		}
		if g, want := activeSummary(got), activeSummary(straight); !reflect.DeepEqual(g, want) {
			t.Errorf("%s: active set %v, want %v", name, g, want)
		}
		ge, se := got.Export(), straight.Export()
		if ge.NextSeq != se.NextSeq || ge.OpCount != se.OpCount || se.OpCount != 4 {
			t.Errorf("%s: counters seq=%d op=%d, straight replay seq=%d op=%d, want op 4",
				name, ge.NextSeq, ge.OpCount, se.NextSeq, se.OpCount)
		}
	}

	// EachTag still walks the legacy kind, so a recovering daemon
	// advances its environment-ID counter past a batch's tags.
	var tags []string
	recs[2].EachTag(func(tag string) { tags = append(tags, tag) })
	if want := []string{"e2", "e3"}; !reflect.DeepEqual(tags, want) {
		t.Errorf("batch record names tags %v, want %v", tags, want)
	}
}

// TestChaosKillRestart is the crash harness: at each crash point the
// daemon-side session is killed (everything acknowledged is on disk,
// plus a torn partial frame from the in-flight write), recovered from
// snapshot+log, and driven through the rest of the schedule. The final
// ledger must be byte-identical to an uninterrupted reference run — the
// recovery produced the same state the crash interrupted, down to the
// floating-point bit pattern.
func TestChaosKillRestart(t *testing.T) {
	const nOps = 36
	c, cs := testCluster(t)

	ref, err := core.NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nOps; i++ {
		applyOp(t, ref, c, i)
	}
	wantLedger := ledgerJSON(t, ref)
	wantActive := activeSummary(ref)

	for _, crash := range []int{0, 5, 13, 27, 35} {
		t.Run(fmt.Sprintf("crash=%d", crash), func(t *testing.T) {
			dir := t.TempDir()
			w, _, err := Open(dir, testHooks(t))
			if err != nil {
				t.Fatal(err)
			}
			s := loggedSession(t, w, c, cs)
			for i := 0; i < crash; i++ {
				applyOp(t, s, c, i)
				if err := w.Barrier(); err != nil { // the per-request ack
					t.Fatal(err)
				}
				if crash >= 4 && i == crash/2 {
					err := w.Snapshot(func() ([]SessionSnap, error) {
						return []SessionSnap{ExportSession(testSID, cs, "", cluster.VMMOverhead{}, 0, s)}, nil
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			// Kill: everything acknowledged is synced; the write that was
			// in flight lands as a torn partial frame.
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			frame, err := appendFrame(nil, &Record{Kind: KindClose, SID: testSID, Index: 999})
			if err != nil {
				t.Fatal(err)
			}
			segs, _ := listSegments(dir)
			last := filepath.Join(dir, segName(segs[len(segs)-1]))
			f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(frame[:len(frame)-4]); err != nil {
				t.Fatal(err)
			}
			f.Close()

			w2, rec, err := Open(dir, testHooks(t))
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if rec.TruncatedBytes == 0 {
				t.Fatal("torn tail not detected")
			}
			s2, ok := rebuild(t, rec)[testSID]
			if !ok {
				t.Fatal("session not recovered")
			}
			for i := crash; i < nOps; i++ {
				applyOp(t, s2, c, i)
			}
			if got := ledgerJSON(t, s2); !bytes.Equal(got, wantLedger) {
				t.Errorf("ledger diverges from uninterrupted run:\n got %s\nwant %s", got, wantLedger)
			}
			if got := activeSummary(s2); !reflect.DeepEqual(got, wantActive) {
				t.Errorf("active set %v, want %v", got, wantActive)
			}
		})
	}
}

// TestCompactDeletesSegmentsBeforeSnapshot checks the log is bounded
// only by an operator's compaction: a snapshot deletes nothing, Compact
// then deletes the sealed segments before it and keeps the fresh one,
// and recovery reads only the snapshot plus the fresh suffix.
func TestCompactDeletesSegmentsBeforeSnapshot(t *testing.T) {
	dir := t.TempDir()
	c, cs := testCluster(t)
	w, _, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	s := loggedSession(t, w, c, cs)
	for i := 0; i < 8; i++ {
		applyOp(t, s, c, i)
	}
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	if removed, err := Compact(dir); err != nil || removed != nil {
		t.Fatalf("compacting before any snapshot removed %v, %v", removed, err)
	}
	err = w.Snapshot(func() ([]SessionSnap, error) {
		return []SessionSnap{ExportSession(testSID, cs, "", cluster.VMMOverhead{}, 0, s)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if segs, err := listSegments(dir); err != nil || !reflect.DeepEqual(segs, []uint64{1, 2}) {
		t.Fatalf("a snapshot left segments %v, %v; want it to delete none", segs, err)
	}
	if removed, err := Compact(dir); err != nil || !reflect.DeepEqual(removed, []uint64{1}) {
		t.Fatalf("compaction removed %v, %v; want the sealed segment 1", removed, err)
	}
	if segs, err := listSegments(dir); err != nil || !reflect.DeepEqual(segs, []uint64{2}) {
		t.Fatalf("want exactly the fresh segment after compaction, have %v, %v", segs, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, rec, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec.Snapshot == nil || len(rec.Records) != 0 {
		t.Fatalf("recovery after compaction: snapshot=%v records=%d", rec.Snapshot != nil, len(rec.Records))
	}
}

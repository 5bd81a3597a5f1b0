package wal

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/workload"
)

// This file holds the one-pass recovery (Recover, Verify: each record
// decoded into one reused Record, applied, forgotten) to the form it
// replaced (Open or Scan, then Replay over the collected slice).

// sessionState is everything recovery must reproduce of one session.
type sessionState struct {
	Ledger   string // residual vectors, byte-identity witness
	Active   []string
	Mappings string // the active mappings, as they would be logged again
	NextSeq  uint64
	OpCount  uint64
}

// dirState is the outcome of recovering one directory.
type dirState struct {
	Sessions   map[string]sessionState
	MaxSession int
	Truncated  int64
	// Files is the directory afterwards: a repair shows as the final
	// segment's new length.
	Files map[string]int64
}

// stateOfSession is what recovery must reproduce of s: the writer's live
// session or a recovered one.
func stateOfSession(t *testing.T, s *core.Session, overhead cluster.VMMOverhead) sessionState {
	t.Helper()
	exp := s.Export()
	var specs []spec.MappingSpec
	for _, a := range exp.Active {
		specs = append(specs, spec.FromMapping(a.M, overhead))
	}
	ms, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	return sessionState{
		Ledger: string(ledgerJSON(t, s)), Active: activeSummary(s),
		Mappings: string(ms), NextSeq: exp.NextSeq, OpCount: exp.OpCount,
	}
}

func stateOf(t *testing.T, dir string, sessions []*Replayed, maxSession int, truncated int64) dirState {
	t.Helper()
	st := dirState{Sessions: map[string]sessionState{}, MaxSession: maxSession, Truncated: truncated, Files: map[string]int64{}}
	for _, rs := range sessions {
		st.Sessions[rs.SID] = stateOfSession(t, rs.Session, rs.Overhead)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		st.Files[e.Name()] = info.Size()
	}
	return st
}

// viaScan recovers dir the old way: the whole log into a slice,
// then Replay over it.
func viaScan(t *testing.T, dir string, repair bool) (dirState, error) {
	t.Helper()
	var rec *Recovered
	var err error
	if repair {
		var w *WAL
		if w, rec, err = Open(dir, Hooks{}); err == nil {
			err = w.Close()
		}
	} else {
		rec, err = Scan(dir, Hooks{})
	}
	if err != nil {
		return dirState{}, err
	}
	sessions, maxSession, err := Replay(rec, nil)
	if err != nil {
		return dirState{}, err
	}
	return stateOf(t, dir, sessions, maxSession, rec.TruncatedBytes), nil
}

// streamed recovers dir in one pass, scribbling over the record after
// every callback: through Recover or Verify at the daemon's read-ahead
// window, through their steps for any other.
func streamed(t *testing.T, dir string, repair bool, window int) (dirState, error) {
	t.Helper()
	scribble := func(_ *Replayed, r *Record) { poison(r) }
	var (
		w   *WAL
		res *Recovery
		err error
	)
	switch {
	case window != frameWindow:
		var snap *Snapshot
		var segs []uint64
		if snap, segs, err = load(dir, repair); err != nil {
			break
		}
		p := logPass{dir: dir, repair: repair, fr: frameReader{buf: make([]byte, window)}}
		if res, err = p.replay(snap, segs, scribble); err == nil && repair {
			w, err = resume(dir, Hooks{}, snap, segs, res.Bytes, res.MaxSession)
		}
	case repair:
		w, res, err = Recover(dir, Hooks{}, scribble)
	default:
		res, err = Verify(dir, Hooks{}, scribble)
	}
	if err == nil && w != nil {
		err = w.Close()
	}
	if err != nil {
		return dirState{}, err
	}
	return stateOf(t, dir, res.Sessions, res.MaxSession, res.TruncatedBytes), nil
}

// poison overwrites everything a decoded record holds. A session that
// kept a reference into the record instead of a copy shows it in its
// ledger, its active set or its mappings.
func poison(r *Record) {
	ints := func(lists [][]int) {
		for _, l := range lists {
			for i := range l {
				l[i] = -7
			}
		}
	}
	admit := func(a *AdmitRec) {
		for i := range a.Env.Guests {
			a.Env.Guests[i] = spec.GuestSpec{Name: "poison", Proc: -1, Mem: -1, Stor: -1}
		}
		for i := range a.Env.Links {
			a.Env.Links[i] = spec.VLinkSpec{From: -1, To: -1, BW: -1, Lat: -1}
		}
		ints([][]int{a.M.GuestHost})
		ints(a.M.LinkPaths)
		ints(a.M.LinkEdges)
		a.Seq, a.Tag, a.M.Objective = ^uint64(0), "poison", -1
	}
	if r.Admit != nil {
		admit(r.Admit)
	}
	for i := range r.Batch {
		admit(&r.Batch[i])
	}
	if r.Release != nil {
		r.Release.Seq = ^uint64(0)
	}
	if r.Fail != nil {
		for i := range r.Fail.Evicted {
			r.Fail.Evicted[i] = ^uint64(0)
		}
		for i := range r.Fail.Repairs {
			if rr := &r.Fail.Repairs[i]; rr.M != nil {
				admit(&AdmitRec{Env: *rr.Env, M: *rr.M})
			}
		}
	}
	if r.Migrate != nil {
		for i := range r.Migrate.Moves {
			r.Migrate.Moves[i] = MoveRec{Seq: ^uint64(0), Guest: -1, From: -1, To: -1}
		}
		for i := range r.Migrate.Envs {
			e := &r.Migrate.Envs[i]
			ints([][]int{e.M.GuestHost})
			ints(e.M.LinkPaths)
			ints(e.M.LinkEdges)
		}
	}
	r.Kind, r.SID, r.Index = "poison", "poison", ^uint64(0)
}

// copyDir copies the files of a flat directory.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// testWindows are the read-ahead sizes the differential runs under: the
// daemon's; one a few frames wide, so frames straddle its edge all the
// time; one smaller than any frame, so every frame grows it.
var testWindows = []int{frameWindow, 4096, frameHeaderSize}

// agree recovers copies of dir both ways — repairing and read-only, and
// the one-pass form under every test window — and requires identical
// outcomes, errors included.
func agree(t *testing.T, dir, what string) dirState {
	t.Helper()
	var first dirState
	for _, repair := range []bool{false, true} {
		scratch := t.TempDir()
		copyDir(t, dir, scratch)
		want, wantErr := viaScan(t, scratch, repair)
		for _, window := range testWindows {
			scratch := t.TempDir()
			copyDir(t, dir, scratch)
			got, gotErr := streamed(t, scratch, repair, window)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s (repair=%v, window %d):\n    one pass: %v\nScan+Replay: %v", what, repair, window, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (repair=%v, window %d):\n    one pass: %+v\nScan+Replay: %+v", what, repair, window, got, want)
			}
		}
		if wantErr != nil {
			t.Fatalf("%s (repair=%v): %v", what, repair, wantErr)
		}
		if !repair {
			first = want
		}
	}
	return first
}

// tearLastFrame checks agree with the final segment cut at every byte
// offset of its last frame, and returns how long that frame is.
func tearLastFrame(t *testing.T, dir string) int {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	name := segName(segs[len(segs)-1])
	seg, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for off := 0; off < len(seg); {
		last = off
		_, next, err := readFrame(seg, off)
		if err != nil {
			t.Fatal(err)
		}
		off = next
	}
	whole := agree(t, dir, "whole log")
	torn := t.TempDir()
	copyDir(t, dir, torn)
	for cut := len(seg) - 1; cut >= last; cut-- {
		if err := os.WriteFile(filepath.Join(torn, name), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st := agree(t, torn, fmt.Sprintf("tail cut at byte %d of %d", cut, len(seg)))
		if want := int64(cut - last); st.Truncated != want {
			t.Fatalf("cut at %d: %d torn bytes, want %d", cut, st.Truncated, want)
		}
		if cut > last && reflect.DeepEqual(st.Sessions, whole.Sessions) {
			t.Fatalf("cut at %d: the torn record was applied", cut)
		}
	}
	return len(seg) - last
}

// TestOnePassAgreesOnParentSegment runs the differential on the
// checked-in log that carries all eight record kinds, whole and with its
// last frame torn at every byte.
func TestOnePassAgreesOnParentSegment(t *testing.T) {
	if n := tearLastFrame(t, parentSegment); n < frameHeaderSize+10 {
		t.Fatalf("last frame is %d bytes", n)
	}
}

// TestOnePassAgreesOnChurnLog runs the differential on a seeded 440-op
// log of two sessions — admit, release, fail with repairs, restore and
// migrate records — with a snapshot in the middle, a session closed and
// its ID opened again after the snapshot, and the suffix spread over
// several segments; whole, and with the last frame torn at every byte.
func TestOnePassAgreesOnChurnLog(t *testing.T) {
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
	sids := []string{"s1", "s2"}
	for i := 0; i < 440; i++ {
		s := sess[sids[i%2]]
		if i%16 >= 14 {
			s.Rebalance(1) // at most one migrate record
		} else {
			applyOp(t, s, c, i/2)
		}
		switch i {
		case 300:
			err := w.Snapshot(func() ([]SessionSnap, error) {
				return []SessionSnap{
					ExportSession("s1", cs, "", cluster.VMMOverhead{}, 0, sess["s1"]),
					ExportSession("s2", cs, "", cluster.VMMOverhead{}, 0, sess["s2"]),
				}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		case 340:
			// s1 retires and its ID is opened again: the new session's
			// indices restart below the snapshot boundary of the old one.
			if err := w.Append(&Record{Kind: KindClose, SID: "s1"}); err != nil {
				t.Fatal(err)
			}
			sess["s1"] = loggedSessionAs(t, w, c, cs, "s1")
		case 360, 400:
			if _, err := w.log.rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// End on a small frame, so tearing it at every byte stays cheap.
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

	kinds := map[string]int{}
	snap, _, err := Each(dir, Hooks{}, func(r *Record) error { kinds[r.Kind]++; return nil })
	if err != nil || snap == nil {
		t.Fatalf("reading the log back: snapshot %v, %v", snap != nil, err)
	}
	for _, k := range []string{KindOpen, KindClose, KindAdmit, KindRelease, KindFail, KindRestore, KindMigrate} {
		if kinds[k] == 0 {
			t.Fatalf("schedule wrote no %s record after the snapshot: %v", k, kinds)
		}
	}
	if segs, _ := listSegments(dir); len(segs) < 3 {
		t.Fatalf("log suffix spans segments %v, want at least three", segs)
	}

	tearLastFrame(t, dir)

	// The recovered sessions are the live ones.
	sameAsWriter(t, agree(t, dir, "whole log"), sess)
}

// sameAsWriter compares recovered sessions with the writer's live ones:
// ledger bytes, deployed (seq, tag, mapping bytes) and counters.
func sameAsWriter(t *testing.T, got dirState, live map[string]*core.Session) {
	t.Helper()
	if len(got.Sessions) != len(live) {
		t.Errorf("recovered %d sessions, the writer has %d", len(got.Sessions), len(live))
	}
	for sid, s := range live {
		if want := stateOfSession(t, s, cluster.VMMOverhead{}); !reflect.DeepEqual(got.Sessions[sid], want) {
			t.Errorf("session %s recovered as\n%+v\nthe writer's is\n%+v", sid, got.Sessions[sid], want)
		}
	}
}

// TestUnknownSessionIndexCountsAcrossSegments pins the record index in
// the replayer's one positional error: it numbers the log, not the
// segment.
func TestUnknownSessionIndexCountsAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	_, cs := testCluster(t)
	w, _, err := Recover(dir, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindOpen, SID: "s1", Open: &OpenRec{Cluster: cs}},
		{Kind: KindOpen, SID: "s2", Open: &OpenRec{Cluster: cs}},
		{Kind: KindRelease, SID: "s9", Index: 1, Release: &ReleaseRec{Seq: 1}},
	}
	for i := range recs {
		if i == 2 {
			if _, err := w.log.rotate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	const want = "wal: record 2 (release) names unknown session s9"
	if _, err := Verify(dir, Hooks{}, nil); err == nil || err.Error() != want {
		t.Errorf("Verify: %v, want %q", err, want)
	}
	rec, err := Scan(dir, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Replay(rec, nil); err == nil || err.Error() != want {
		t.Errorf("Replay: %v, want %q", err, want)
	}
	// A refused recovery publishes nothing: no WAL, no fresh segment.
	before, _ := listSegments(dir)
	if w, _, err := Recover(dir, Hooks{}, nil); err == nil || err.Error() != want {
		t.Errorf("Recover: %v (wal %v), want %q", err, w != nil, want)
	}
	if after, _ := listSegments(dir); !reflect.DeepEqual(after, before) {
		t.Errorf("refused recovery changed the segments: %v -> %v", before, after)
	}
}

// TestFrameReaderWindow walks one byte stream under windows from the
// header size up: the payloads must not depend on where the window's
// edge falls, and the window must end no larger than the largest frame
// plus its growth headroom.
func TestFrameReaderWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stream []byte
	var want []string
	largest := 0
	for i := 0; i < 200; i++ {
		payload := make([]byte, rng.Intn(300))
		if i == 120 {
			payload = make([]byte, 5000)
		}
		rng.Read(payload)
		stream = append(stream, frameOf(payload)...)
		want = append(want, string(payload))
		largest = max(largest, frameHeaderSize+len(payload))
	}
	for window := frameHeaderSize; window < 700; window += 13 {
		fr := frameReader{buf: make([]byte, window)}
		fr.reset(strings.NewReader(string(stream)), int64(len(stream)))
		for i := 0; ; i++ {
			payload, err := fr.next()
			if err != nil {
				if i != len(want) || err.Error() != "EOF" {
					t.Fatalf("window %d: frame %d of %d: %v", window, i, len(want), err)
				}
				break
			}
			if string(payload) != want[i] {
				t.Fatalf("window %d: frame %d differs", window, i)
			}
		}
		if fr.off != int64(len(stream)) {
			t.Fatalf("window %d: stopped at %d of %d", window, fr.off, len(stream))
		}
		if limit := largest + largest/4; len(fr.buf) > max(limit, window) {
			t.Fatalf("window %d grew to %d; the largest frame is %d", window, len(fr.buf), largest)
		}
	}
}

// recoveryBudget is what one-pass recovery may allocate per admit+release
// pair on top of the Env and Mapping it has to build for the session:
// the guest names and the tag (strings are copied out of the read
// window), the session's commit and release bookkeeping, and the
// amortised growth of the reused decode storage. A pass that kept the
// decoded records, or decoded each into fresh storage, adds the whole
// decoded admit record: 17 KB for the 40-guest environment below.
const recoveryBudget = 4 << 10

// TestRecoverMemoryIndependentOfLogLength replays N and 4N admit+release
// pairs of a 40-guest environment. The live heap, sampled after a
// collection eight times during the pass and once after it, must not
// depend on the length of the log, and the bytes allocated per pair must
// stay within recoveryBudget of building the Env and the Mapping.
func TestRecoverMemoryIndependentOfLogLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, err := topology.Switched(workload.GenerateHosts(workload.PaperClusterParams(), rng), workload.SwitchPorts, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		t.Fatal(err)
	}
	cs := spec.FromCluster(c)
	env := workload.GenerateEnv(workload.HighLevelParams(40, 0.02), rng)

	// What the session must be handed per admission, measured the same way.
	var m0 runtime.MemStats
	build := func() uint64 {
		envSpec := spec.FromEnv(env)
		m, err := (&core.HMN{}).Map(c, env)
		if err != nil {
			t.Fatal(err)
		}
		mSpec := spec.FromMapping(m, cluster.VMMOverhead{})
		const rounds = 64
		runtime.ReadMemStats(&m0)
		before := m0.TotalAlloc
		for i := 0; i < rounds; i++ {
			e, err := envSpec.ToEnv()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mSpec.ToMapping(c, e); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m0)
		return (m0.TotalAlloc - before) / rounds
	}()

	measure := func(pairs int) (live, perPair uint64) {
		dir := t.TempDir()
		w, _, err := Recover(dir, Hooks{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := loggedSessionAs(t, w, c, cs, "s1")
		for i := 0; i < pairs; i++ {
			m, _, err := s.MapTagged(env, fmt.Sprintf("e%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Release(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		var ms runtime.MemStats
		sample := func() {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			live = max(live, ms.HeapAlloc)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		base, allocBefore := ms.HeapAlloc, ms.TotalAlloc
		replayed := 0
		res, err := Verify(dir, Hooks{}, func(*Replayed, *Record) {
			if replayed++; replayed%(pairs/4) == 0 {
				sample()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		perPair = (ms.TotalAlloc - allocBefore) / uint64(pairs)
		sample()
		if res.Records != 2*pairs+1 || replayed != 2*pairs {
			t.Fatalf("read %d records and replayed %d, want %d and %d", res.Records, replayed, 2*pairs+1, 2*pairs)
		}
		runtime.KeepAlive(res)
		return live - min(live, base), perPair
	}

	const n = 200
	liveN, perN := measure(n)
	live4N, per4N := measure(4 * n)
	t.Logf("Env+Mapping %d B; %d pairs: live %d B, %d B/pair; %d pairs: live %d B, %d B/pair",
		build, n, liveN, perN, 4*n, live4N, per4N)
	if diff := int64(live4N) - int64(liveN); diff > 1<<20 || diff < -(1<<20) {
		t.Errorf("live heap during recovery: %d B over %d pairs, %d B over %d — it follows the log", liveN, n, live4N, 4*n)
	}
	for _, per := range []uint64{perN, per4N} {
		if per > build+recoveryBudget {
			t.Errorf("recovery allocated %d B per admit+release pair; building the Env and Mapping takes %d B, the budget on top is %d B", per, build, recoveryBudget)
		}
	}
}

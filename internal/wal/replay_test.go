package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// The one-pass recovery applies every operation record with ReplayRecord,
// as Replay does over a Scan. These tests hold it to the writer, to Scan +
// Replay and to a snapshot restore.

// churnOp admits testEnv(i) into s under tag e<i>, or, every third op,
// releases the oldest deployed environment.
func churnOp(t *testing.T, s *core.Session, i int) {
	t.Helper()
	if exp := s.Export(); i%3 == 2 && len(exp.Active) > 0 {
		if err := s.Release(exp.Active[0].M); err != nil {
			t.Fatal(err)
		}
		return
	}
	if _, _, err := s.MapTagged(testEnv(int64(i)), fmt.Sprintf("e%d", i)); err != nil && !strings.Contains(err.Error(), "no ") {
		t.Fatal(err)
	}
}

// TestRecoveryMatchesWriter writes a log with every record kind after a
// snapshot — admissions released after it, a session closed with
// admissions of it still deployed, its ID opened again, a host failure
// with repairs, its restore and a migrate in the middle of a session's
// admissions, and admissions that survive to the end — and recovers it:
// every session comes back as the writer holds it (ledger bytes; each
// deployment's seq, tag and mapping bytes; counters), and every torn
// tail of the last frame recovers too.
func TestRecoveryMatchesWriter(t *testing.T) {
	dir := t.TempDir()
	c, cs := testCluster(t)
	w, _, err := Recover(dir, testHooks(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]*core.Session{
		"s1": loggedSessionAs(t, w, c, cs, "s1"),
		"s2": loggedSessionAs(t, w, c, cs, "s2"),
	}
	for i := 0; i < 30; i++ {
		churnOp(t, live["s1"], i)
		churnOp(t, live["s2"], i)
	}
	err = w.Snapshot(func() ([]SessionSnap, error) {
		return []SessionSnap{
			ExportSession("s1", cs, "", cluster.VMMOverhead{}, 0, live["s1"]),
			ExportSession("s2", cs, "", cluster.VMMOverhead{}, 0, live["s2"]),
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// s2 admits after the snapshot and is closed with those admissions
	// still deployed; its ID comes back as a new session.
	for i := 30; i < 40; i++ {
		churnOp(t, live["s2"], i)
	}
	if err := w.Append(&Record{Kind: KindClose, SID: "s2"}); err != nil {
		t.Fatal(err)
	}
	live["s2"] = loggedSessionAs(t, w, c, cs, "s2")
	live["s3"] = loggedSessionAs(t, w, c, cs, "s3")

	// s1: admissions, then a failure that must see them, its restore, and
	// admissions after it, with a migrate among them.
	s1 := live["s1"]
	for i := 30; i < 50; i++ {
		churnOp(t, s1, i)
	}
	host := s1.Export().Active[0].M.GuestHost[0]
	if _, err := s1.FailHostAndRepair(host); err != nil {
		t.Fatal(err)
	}
	if err := s1.RestoreHost(host); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 90; i++ {
		churnOp(t, s1, i)
		if i%10 == 0 {
			s1.Rebalance(1)
		}
		churnOp(t, live["s2"], i)
		if i%4 == 0 {
			// s3 never releases: every admission of it survives.
			churnOp(t, live["s3"], 3*i)
		}
	}
	// End on a small frame, so tearing it at every byte stays cheap.
	if err := s1.Release(s1.Export().Active[0].M); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	if _, _, err := Each(dir, Hooks{}, func(r *Record) error { kinds[r.Kind]++; return nil }); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{KindOpen, KindClose, KindAdmit, KindRelease, KindFail, KindRestore, KindMigrate} {
		if kinds[k] == 0 {
			t.Fatalf("the schedule wrote no %s record after the snapshot: %v", k, kinds)
		}
	}
	sameAsWriter(t, agree(t, dir, "whole log"), live)
	tearLastFrame(t, dir)
}

// paperSwitched is the paper's 40-host switched cluster: node 40 is the
// switch.
func paperSwitched(t testing.TB) (*cluster.Cluster, spec.ClusterSpec) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	c, err := topology.Switched(workload.GenerateHosts(workload.PaperClusterParams(), rng), workload.SwitchPorts, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		t.Fatal(err)
	}
	return c, spec.FromCluster(c)
}

// unplaceable is one way to spoil a logged mapping so that building it
// would place a guest, or end a path, on a node the ledger has no row
// for.
type unplaceable struct {
	name string
	edit func(m *spec.MappingSpec)
	want string
}

// unplaceables maps an environment on c and returns the spoilt mappings,
// with the environment: a guest on node 999, on node -5 and on the
// switch; a path that starts, or ends, at a host its guest is not on.
func unplaceables(t testing.TB, c *cluster.Cluster) (*virtual.Env, *mapping.Mapping, []unplaceable) {
	t.Helper()
	env := workload.GenerateEnv(workload.HighLevelParams(4, 0.5), rand.New(rand.NewSource(6)))
	m, err := (&core.HMN{}).Map(c, env)
	if err != nil {
		t.Fatal(err)
	}
	inter := -1
	for l, p := range m.LinkPath {
		if len(p.Edges) > 0 {
			inter = l
			break
		}
	}
	if inter < 0 {
		t.Fatal("no virtual link crosses hosts")
	}
	from, to := int(m.GuestHost[env.Link(inter).From]), int(m.GuestHost[env.Link(inter).To])
	sw := -1
	for n := 0; n < c.Net().NumNodes() && sw < 0; n++ {
		if !c.IsHost(graph.NodeID(n)) {
			sw = n
		}
	}
	onNode := func(n int) func(*spec.MappingSpec) {
		return func(ms *spec.MappingSpec) { ms.GuestHost[0] = n }
	}
	pathAt := func(n int) func(*spec.MappingSpec) {
		return func(ms *spec.MappingSpec) { ms.LinkPaths[inter], ms.LinkEdges[inter] = []int{n}, []int{} }
	}
	return env, m, []unplaceable{
		{"guest on node 999", onNode(999), "node 999, which is not a host"},
		{"guest on node -5", onNode(-5), "node -5, which is not a host"},
		{"guest on the switch", onNode(sw), fmt.Sprintf("node %d, which is not a host", sw)},
		{"path from another host", pathAt(to), "path starts at node"},
		{"path to another host", pathAt(from), "path ends at node"},
	}
}

// writeLog writes the payloads to dir as the frames of a one-segment
// log, replacing whatever segment was there.
func writeLog(t testing.TB, dir string, payloads ...[]byte) {
	t.Helper()
	var seg []byte
	for _, p := range payloads {
		seg = append(seg, frameOf(p)...)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
}

// payloadOf is rec's frame payload.
func payloadOf(t testing.TB, rec *Record) []byte {
	t.Helper()
	frame, err := appendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame[frameHeaderSize:]
}

// TestUnplaceableAdmissionRefused: a CRC-valid admit record whose mapping
// places a guest on a node that is not a host, or runs a path from or to
// a host its guest is not on, is refused with an error — by the one-pass
// recovery, by Scan + Replay and by a snapshot entry that lists it —
// where building it used to panic or commit a ledger the mapping does not
// describe.
func TestUnplaceableAdmissionRefused(t *testing.T) {
	c, cs := paperSwitched(t)
	env, m, cases := unplaceables(t, c)
	open := payloadOf(t, &Record{Kind: KindOpen, SID: testSID, Open: &OpenRec{Cluster: cs}})
	fresh, err := core.NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			es, ms := spec.FromEnv(env), spec.FromMapping(m, cluster.VMMOverhead{})
			tc.edit(&ms)
			admit := payloadOf(t, &Record{Kind: KindAdmit, SID: testSID, Index: 1,
				Admit: &AdmitRec{Seq: 1, Tag: "e1", Env: es, M: ms}})
			dir := t.TempDir()
			writeLog(t, dir, open, admit)

			errs := map[string]error{}
			_, errs["one pass"] = Verify(dir, Hooks{}, nil)
			rec, err := Scan(dir, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			_, _, errs["Scan + Replay"] = Replay(rec, nil)
			_, _, errs["snapshot restore"] = RestoreSnap(SessionSnap{
				SID: testSID, Cluster: cs, NextSeq: 1, OpCount: 1, Ledger: fresh.Export().Ledger,
				Active: []ActiveRec{{Seq: 1, Tag: "e1", Env: es, M: ms}},
			})
			for path, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: %v, want an error saying %q", path, err, tc.want)
				}
			}
		})
	}
}

// FuzzReplayRecords replays logs of arbitrary records — the input's
// lines, each one frame's payload, after an open record for the paper's
// switched cluster — through the one pass, which decodes each record
// into reused storage, and through Scan + Replay, which holds them all.
// Neither may panic; a log Scan cannot decode must fail the one pass
// too, and otherwise both must refuse the log with the same error or
// recover the same sessions. The seeds are churn logs and the unplaceable admissions
// of TestUnplaceableAdmissionRefused.
func FuzzReplayRecords(f *testing.F) {
	c, cs := paperSwitched(f)
	open := payloadOf(f, &Record{Kind: KindOpen, SID: testSID, Open: &OpenRec{Cluster: cs}})
	lines := func(payloads ...[]byte) []byte { return bytes.Join(payloads, []byte("\n")) }

	var logged [][]byte
	s, err := core.NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	s.SetCommitHook(func(ev core.Event) {
		logged = append(logged, payloadOf(f, RecordFromEvent(testSID, cluster.VMMOverhead{}, ev)))
	})
	var ms []*mapping.Mapping
	for i := int64(0); i < 4; i++ {
		m, err := s.Map(testEnv(i))
		if err != nil {
			f.Fatal(err)
		}
		ms = append(ms, m)
	}
	if err := s.Release(ms[1]); err != nil {
		f.Fatal(err)
	}
	if _, err := s.FailHostAndRepair(ms[2].GuestHost[0]); err != nil {
		f.Fatal(err)
	}
	if err := s.RestoreHost(ms[2].GuestHost[0]); err != nil {
		f.Fatal(err)
	}
	if err := s.Release(ms[0]); err != nil {
		f.Fatal(err)
	}
	f.Add(lines(logged...))
	f.Add(lines(logged[0], logged[1], logged[4]))
	f.Add(lines(logged[0], logged[0]))

	env, m, cases := unplaceables(f, c)
	for _, tc := range cases {
		es, spoilt := spec.FromEnv(env), spec.FromMapping(m, cluster.VMMOverhead{})
		tc.edit(&spoilt)
		f.Add(lines(logged[0], payloadOf(f, &Record{Kind: KindAdmit, SID: testSID, Index: 2,
			Admit: &AdmitRec{Seq: 2, Tag: "e9", Env: es, M: spoilt}})))
	}
	f.Add([]byte(`{"kind":"release","sid":"s1","index":1,"release":{"seq":1}}`))
	f.Add([]byte(`{"kind":"admit","sid":"s1","index":1}` + "\n" + `{"kind":"fail","sid":"s1","index":2}`))

	// One directory per fuzzing process, its segment rewritten per input:
	// the minimizer runs thousands of inputs.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads := [][]byte{open}
		for _, line := range bytes.Split(data, []byte("\n")) {
			// Another open record could declare a cluster of any size.
			var probe struct {
				Open json.RawMessage `json:"open"`
			}
			if json.Unmarshal(line, &probe) == nil && probe.Open != nil {
				return
			}
			payloads = append(payloads, line)
		}
		if len(payloads) > 24 {
			return
		}
		writeLog(t, dir, payloads...)
		res, gotErr := Verify(dir, Hooks{}, nil)
		rec, scanErr := Scan(dir, Hooks{})
		if scanErr != nil {
			if gotErr == nil {
				t.Fatalf("Scan refuses the log (%v), the one pass recovered it", scanErr)
			}
			return
		}
		sessions, maxSession, wantErr := Replay(rec, nil)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("\n    one pass: %v\nScan+Replay: %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		got, want := stateOf(t, dir, res.Sessions, res.MaxSession, 0), stateOf(t, dir, sessions, maxSession, 0)
		if !equalJSON(t, got, want) {
			t.Fatalf("\n    one pass: %+v\nScan+Replay: %+v", got, want)
		}
	})
}

// equalJSON compares two values by their JSON.
func equalJSON(t *testing.T, a, b interface{}) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

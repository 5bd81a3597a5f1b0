package wal

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/virtual"
)

// skewedCluster is a 4-host torus engineered so admission piles two
// guests onto one host (h3 is memory-starved, h0/h1 get filled by a
// pinning tenant) and exactly one improving migration exists after the
// pins release — a deterministic scenario for the migrate record.
func skewedCluster(t *testing.T) (*cluster.Cluster, spec.ClusterSpec) {
	t.Helper()
	specs := []topology.HostSpec{
		{Proc: 1000, Mem: 1024, Stor: 1000},
		{Proc: 1000, Mem: 1024, Stor: 1000},
		{Proc: 1000, Mem: 1024, Stor: 1000},
		{Proc: 1000, Mem: 256, Stor: 1000},
	}
	c, err := topology.Torus2D(specs, 2, 2, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	return c, spec.FromCluster(c)
}

// TestMigrateRecordRecovery drives an admit/release/migrate history
// through a logged session with a snapshot taken right before the
// migration, so recovery must restore the snapshot and replay the
// migrate record across the boundary. The recovered ledger must match
// byte-for-byte and the migrated environment must carry its post-move
// placements under the original seq and tag.
func TestMigrateRecordRecovery(t *testing.T) {
	dir := t.TempDir()
	c, cs := skewedCluster(t)
	h := c.HostNodes()
	w, _, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	s := loggedSession(t, w, c, cs)

	pins := virtual.NewEnv()
	pins.AddGuest("pin0", 50, 1024, 10)
	pins.AddGuest("pin1", 50, 1024, 10)
	pinM, _, err := s.MapTagged(pins, "pins")
	if err != nil {
		t.Fatal(err)
	}
	pair := virtual.NewEnv()
	pair.AddGuest("b0", 400, 512, 10)
	pair.AddGuest("b1", 400, 512, 10)
	pairM, _, err := s.MapTagged(pair, "pair")
	if err != nil {
		t.Fatal(err)
	}
	if pairM.GuestHost[0] != h[2] || pairM.GuestHost[1] != h[2] {
		t.Fatalf("fixture drifted: pair at %v, want both on h2=%d", pairM.GuestHost, h[2])
	}
	if err := s.Release(pinM); err != nil {
		t.Fatal(err)
	}

	// Snapshot first, migrate after: the migrate record is the log
	// suffix recovery replays on top of the restored snapshot.
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	err = w.Snapshot(func() ([]SessionSnap, error) {
		return []SessionSnap{ExportSession(testSID, cs, "", cluster.VMMOverhead{}, 0, s)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The one improving move: guest 0 of the pair, off h2 onto h0.
	if res := s.Rebalance(1); res.Moves != 1 || res.ObjectiveAfter >= res.ObjectiveBefore {
		t.Fatalf("fixture round: %d moves, %g -> %g", res.Moves, res.ObjectiveBefore, res.ObjectiveAfter)
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

	// The logged record carries the plan's canonical effect.
	var mrec *Record
	for i := range rec.Records {
		if rec.Records[i].Kind == KindMigrate {
			if mrec != nil {
				t.Fatal("more than one migrate record logged")
			}
			mrec = &rec.Records[i]
		}
	}
	if mrec == nil {
		t.Fatal("no migrate record in the recovered log")
	}
	wantMoves := []MoveRec{{Seq: 2, Guest: 0, From: int(h[2]), To: int(h[0])}}
	if !reflect.DeepEqual(mrec.Migrate.Moves, wantMoves) {
		t.Fatalf("logged moves %+v, want %+v", mrec.Migrate.Moves, wantMoves)
	}
	if len(mrec.Migrate.Envs) != 1 || mrec.Migrate.Envs[0].Seq != 2 || mrec.Migrate.Envs[0].Tag != "pair" {
		t.Fatalf("logged envs %+v", mrec.Migrate.Envs)
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
	gm := s2.MappingBySeq(2)
	if gm == nil || !reflect.DeepEqual(gm.GuestHost, s.MappingBySeq(2).GuestHost) {
		t.Fatalf("recovered placements diverge: %v vs %v", gm, s.MappingBySeq(2))
	}
	if gm.GuestHost[0] != h[0] {
		t.Fatalf("replayed migration lost the move: guest 0 on %d, want %d", gm.GuestHost[0], h[0])
	}

	// The recovered session keeps operating: releasing the migrated
	// environment by its replayed mapping restores full capacity.
	if err := s2.Release(gm); err != nil {
		t.Fatal(err)
	}
	for i, r := range s2.ResidualProc() {
		if r != 1000 {
			t.Fatalf("host %d residual %v after final release, want 1000", i, r)
		}
	}
}

// TestTwoMoveMigrateRecordRecovery is the swap-shaped record old logs
// hold: one plan, two guests of two environments exchanging hosts, one of
// them dragging a link across the fabric. Rounds no longer draw such
// plans, so the test writes the plan's effect itself and commits it the
// way a log does (ReplayMigrate): the log still carries it as one
// migrate record, and recovery replays it to a byte-identical ledger.
func TestTwoMoveMigrateRecordRecovery(t *testing.T) {
	dir := t.TempDir()
	specs := make([]topology.HostSpec, 4)
	for i := range specs {
		specs[i] = topology.HostSpec{Proc: 1000, Mem: 1024, Stor: 1000}
	}
	c, err := topology.Torus2D(specs, 2, 2, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	cs := spec.FromCluster(c)
	h := c.HostNodes()
	w, _, err := Open(dir, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	s := loggedSession(t, w, c, cs)

	// h0 holds x (500) and z (300), linked; h1 holds y (100): exchanging x
	// and y takes the residuals from {200, 900} to {600, 500}.
	xz := virtual.NewEnv()
	xz.AddGuest("x", 500, 128, 10)
	xz.AddGuest("z", 300, 128, 10)
	xz.AddLink(0, 1, 10, 100)
	y := virtual.NewEnv()
	y.AddGuest("y", 100, 128, 10)
	for i, a := range []struct {
		env *virtual.Env
		tag string
		at  []graph.NodeID
	}{{xz, "xz", []graph.NodeID{h[0], h[0]}}, {y, "y", []graph.NodeID{h[1]}}} {
		m := &mapping.Mapping{Cluster: c, Env: a.env, GuestHost: a.at}
		for range a.env.NumLinks() {
			m.LinkPath = append(m.LinkPath, graph.TrivialPath(a.at[0])) // both of xz's guests share a host
		}
		if err := s.ReplayAdmit(a.env, m, a.tag, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	xz2, y2 := s.MappingBySeq(1).Clone(), s.MappingBySeq(2).Clone()
	xz2.GuestHost[0], y2.GuestHost[0] = h[1], h[0]
	var routed bool
	if xz2.LinkPath[0], routed = graph.AStarPrune(c.Net(), h[1], h[0], 10, 100, c.Net().NominalBandwidth(), nil); !routed || xz2.LinkPath[0].Len() == 0 {
		t.Fatalf("no route for the x-z link across the fabric: %v", xz2.LinkPath[0])
	}
	err = s.ReplayMigrate([]core.GuestMove{
		{Seq: 1, Guest: 0, From: h[0], To: h[1]},
		{Seq: 2, Guest: 0, From: h[1], To: h[0]},
	}, []core.ReplayMigrateEnv{{Seq: 1, Tag: "xz", M: xz2}, {Seq: 2, Tag: "y", M: y2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ResidualProc(); got[0] != 600 || got[1] != 500 {
		t.Fatalf("residuals %v after the swap, want 600 and 500 on the first two hosts", got)
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
	var mrec *Record
	for i := range rec.Records {
		if rec.Records[i].Kind == KindMigrate {
			mrec = &rec.Records[i]
		}
	}
	wantMoves := []MoveRec{
		{Seq: 1, Guest: 0, From: int(h[0]), To: int(h[1])},
		{Seq: 2, Guest: 0, From: int(h[1]), To: int(h[0])},
	}
	if mrec == nil || !reflect.DeepEqual(mrec.Migrate.Moves, wantMoves) || len(mrec.Migrate.Envs) != 2 {
		t.Fatalf("logged migrate record %+v, want one record with moves %+v over two environments", mrec, wantMoves)
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
	for seq := uint64(1); seq <= 2; seq++ {
		if got, want := s2.MappingBySeq(seq).GuestHost, s.MappingBySeq(seq).GuestHost; !reflect.DeepEqual(got, want) {
			t.Errorf("seq %d recovered on %v, want %v", seq, got, want)
		}
	}
}

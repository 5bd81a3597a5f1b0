package core

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// pileSession builds a session on a 4-host uniform torus holding one
// environment (seq 1, tag "e1") whose guests all sit on the first host —
// the worst-balanced placement a migration can only improve. Admitted
// through the replay path so no mapper interferes with the fixture.
func pileSession(t *testing.T, guests int) (*Session, []graph.NodeID, *virtual.Env) {
	t.Helper()
	c := mustTorus(t, uniformSpecs(4, 2000, 4096, 4000), 2, 2)
	hosts := c.HostNodes()
	s, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := virtual.NewEnv()
	at := make([]graph.NodeID, guests)
	for i := 0; i < guests; i++ {
		env.AddGuest("g", 400, 256, 100)
		at[i] = hosts[0]
	}
	m := &mapping.Mapping{Cluster: c, Env: env, GuestHost: at}
	if err := s.ReplayAdmit(env, m, "e1", 1); err != nil {
		t.Fatal(err)
	}
	return s, hosts, env
}

// migratePlan commits a plan of the test's own choosing — several moves,
// several environments, improving or not — the way a Rebalance round
// commits a move it scored: put the moves in canonical order (seq, then
// guest, ascending), resolve them against the live state, re-route and
// commit, all in one lock-hold. It returns the drop in the objective.
func (s *Session) migratePlan(moves []GuestMove) (float64, error) {
	norm := slices.Clone(moves)
	slices.SortFunc(norm, func(a, b GuestMove) int {
		return cmp.Or(cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.Guest, b.Guest))
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	envs, err := s.migrateEnvsLocked(norm)
	if err != nil {
		return 0, err
	}
	ms := getMapScratch()
	defer putMapScratch(ms)
	return s.commitMigrateLocked(norm, envs, ms)
}

func TestMigrateGuestsCommitsAtomically(t *testing.T) {
	s, h, _ := pileSession(t, 4)
	var events []Event
	s.SetCommitHook(func(ev Event) { events = append(events, ev) })
	oldM := s.MappingBySeq(1)
	before := s.ObjectiveStdDev()

	// Deliberately unsorted input: the event must carry it normalized.
	gain, err := s.migratePlan([]GuestMove{
		{Seq: 1, Guest: 3, From: h[0], To: h[3]},
		{Seq: 1, Guest: 1, From: h[0], To: h[1]},
		{Seq: 1, Guest: 2, From: h[0], To: h[2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := s.ObjectiveStdDev()
	if gain <= 0 || gain != before-after {
		t.Fatalf("gain %g for an objective that went %g -> %g", gain, before, after)
	}
	if after > 1e-9 {
		t.Fatalf("one guest per uniform host should balance exactly, got %g", after)
	}

	// The old mapping is retired untouched; the replacement carries the
	// environment under the same seq.
	newM := s.MappingBySeq(1)
	if newM == oldM {
		t.Fatal("session did not swap the active mapping pointer")
	}
	for _, node := range oldM.GuestHost {
		if node != h[0] {
			t.Fatal("retired mapping was mutated")
		}
	}
	want := []graph.NodeID{h[0], h[1], h[2], h[3]}
	if !slices.Equal(newM.GuestHost, want) {
		t.Fatalf("new placements %v, want %v", newM.GuestHost, want)
	}
	for _, r := range s.ResidualProc() {
		if r != 1600 {
			t.Fatalf("residuals %v, want all 1600", s.ResidualProc())
		}
	}

	// Exactly one EventMigrate, carrying the canonical moves and the
	// replacement mapping — what the WAL will serialize.
	if len(events) != 1 || events[0].Type != EventMigrate {
		t.Fatalf("events: %+v", events)
	}
	info := events[0].Migrate
	for i, mv := range info.Moves {
		if want := virtual.GuestID(i + 1); mv.Guest != want {
			t.Fatalf("event moves not in canonical order: %v", info.Moves)
		}
	}
	if len(info.Moves) != 3 || len(info.Envs) != 1 || info.Envs[0].Seq != 1 || info.Envs[0].Tag != "e1" || info.Envs[0].M != newM {
		t.Fatalf("event payload diverges from the committed state: %+v", info)
	}
	if info.Delta != -gain {
		t.Fatalf("event delta %g, want %g", info.Delta, -gain)
	}

	// Releasing the migrated environment by its current mapping restores
	// the primed baseline — the swap kept the registry coherent.
	if err := s.Release(newM); err != nil {
		t.Fatal(err)
	}
	for _, r := range s.ResidualProc() {
		if r != 2000 {
			t.Fatalf("release did not restore capacity: %v", s.ResidualProc())
		}
	}
}

func TestMigrateGuestsRejectsMalformedPlans(t *testing.T) {
	s, h, _ := pileSession(t, 4)
	before := s.ResidualProc()
	cases := []struct {
		name  string
		moves []GuestMove
		want  error // nil: any error
	}{
		{"unknown seq", []GuestMove{{Seq: 9, Guest: 0, From: h[0], To: h[1]}}, ErrNotActive},
		{"stale origin", []GuestMove{{Seq: 1, Guest: 0, From: h[1], To: h[2]}}, ErrMigrateConflict},
		{"not a host", []GuestMove{{Seq: 1, Guest: 0, From: h[0], To: 999}}, ErrUnknownTarget},
		{"guest out of range", []GuestMove{{Seq: 1, Guest: 7, From: h[0], To: h[1]}}, nil},
	}
	for _, tc := range cases {
		_, err := s.migratePlan(tc.moves)
		if err == nil {
			t.Fatalf("%s: committed", tc.name)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if !slices.Equal(s.ResidualProc(), before) {
		t.Fatalf("rejected plans touched the ledger: %v vs %v", s.ResidualProc(), before)
	}
}

// TestMigrateGuestsReroutesLinks moves one endpoint of a co-located pair
// off-host: the trivial intra-host path must be replaced by a real
// physical route and the mapping must stay formally valid.
func TestMigrateGuestsReroutesLinks(t *testing.T) {
	c := mustTorus(t, uniformSpecs(4, 2000, 4096, 4000), 2, 2)
	h := c.HostNodes()
	s, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := virtual.NewEnv()
	env.AddGuest("a", 400, 256, 100)
	env.AddGuest("b", 400, 256, 100)
	env.AddLink(0, 1, 10, 100)
	m := &mapping.Mapping{
		Cluster:   c,
		Env:       env,
		GuestHost: []graph.NodeID{h[0], h[0]},
		LinkPath:  make([]graph.Path, 1),
	}
	if err := s.ReplayAdmit(env, m, "e1", 1); err != nil {
		t.Fatal(err)
	}

	if _, err := s.migratePlan([]GuestMove{{Seq: 1, Guest: 1, From: h[0], To: h[1]}}); err != nil {
		t.Fatal(err)
	}
	nm := s.MappingBySeq(1)
	if nm.LinkPath[0].Len() == 0 {
		t.Fatal("split pair kept a trivial path")
	}
	if err := nm.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("post-migration mapping invalid: %v", err)
	}
	// Release must return every reserved resource, bandwidth included: a
	// second identical admission succeeds only then.
	if err := s.Release(nm); err != nil {
		t.Fatal(err)
	}
	for _, r := range s.ResidualProc() {
		if r != 2000 {
			t.Fatalf("release after reroute leaked: %v", s.ResidualProc())
		}
	}
}

// TestReplayMigrateRoundTrip replays the logged effect of a live commit
// into a second session restored to the same pre-migration state, and
// requires bit-identical residuals and placements — the WAL's
// byte-identical recovery contract at the session level.
func TestReplayMigrateRoundTrip(t *testing.T) {
	live, h, env := pileSession(t, 4)
	var info *MigrateInfo
	live.SetCommitHook(func(ev Event) {
		if ev.Type == EventMigrate {
			info = ev.Migrate
		}
	})
	if _, err := live.migratePlan([]GuestMove{
		{Seq: 1, Guest: 1, From: h[0], To: h[1]},
		{Seq: 1, Guest: 2, From: h[0], To: h[2]},
	}); err != nil {
		t.Fatal(err)
	}
	if info == nil {
		t.Fatal("no EventMigrate emitted")
	}

	restored, err := NewSession(live.Cluster(), cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := &mapping.Mapping{
		Cluster:   live.Cluster(),
		Env:       env,
		GuestHost: []graph.NodeID{h[0], h[0], h[0], h[0]},
	}
	if err := restored.ReplayAdmit(env, m2, "e1", 1); err != nil {
		t.Fatal(err)
	}
	envs := make([]ReplayMigrateEnv, 0, len(info.Envs))
	for _, e := range info.Envs {
		envs = append(envs, ReplayMigrateEnv{Seq: e.Seq, Tag: e.Tag, M: e.M})
	}
	if err := restored.ReplayMigrate(info.Moves, envs); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(live.ResidualProc(), restored.ResidualProc()) {
		t.Fatalf("replayed residuals diverge:\n live     %v\n restored %v",
			live.ResidualProc(), restored.ResidualProc())
	}
	if live.ObjectiveStdDev() != restored.ObjectiveStdDev() {
		t.Fatalf("objective diverges: %v vs %v", live.ObjectiveStdDev(), restored.ObjectiveStdDev())
	}
	if !slices.Equal(restored.MappingBySeq(1).GuestHost, live.MappingBySeq(1).GuestHost) {
		t.Fatal("replayed placements diverge")
	}
}

func TestReplayMigrateDiverged(t *testing.T) {
	live, h, _ := pileSession(t, 4)
	var info *MigrateInfo
	live.SetCommitHook(func(ev Event) {
		if ev.Type == EventMigrate {
			info = ev.Migrate
		}
	})
	if _, err := live.migratePlan([]GuestMove{{Seq: 1, Guest: 1, From: h[0], To: h[1]}}); err != nil {
		t.Fatal(err)
	}

	fresh := func() *Session {
		s, _, _ := pileSession(t, 4)
		return s
	}
	goodEnv := ReplayMigrateEnv{Seq: 1, Tag: "e1", M: info.Envs[0].M}

	cases := []struct {
		name  string
		moves []GuestMove
		envs  []ReplayMigrateEnv
	}{
		{"unknown seq", info.Moves, []ReplayMigrateEnv{{Seq: 9, Tag: "e1", M: goodEnv.M}}},
		{"wrong tag", info.Moves, []ReplayMigrateEnv{{Seq: 1, Tag: "other", M: goodEnv.M}}},
		{"nil mapping", info.Moves, []ReplayMigrateEnv{{Seq: 1, Tag: "e1"}}},
		{"move mismatch", []GuestMove{{Seq: 1, Guest: 1, From: h[2], To: h[1]}}, []ReplayMigrateEnv{goodEnv}},
		{"env without moves", nil, []ReplayMigrateEnv{goodEnv}},
		{"moves outside envs", append(slices.Clone(info.Moves),
			GuestMove{Seq: 5, Guest: 0, From: h[0], To: h[1]}), []ReplayMigrateEnv{goodEnv}},
	}
	for _, tc := range cases {
		s := fresh()
		before := s.ResidualProc()
		if err := s.ReplayMigrate(tc.moves, tc.envs); !errors.Is(err, ErrReplayDiverged) {
			t.Fatalf("%s: got %v, want ErrReplayDiverged", tc.name, err)
		}
		if !slices.Equal(s.ResidualProc(), before) {
			t.Fatalf("%s: diverged replay touched the ledger", tc.name)
		}
	}

	// A replacement mapping relocating a guest no move record names is a
	// divergence even when the named moves match.
	s := fresh()
	bad := info.Envs[0].M.Clone()
	bad.GuestHost[3] = h[2]
	if err := s.ReplayMigrate(info.Moves, []ReplayMigrateEnv{{Seq: 1, Tag: "e1", M: bad}}); !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("unrecorded relocation: got %v, want ErrReplayDiverged", err)
	}
}

// ReleaseTagged names an environment the way that survives a migrate: by
// tag, resolved under the session lock. The pointer a caller kept from
// admission is ErrNotActive by then.
func TestReleaseTaggedAfterMigrate(t *testing.T) {
	s, h, _ := pileSession(t, 4)
	oldM := s.MappingBySeq(1)
	if _, err := s.migratePlan([]GuestMove{{Seq: 1, Guest: 1, From: h[0], To: h[1]}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(oldM); !errors.Is(err, ErrNotActive) {
		t.Fatalf("release of the retired pointer: %v, want ErrNotActive", err)
	}
	for _, tag := range []string{"", "e2"} {
		if err := s.ReleaseTagged(tag); !errors.Is(err, ErrNotActive) {
			t.Fatalf("ReleaseTagged(%q): %v, want ErrNotActive", tag, err)
		}
	}
	var events []Event
	s.SetCommitHook(func(ev Event) { events = append(events, ev) })
	if err := s.ReleaseTagged("e1"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != EventRelease || events[0].ReleaseSeq != 1 {
		t.Fatalf("events: %+v, want one release of seq 1", events)
	}
	if s.Active() != 0 || s.ObjectiveStdDev() > 1e-9 {
		t.Fatalf("after release: %d active, stddev %g", s.Active(), s.ObjectiveStdDev())
	}
	if err := s.ReleaseTagged("e1"); !errors.Is(err, ErrNotActive) {
		t.Fatalf("second ReleaseTagged: %v, want ErrNotActive", err)
	}
}

package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// TestRebalanceSpreadsPiledHosts: four equal guests piled on one of four
// equal hosts take three moves to balance exactly, every scored move
// commits, and a second round finds nothing — and searches nothing.
func TestRebalanceSpreadsPiledHosts(t *testing.T) {
	s, _, _ := pileSession(t, 4)
	before := s.ObjectiveStdDev()
	res := s.Rebalance(0)
	if res.Moves != 3 || res.Scored != 3 || res.Skipped != 0 {
		t.Fatalf("round: %+v, want 3 scored moves, all committed (one guest stays)", res)
	}
	if res.ObjectiveBefore != before || res.ObjectiveAfter > 1e-9 || res.ObjectiveAfter != s.ObjectiveStdDev() {
		t.Fatalf("objective bracket %g -> %g, session went %g -> %g; uniform guests on uniform hosts balance exactly",
			res.ObjectiveBefore, res.ObjectiveAfter, before, s.ObjectiveStdDev())
	}
	if math.Abs(res.Gain-(res.ObjectiveBefore-res.ObjectiveAfter)) > 1e-9 {
		t.Fatalf("gain %g, bracket %g -> %g", res.Gain, res.ObjectiveBefore, res.ObjectiveAfter)
	}
	seen := map[graph.NodeID]int{}
	for _, node := range s.MappingBySeq(1).GuestHost {
		seen[node]++
	}
	for node, n := range seen {
		if n != 1 {
			t.Fatalf("host %d holds %d guests after the round, want 1", node, n)
		}
	}
	if again := s.Rebalance(0); again.Moves != 0 || again.Scored != 0 || again.Route.Searches != 0 {
		t.Fatalf("second round on a balanced session: %+v", again)
	}
}

func TestRebalanceMaxMovesCapsGuestMoves(t *testing.T) {
	s, _, _ := pileSession(t, 4)
	if res := s.Rebalance(2); res.Moves != 2 || res.Scored != 2 {
		t.Fatalf("round capped at 2 committed %d of %d scored moves", res.Moves, res.Scored)
	}
	if res := s.Rebalance(2); res.Moves != 1 {
		t.Fatalf("the next round had one move left to make, committed %d", res.Moves)
	}
}

// saturatedStar builds a session on a star of n 1000-MIPS hosts whose
// access links carry 100 Mbps: environment A (seq 1) has two linked
// 300-MIPS guests piled on h0, environment B (seq 2) keeps 95 Mbps
// flowing between h1 and h2 — the two least loaded hosts, and the first
// two destinations §4.2 tries for A's victim. A's 10 Mbps link cannot
// reach either of them. Past the third host, a 200-MIPS filler (seq 3)
// makes h3 the third destination tried rather than the first.
func saturatedStar(t *testing.T, n int) (*Session, []graph.NodeID) {
	t.Helper()
	c, err := topology.Star(uniformSpecs(n, 1000, 4096, 4000), 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := c.HostNodes()
	s, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	admit := func(seq uint64, env *virtual.Env, at ...graph.NodeID) {
		t.Helper()
		m := &mapping.Mapping{Cluster: c, Env: env, GuestHost: at, LinkPath: make([]graph.Path, env.NumLinks())}
		if err := s.ReplayAdmit(env, m, "", seq); err != nil {
			t.Fatal(err)
		}
	}
	b := virtual.NewEnv()
	b.AddGuest("b0", 50, 64, 10)
	b.AddGuest("b1", 100, 64, 10)
	b.AddLink(0, 1, 95, 100)
	a := virtual.NewEnv()
	a.AddGuest("a0", 300, 64, 10)
	a.AddGuest("a1", 300, 64, 10)
	a.AddLink(0, 1, 10, 100)
	admit(1, a, h[0], h[0])
	// B goes in co-located and is pulled apart through the router, which
	// is what puts its 95 Mbps on both access links.
	admit(2, b, h[1], h[1])
	if _, err := s.migratePlan([]GuestMove{{Seq: 2, Guest: 1, From: h[1], To: h[2]}}); err != nil {
		t.Fatal(err)
	}
	if n > 3 {
		f := virtual.NewEnv()
		f.AddGuest("f0", 200, 64, 10)
		admit(3, f, h[3])
	}
	return s, h
}

// TestRebalanceSkipsMovesItCannotRoute: a scored move whose re-route
// fails leaves the ledger bit-identical, is counted, and neither ends
// nor stalls the round.
func TestRebalanceSkipsMovesItCannotRoute(t *testing.T) {
	// Three hosts: both destinations are saturated, so the round scores
	// two moves, routes neither and commits nothing.
	s, _ := saturatedStar(t, 3)
	var events int
	s.SetCommitHook(func(Event) { events++ })
	before := s.Export()
	res := s.Rebalance(0)
	if res.Scored != 2 || res.Skipped != 2 || res.Moves != 0 {
		t.Fatalf("round: %+v, want 2 moves scored, 2 skipped", res)
	}
	if res.Route.Searches != 2 {
		t.Fatalf("round ran %d searches, want one per skipped move", res.Route.Searches)
	}
	if after := s.Export(); events != 0 || !reflect.DeepEqual(after.Ledger, before.Ledger) || after.Active[0].M != before.Active[0].M {
		t.Fatalf("skipped moves left a trace: %d events, ledger\n %+v\nwas\n %+v", events, after.Ledger, before.Ledger)
	}
	// The memory of what was skipped is the round's, not the session's.
	if again := s.Rebalance(0); again.Scored != 2 || again.Skipped != 2 {
		t.Fatalf("next round: %+v, want the same two moves scored and skipped again", again)
	}

	// Four hosts: the scan goes past the two saturated destinations to h3
	// within the same lock-hold. The later lock-holds of the round find
	// a0 → h1 improving again and must not try it twice.
	s, h := saturatedStar(t, 4)
	var migrates []*MigrateInfo
	s.SetCommitHook(func(ev Event) {
		if ev.Type != EventMigrate {
			t.Errorf("unexpected %v event", ev.Type)
		}
		migrates = append(migrates, ev.Migrate)
	})
	res = s.Rebalance(0)
	if res.Skipped != 2 || res.Moves == 0 || res.Scored != res.Moves+res.Skipped || len(migrates) != res.Moves {
		t.Fatalf("round: %+v with %d migrate events, want 2 skipped and every other scored move committed", res, len(migrates))
	}
	if first := migrates[0].Moves; len(first) != 1 || first[0] != (GuestMove{Seq: 1, Guest: 0, From: h[0], To: h[3]}) {
		t.Fatalf("first commit %+v, want a0 h0 -> h3 (past saturated h1 and h2)", first)
	}
	for _, m := range s.ActiveMappings() {
		if err := m.Validate(cluster.VMMOverhead{}); err != nil {
			t.Fatalf("mapping invalid after the round: %v", err)
		}
	}
}

// conserved recomputes every residual from the active set on a fresh
// ledger and holds the session's ledger to it: memory exactly, the
// float vectors to summation-order noise.
func conserved(t *testing.T, s *Session) {
	t.Helper()
	want, err := cluster.NewLedger(s.c, cluster.VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	for m := range s.active {
		for g, node := range m.GuestHost {
			guest := m.Env.Guest(virtual.GuestID(g))
			if err := want.ReserveGuest(node, guest.Proc, guest.Mem, guest.Stor); err != nil {
				t.Fatalf("active set does not fit the cluster: %v", err)
			}
		}
		for l, p := range m.LinkPath {
			if err := want.ReserveBandwidth(p, m.Env.Link(l).BW); err != nil {
				t.Fatalf("active set does not fit the cluster: %v", err)
			}
		}
	}
	got, ref := s.led.State(), want.State()
	if !reflect.DeepEqual(got.Mem, ref.Mem) {
		t.Fatalf("residual memory %v, active set implies %v", got.Mem, ref.Mem)
	}
	for name, pair := range map[string][2][]float64{"proc": {got.Proc, ref.Proc}, "stor": {got.Stor, ref.Stor}, "bw": {got.BW, ref.BW}} {
		for i := range pair[0] {
			if math.Abs(pair[0][i]-pair[1][i]) > 1e-6 {
				t.Fatalf("residual %s[%d] = %v, active set implies %v", name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestRebalanceQuiescentTorusSession runs unbounded rounds on a session
// shaped like hmnperf's torus_route — 500-guest low-level environments
// on the 8x8 10 Gbps / 1 ms torus, twelve admitted FIFO with four live —
// and nothing else going on. Every scored move commits or is a counted
// skip (the parent's planner had 84 % of its units refused by its own
// commit funnel here); after every commit the replaced mappings satisfy
// Eq. (1)-(9) and the ledger is what the active set implies; a second
// round commits nothing and searches nothing; and replaying the recorded
// events onto the state the round started from reproduces the residual
// vectors bit for bit.
func TestRebalanceQuiescentTorusSession(t *testing.T) {
	p := workload.PaperClusterParams()
	p.Hosts = 64
	c, err := topology.Torus2D(workload.GenerateHosts(p, rand.New(rand.NewSource(1))), 8, 8, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		env := workload.GenerateEnv(workload.LowLevelParams(500, 0.02), rand.New(rand.NewSource(int64(1000+i))))
		if _, err := s.Map(env); err != nil {
			t.Fatal(err)
		}
		for s.Active() > 4 {
			if err := s.Release(s.Export().Active[0].M); err != nil {
				t.Fatal(err)
			}
		}
	}
	start := s.Export()

	var migrates []*MigrateInfo
	s.SetCommitHook(func(ev Event) {
		// Under the session lock, right after the commit.
		if ev.Type != EventMigrate {
			t.Errorf("unexpected %v event", ev.Type)
			return
		}
		migrates = append(migrates, ev.Migrate)
		if len(ev.Migrate.Moves) != 1 || ev.Migrate.Delta >= 0 {
			t.Errorf("commit %d: %d moves for a change of %g, want one improving move", len(migrates), len(ev.Migrate.Moves), ev.Migrate.Delta)
		}
		for _, e := range ev.Migrate.Envs {
			if err := e.M.Validate(cluster.VMMOverhead{}); err != nil {
				t.Errorf("commit %d: seq %d violates Eq. (1)-(9): %v", len(migrates), e.Seq, err)
			}
		}
		conserved(t, s)
	})
	res := s.Rebalance(0)
	t.Logf("round: %d scored, %d committed, %d skipped, Eq. (10) %.2f -> %.2f, %d searches, lock held %.3fs",
		res.Scored, res.Moves, res.Skipped, res.ObjectiveBefore, res.ObjectiveAfter, res.Route.Searches, res.Seconds)
	if res.Moves < 50 {
		t.Fatalf("round committed %d moves; the fixture no longer fragments", res.Moves)
	}
	if res.Scored != res.Moves+res.Skipped || len(migrates) != res.Moves {
		t.Fatalf("round: %+v with %d migrate events; every scored move must commit or be a counted skip", res, len(migrates))
	}
	if res.Route.Searches == 0 || res.ObjectiveAfter >= res.ObjectiveBefore {
		t.Fatalf("round: %+v; moves on a torus re-route links and lower the objective", res)
	}
	again := s.Rebalance(0)
	if again.Moves != 0 || again.Scored != again.Skipped {
		t.Fatalf("second round on a quiescent session: %+v", again)
	}
	if again.Scored == 0 && again.Route.Searches != 0 {
		t.Fatalf("a round that scored nothing ran %d searches", again.Route.Searches)
	}

	replayed, err := RestoreSession(c, cluster.VMMOverhead{}, nil, start)
	if err != nil {
		t.Fatal(err)
	}
	for i, info := range migrates {
		envs := make([]ReplayMigrateEnv, len(info.Envs))
		for j, e := range info.Envs {
			envs[j] = ReplayMigrateEnv{Seq: e.Seq, Tag: e.Tag, M: e.M}
		}
		if err := replayed.ReplayMigrate(info.Moves, envs); err != nil {
			t.Fatalf("replaying commit %d: %v", i+1, err)
		}
	}
	if got, want := replayed.Export().Ledger, s.Export().Ledger; !reflect.DeepEqual(got, want) {
		t.Fatal("replaying the round's events does not reproduce its residual vectors bit for bit")
	}
}

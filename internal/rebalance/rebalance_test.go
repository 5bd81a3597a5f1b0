package rebalance

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/topology"
	"repro/internal/virtual"
)

func torus(t *testing.T, n int, proc float64, mem int64, stor float64, rows, cols int) *cluster.Cluster {
	t.Helper()
	specs := make([]topology.HostSpec, n)
	for i := range specs {
		specs[i] = topology.HostSpec{Proc: proc, Mem: mem, Stor: stor}
	}
	c, err := topology.Torus2D(specs, rows, cols, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// viewOf builds a PlanView by hand: one env whose guests sit at the given
// hosts, reserved on a fresh ledger.
func viewOf(t *testing.T, c *cluster.Cluster, env *virtual.Env, at []graph.NodeID) core.PlanView {
	t.Helper()
	led, err := cluster.NewLedger(c, cluster.VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	for g, node := range at {
		guest := env.Guest(virtual.GuestID(g))
		if err := led.ReserveGuest(node, guest.Proc, guest.Mem, guest.Stor); err != nil {
			t.Fatalf("fixture reserve guest %d on %d: %v", g, node, err)
		}
	}
	return core.PlanView{
		Ledger: led,
		Envs: []core.PlanEnv{{
			Seq: 1, Tag: "e1", Env: env,
			GuestHost: append([]graph.NodeID(nil), at...),
		}},
	}
}

func TestPlanSpreadsPiledHosts(t *testing.T) {
	c := torus(t, 4, 2000, 4096, 4000, 2, 2)
	hosts := c.HostNodes()
	env := virtual.NewEnv()
	for i := 0; i < 4; i++ {
		env.AddGuest("g", 400, 256, 100)
	}
	view := viewOf(t, c, env, []graph.NodeID{hosts[0], hosts[0], hosts[0], hosts[0]})
	before := view.Ledger.ObjectiveStdDev()

	units := Plan(view, 0)
	if len(units) != 3 {
		t.Fatalf("Plan proposed %d units, want 3 (one guest stays)", len(units))
	}
	for _, u := range units {
		if u.Swap || len(u.Moves) != 1 {
			t.Fatalf("expected single-guest moves, got %+v", u)
		}
		if u.Delta >= 0 {
			t.Fatalf("unit predicts non-improving delta %g", u.Delta)
		}
	}
	// The planning ledger carries the post-plan state: fully balanced.
	after := view.Ledger.ObjectiveStdDev()
	if after >= before {
		t.Fatalf("objective did not improve: %g -> %g", before, after)
	}
	if after > 1e-9 {
		t.Fatalf("uniform guests on uniform hosts should balance exactly, got stddev %g", after)
	}
	// And the view's placements match: one guest per host.
	seen := map[graph.NodeID]int{}
	for _, node := range view.Envs[0].GuestHost {
		seen[node]++
	}
	for node, n := range seen {
		if n != 1 {
			t.Fatalf("host %d holds %d guests after planning, want 1", node, n)
		}
	}
}

func TestPlanMaxMovesCapsGuestMoves(t *testing.T) {
	c := torus(t, 4, 2000, 4096, 4000, 2, 2)
	hosts := c.HostNodes()
	env := virtual.NewEnv()
	for i := 0; i < 4; i++ {
		env.AddGuest("g", 400, 256, 100)
	}
	view := viewOf(t, c, env, []graph.NodeID{hosts[0], hosts[0], hosts[0], hosts[0]})
	units := Plan(view, 2)
	moves := 0
	for _, u := range units {
		moves += len(u.Moves)
	}
	if moves != 2 {
		t.Fatalf("Plan committed %d moves, want 2 (capped)", moves)
	}
}

// TestPlanFindsSwapWhenNoSingleMoveFits pins the swap phase: every host's
// memory is full, so no one-way move can fit anywhere, yet exchanging a
// heavy-CPU guest for a light one (equal memory) improves the balance.
func TestPlanFindsSwapWhenNoSingleMoveFits(t *testing.T) {
	c := torus(t, 4, 1000, 1024, 4000, 2, 2)
	hosts := c.HostNodes()
	env := virtual.NewEnv()
	a1 := env.AddGuest("a1", 500, 512, 100) // h0
	env.AddGuest("a2", 200, 512, 100)       // h0 (memory now full)
	b := env.AddGuest("b", 400, 512, 100)   // h1
	env.AddGuest("f1", 0, 512, 100)         // h1 (memory full)
	env.AddGuest("f2", 0, 1024, 100)        // h2 (memory full)
	env.AddGuest("f3", 0, 1024, 100)        // h3 (memory full)
	view := viewOf(t, c, env, []graph.NodeID{
		hosts[0], hosts[0], hosts[1], hosts[1], hosts[2], hosts[3],
	})
	before := view.Ledger.ObjectiveStdDev()

	units := Plan(view, 0)
	if len(units) != 1 {
		t.Fatalf("Plan proposed %d units, want exactly 1 swap", len(units))
	}
	u := units[0]
	if !u.Swap || len(u.Moves) != 2 {
		t.Fatalf("expected a swap unit, got %+v", u)
	}
	if u.Moves[0].Guest != a1 || u.Moves[0].From != hosts[0] || u.Moves[0].To != hosts[1] {
		t.Fatalf("first half should move a1 h0->h1, got %+v", u.Moves[0])
	}
	if u.Moves[1].Guest != b || u.Moves[1].From != hosts[1] || u.Moves[1].To != hosts[0] {
		t.Fatalf("second half should move b h1->h0, got %+v", u.Moves[1])
	}
	if after := view.Ledger.ObjectiveStdDev(); after >= before {
		t.Fatalf("swap did not improve the objective: %g -> %g", before, after)
	}
}

// TestPlanMaxMovesSuppressesHalfSwaps: with one remaining move in the
// budget a swap (two guest moves) must not be proposed.
func TestPlanMaxMovesSuppressesHalfSwaps(t *testing.T) {
	c := torus(t, 4, 1000, 1024, 4000, 2, 2)
	hosts := c.HostNodes()
	env := virtual.NewEnv()
	env.AddGuest("a1", 500, 512, 100)
	env.AddGuest("a2", 200, 512, 100)
	env.AddGuest("b", 400, 512, 100)
	env.AddGuest("f1", 0, 512, 100)
	env.AddGuest("f2", 0, 1024, 100)
	env.AddGuest("f3", 0, 1024, 100)
	view := viewOf(t, c, env, []graph.NodeID{
		hosts[0], hosts[0], hosts[1], hosts[1], hosts[2], hosts[3],
	})
	if units := Plan(view, 1); len(units) != 0 {
		t.Fatalf("budget of 1 move cannot fit a swap, got %d units", len(units))
	}
}

// TestOrderByHeadroom pins the Wang-style schedule: the move whose
// destination has the most residual memory at its turn goes first, so a
// guest vacates a host before a bigger guest copies in.
func TestOrderByHeadroom(t *testing.T) {
	c := torus(t, 4, 2000, 4096, 4000, 2, 2)
	hosts := c.HostNodes()
	env := virtual.NewEnv()
	gA := env.AddGuest("big", 100, 3000, 100)
	gB := env.AddGuest("small", 100, 1000, 100)
	// Post-plan state, as Plan leaves the view: gA landed on h1, gB on h2.
	view := viewOf(t, c, env, []graph.NodeID{hosts[1], hosts[2]})
	units := []Unit{
		{Moves: []core.GuestMove{{Seq: 1, Guest: gA, From: hosts[0], To: hosts[1]}}, Delta: -1},
		{Moves: []core.GuestMove{{Seq: 1, Guest: gB, From: hosts[1], To: hosts[2]}}, Delta: -1},
	}
	ordered := orderByHeadroom(units, view)
	if len(ordered) != 2 {
		t.Fatalf("ordering changed unit count: %d", len(ordered))
	}
	// Pre-plan, h1 holds gB: moving gA (3000MB) in first would leave only
	// 96MB of copy headroom, while moving gB out first leaves 1096MB.
	if ordered[0].Moves[0].Guest != gB {
		t.Fatalf("small guest must vacate h1 before the big guest copies in; got order %v then %v",
			ordered[0].Moves[0], ordered[1].Moves[0])
	}
}

// sessionWithPile builds a live session holding one tagged environment
// whose guests all sit on the first host — the worst-balanced placement —
// admitted through the replay path so no mapper interferes.
func sessionWithPile(t *testing.T) (*core.Session, []graph.NodeID) {
	t.Helper()
	c := torus(t, 4, 2000, 4096, 4000, 2, 2)
	hosts := c.HostNodes()
	s, err := core.NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := virtual.NewEnv()
	for i := 0; i < 4; i++ {
		env.AddGuest("g", 400, 256, 100)
	}
	m := &mapping.Mapping{
		Cluster:   c,
		Env:       env,
		GuestHost: []graph.NodeID{hosts[0], hosts[0], hosts[0], hosts[0]},
		LinkPath:  nil,
	}
	if err := s.ReplayAdmit(env, m, "e1", 1); err != nil {
		t.Fatal(err)
	}
	return s, hosts
}

func TestSchedulerRunOnceRebalancesSession(t *testing.T) {
	s, _ := sessionWithPile(t)
	before := s.ObjectiveStdDev()

	var commits int
	sched := New(s, time.Hour, 0, Hooks{
		OnCommit: func(u Unit, res *core.MigrateResult, err error) {
			if err != nil {
				t.Fatalf("unit failed to commit: %v", err)
			}
			commits++
		},
	})
	moved := sched.RunOnce()
	if moved != 3 {
		t.Fatalf("RunOnce committed %d moves, want 3", moved)
	}
	if commits != 3 {
		t.Fatalf("OnCommit fired %d times, want 3", commits)
	}
	after := s.ObjectiveStdDev()
	if after >= before || after > 1e-9 {
		t.Fatalf("session objective not balanced: %g -> %g", before, after)
	}
	// Idempotence: a balanced session plans nothing.
	if again := sched.RunOnce(); again != 0 {
		t.Fatalf("second round moved %d guests on a balanced session", again)
	}
}

func TestSchedulerBackgroundLoop(t *testing.T) {
	s, _ := sessionWithPile(t)
	done := make(chan struct{}, 16)
	sched := New(s, 2*time.Millisecond, 0, Hooks{
		AfterRound: func() error {
			select {
			case done <- struct{}{}:
			default:
			}
			return nil
		},
	})
	sched.Start()
	sched.Start() // idempotent
	defer sched.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("background loop never completed a committing round")
	}
	sched.Stop()
	sched.Stop() // idempotent
	if s.ObjectiveStdDev() > 1e-9 {
		t.Fatalf("background loop left the session unbalanced: %g", s.ObjectiveStdDev())
	}
}

package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/virtual"
)

// piledDomain opens a lock domain without a log on a 4-host uniform
// torus, holding one environment whose four equal guests all sit on the
// first host: three moves balance it exactly.
func piledDomain(t *testing.T, cfg Config) *Shard {
	t.Helper()
	c, err := topology.Torus2D(uniformSpecs(4, 2000, 4096, 4000), 2, 2, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := Open(cfg, "s1", c, spec.FromCluster(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	env := virtual.NewEnv()
	at := make([]graph.NodeID, 4)
	for i := range at {
		env.AddGuest("g", 400, 256, 100)
		at[i] = c.HostNodes()[0]
	}
	m := &mapping.Mapping{Cluster: c, Env: env, GuestHost: at}
	if err := sh.Session().ReplayAdmit(env, m, "e1", 1); err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestShardRebalanceRound: one round through the domain commits the
// session's moves under the configured cap, and OnRebalance sees exactly
// what the caller is returned — the one place the daemon's rebalance
// metrics are fed from.
func TestShardRebalanceRound(t *testing.T) {
	var seen []core.RebalanceResult
	sh := piledDomain(t, Config{
		RebalanceMaxMoves: 2,
		Hooks:             Hooks{OnRebalance: func(res core.RebalanceResult) { seen = append(seen, res) }},
	})

	first := sh.Rebalance()
	if first.Moves != 2 || first.Scored != 2 || first.ObjectiveAfter >= first.ObjectiveBefore {
		t.Fatalf("first round: %+v, want the cap's 2 moves", first)
	}
	second := sh.Rebalance()
	if second.Moves != 1 || sh.Session().ObjectiveStdDev() > 1e-9 {
		t.Fatalf("second round: %+v leaving stddev %g, want the last move and an exact balance",
			second, sh.Session().ObjectiveStdDev())
	}
	if third := sh.Rebalance(); third.Moves != 0 || third.Scored != 0 {
		t.Fatalf("round on a balanced domain: %+v", third)
	}
	if len(seen) != 3 || seen[0] != first || seen[1] != second {
		t.Fatalf("OnRebalance saw %+v, want the three rounds as returned", seen)
	}
}

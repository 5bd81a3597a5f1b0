package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/workload"
)

func TestConsolidatorProducesValidMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c := mustTorus(t, specs, 8, 5)
	v := workload.GenerateEnv(workload.HighLevelParams(120, 0.02), rng)

	m, err := (&Consolidator{}).Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("HMN-C produced an invalid mapping: %v", err)
	}
}

func TestConsolidatorUsesFewerOrEqualHosts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c := mustTorus(t, specs, 8, 5)
	v := workload.GenerateEnv(workload.HighLevelParams(120, 0.02), rng)

	hmn, err := (&HMN{}).Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := (&Consolidator{}).Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	hu := HostsUsed(hmn.GuestHost)
	cu := HostsUsed(cons.GuestHost)
	if cu > hu {
		t.Fatalf("consolidator used %d hosts, HMN used %d", cu, hu)
	}
	if cu == 0 {
		t.Fatal("no hosts used?")
	}
}

func TestConsolidatorName(t *testing.T) {
	if (&Consolidator{}).Name() != "HMN-C" {
		t.Fatal("wrong name")
	}
}

func TestConsolidateEmptiesObviousHost(t *testing.T) {
	// Three identical hosts; two guests on separate hosts both fit on
	// one: consolidation must end with a single used host.
	specs := uniformSpecs(3, 2000, 2048, 2000)
	c, err := topology.Line(specs, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := virtual.NewEnv()
	v.AddGuest("a", 100, 256, 100)
	v.AddGuest("b", 100, 256, 100)

	led, _ := cluster.NewLedger(c, cluster.VMMOverhead{})
	assign := []graph.NodeID{0, 1}
	for g, node := range assign {
		guest := v.Guest(virtual.GuestID(g))
		if err := led.ReserveGuest(node, guest.Proc, guest.Mem, guest.Stor); err != nil {
			t.Fatal(err)
		}
	}
	emptied := consolidate(led, v, assign, 0, testIndex(led))
	if emptied != 1 {
		t.Fatalf("emptied %d hosts, want 1", emptied)
	}
	if HostsUsed(assign) != 1 {
		t.Fatalf("hosts used = %d, want 1", HostsUsed(assign))
	}
	// Ledger must agree with the assignment.
	if led.ResidualMem(assign[0]) != 2048-512 {
		t.Fatalf("receiver residual memory wrong: %d", led.ResidualMem(assign[0]))
	}
}

func TestConsolidateAtomicRollback(t *testing.T) {
	// Donor host 0 holds a(400MB)+b(300MB); receiver host 1 holds
	// c(300MB) with 500MB residual. Host 1 cannot be emptied (c needs
	// 300MB, host 0 has only 200MB left), so host 0 becomes the donor:
	// a moves tentatively (500 -> 100 residual), b(300MB) then fits
	// nowhere — the relocation must roll back completely.
	specs := []topology.HostSpec{
		{Proc: 2000, Mem: 900, Stor: 2000},
		{Proc: 2000, Mem: 800, Stor: 2000},
	}
	c, err := topology.Line(specs, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := virtual.NewEnv()
	v.AddGuest("a", 100, 400, 100)
	v.AddGuest("b", 100, 300, 100)
	v.AddGuest("c", 100, 300, 100) // on the receiver, keeps it non-empty

	led, _ := cluster.NewLedger(c, cluster.VMMOverhead{})
	assign := []graph.NodeID{0, 0, 1}
	for g, node := range assign {
		guest := v.Guest(virtual.GuestID(g))
		if err := led.ReserveGuest(node, guest.Proc, guest.Mem, guest.Stor); err != nil {
			t.Fatal(err)
		}
	}
	memBefore := []int64{led.ResidualMem(0), led.ResidualMem(1)}
	if emptied := consolidate(led, v, assign, 0, testIndex(led)); emptied != 0 {
		t.Fatalf("emptied %d hosts, want 0", emptied)
	}
	if assign[0] != 0 || assign[1] != 0 || assign[2] != 1 {
		t.Fatalf("partial relocation happened: %v", assign)
	}
	if led.ResidualMem(0) != memBefore[0] || led.ResidualMem(1) != memBefore[1] {
		t.Fatal("rollback left the ledger inconsistent")
	}
}

func TestConsolidateMaxPasses(t *testing.T) {
	specs := uniformSpecs(4, 2000, 4096, 4000)
	c, err := topology.Line(specs, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	v := virtual.NewEnv()
	for i := 0; i < 4; i++ {
		v.AddGuest("g", 100, 256, 100)
	}
	led, _ := cluster.NewLedger(c, cluster.VMMOverhead{})
	assign := []graph.NodeID{0, 1, 2, 3}
	for g, node := range assign {
		guest := v.Guest(virtual.GuestID(g))
		if err := led.ReserveGuest(node, guest.Proc, guest.Mem, guest.Stor); err != nil {
			t.Fatal(err)
		}
	}
	if emptied := consolidate(led, v, assign, 1, testIndex(led)); emptied > 1 {
		t.Fatalf("MaxPasses=1 emptied %d hosts", emptied)
	}
}

func TestHostsUsed(t *testing.T) {
	assign := []graph.NodeID{0, 0, 2, mapping.Unassigned}
	if HostsUsed(assign) != 2 {
		t.Fatalf("HostsUsed = %d, want 2", HostsUsed(assign))
	}
	if HostsUsed(nil) != 0 {
		t.Fatal("empty assign uses no hosts")
	}
}

func TestPoolPicksBestMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c := mustTorus(t, specs, 8, 5)
	v := workload.GenerateEnv(workload.HighLevelParams(100, 0.02), rng)

	p := &Pool{Members: []Mapper{&HMN{DisableMigration: true}, &HMN{}}}
	m, err := p.Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	full, err := (&HMN{}).Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	// Full HMN dominates the migration-disabled variant, so the pool
	// must return its objective (or better).
	if m.Objective(cluster.VMMOverhead{}) > full.Objective(cluster.VMMOverhead{}) {
		t.Fatalf("pool picked a worse mapping: %.1f > %.1f",
			m.Objective(cluster.VMMOverhead{}), full.Objective(cluster.VMMOverhead{}))
	}
}

func TestPoolCustomScore(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	c := mustTorus(t, specs, 8, 5)
	v := workload.GenerateEnv(workload.HighLevelParams(100, 0.02), rng)

	// Score by hosts used: the consolidator member must win.
	p := &Pool{
		Members: []Mapper{&HMN{}, &Consolidator{}},
		Score:   func(m *mapping.Mapping) float64 { return float64(HostsUsed(m.GuestHost)) },
	}
	m, err := p.Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := (&Consolidator{}).Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if HostsUsed(m.GuestHost) > HostsUsed(cons.GuestHost) {
		t.Fatal("pool with hosts-used score did not pick the consolidated mapping")
	}
}

func TestPoolAllMembersFail(t *testing.T) {
	c := mustTorus(t, uniformSpecs(4, 2000, 64, 2000), 2, 2)
	v := virtual.NewEnv()
	v.AddGuest("whale", 10, 4096, 10)
	p := &Pool{Members: []Mapper{&HMN{}, &Consolidator{}}}
	_, err := p.Map(c, v)
	if err == nil {
		t.Fatal("pool must fail when every member fails")
	}
	if !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("joined error should preserve the members' sentinels, got %v", err)
	}
}

func TestPoolEmpty(t *testing.T) {
	c := mustTorus(t, uniformSpecs(4, 2000, 2048, 2000), 2, 2)
	if _, err := (&Pool{}).Map(c, virtual.NewEnv()); !errors.Is(err, ErrEmptyPool) {
		t.Fatalf("want ErrEmptyPool, got %v", err)
	}
}

func TestPoolName(t *testing.T) {
	if (&Pool{}).Name() != "Pool" {
		t.Fatal("wrong name")
	}
}

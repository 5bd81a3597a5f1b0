package repro

import (
	"errors"
	"math/rand"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hosts := GenerateHosts(PaperClusterParams(), rng)
	cl, err := Torus2D(hosts, 8, 5, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	env := GenerateEnv(HighLevelParams(100, 0.02), rng)
	m, err := NewHMN().Map(cl, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(VMMOverhead{}); err != nil {
		t.Fatalf("public API produced an invalid mapping: %v", err)
	}
	res := RunExperiment(m, ExperimentConfig{})
	if res.Makespan <= 0 {
		t.Fatal("experiment did not run")
	}
}

func TestFacadeBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	hosts := GenerateHosts(PaperClusterParams(), rng)
	cl, err := SwitchedCluster(hosts, 64, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	env := GenerateEnv(HighLevelParams(80, 0.02), rng)
	for _, mk := range []Mapper{
		NewRandom(rand.New(rand.NewSource(3))),
		NewRandomAStar(rand.New(rand.NewSource(4))),
		NewHostingSearch(rand.New(rand.NewSource(5))),
	} {
		m, err := mk.Map(cl, env)
		if err != nil {
			t.Fatalf("%s: %v", mk.Name(), err)
		}
		if err := m.Validate(VMMOverhead{}); err != nil {
			t.Fatalf("%s: invalid mapping: %v", mk.Name(), err)
		}
	}
}

func TestFacadeManualConstruction(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 100, 5)
	cl, err := NewCluster(g, []Host{
		{Node: 0, Proc: 1000, Mem: 1024, Stor: 100},
		{Node: 1, Proc: 1000, Mem: 1024, Stor: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	a := env.AddGuest("a", 100, 512, 10)
	b := env.AddGuest("b", 100, 512, 10)
	env.AddLink(a, b, 10, 60)

	m, err := NewHMN().Map(cl, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(VMMOverhead{}); err != nil {
		t.Fatal(err)
	}

	led, err := NewLedger(cl, VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := AStarPrune(cl.Net(), 0, 1, 10, 60, led.Residuals())
	if !ok || p.Len() != 1 {
		t.Fatalf("AStarPrune = %v, %v", p, ok)
	}
}

func TestFacadeErrors(t *testing.T) {
	g := NewGraph(1)
	cl, err := NewCluster(g, []Host{{Node: 0, Proc: 100, Mem: 64, Stor: 1}})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	env.AddGuest("whale", 1, 4096, 1)
	if _, err := NewHMN().Map(cl, env); !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("want ErrNoHostFits, got %v", err)
	}
}

func TestFacadeSweepSmoke(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Hosts = 10
	cfg.Reps = 1
	cfg.MaxTries = 20
	cfg.Scenarios = QuickScenarios()[:1]
	res := RunSweep(cfg)
	if len(res.Runs) == 0 {
		t.Fatal("sweep produced no runs")
	}
	if res.Table2() == "" || res.Table3() == "" {
		t.Fatal("table renderers empty")
	}
}

func TestObjectiveFacade(t *testing.T) {
	if Objective([]float64{1, 1, 1}) != 0 {
		t.Fatal("constant residuals have zero objective")
	}
	if Objective([]float64{0, 2}) != 1 {
		t.Fatal("stddev of {0,2} is 1")
	}
}

func TestPaperScenariosFacade(t *testing.T) {
	if len(PaperScenarios()) != 16 {
		t.Fatal("paper matrix must have 16 rows")
	}
	if len(QuickScenarios()) != 4 {
		t.Fatal("quick matrix must have 4 rows")
	}
}

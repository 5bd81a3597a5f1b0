package mapping

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/virtual"
)

// fixture: 3 hosts in a line 0-1-2 (100Mbps, 5ms each), 3 guests,
// links g0-g1 (1Mbps, 30ms) and g1-g2 (2Mbps, 8ms).
func fixture(t *testing.T) (*cluster.Cluster, *virtual.Env) {
	t.Helper()
	g := graph.New(3)
	g.AddEdge(0, 1, 100, 5)
	g.AddEdge(1, 2, 100, 5)
	c, err := cluster.New(g, []cluster.Host{
		{Node: 0, Name: "h0", Proc: 2000, Mem: 2048, Stor: 2000},
		{Node: 1, Name: "h1", Proc: 1500, Mem: 1024, Stor: 1000},
		{Node: 2, Name: "h2", Proc: 1000, Mem: 1024, Stor: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := virtual.NewEnv()
	v.AddGuest("g0", 100, 512, 100)
	v.AddGuest("g1", 200, 512, 100)
	v.AddGuest("g2", 300, 512, 100)
	v.AddLink(0, 1, 1, 30)
	v.AddLink(1, 2, 2, 8)
	return c, v
}

func validMapping(t *testing.T) *Mapping {
	t.Helper()
	c, v := fixture(t)
	m := New(c, v)
	m.GuestHost[0] = 0
	m.GuestHost[1] = 0
	m.GuestHost[2] = 1
	m.LinkPath[0] = graph.TrivialPath(0) // g0,g1 co-located
	m.LinkPath[1] = graph.Path{Nodes: []graph.NodeID{0, 1}, Edges: []int{0}}
	return m
}

func TestNewAllUnassigned(t *testing.T) {
	c, v := fixture(t)
	m := New(c, v)
	for g := range m.GuestHost {
		if m.GuestHost[g] != Unassigned {
			t.Fatalf("guest %d not unassigned", g)
		}
	}
	if len(m.LinkPath) != 2 {
		t.Fatal("LinkPath sized wrong")
	}
}

func TestValidMappingValidates(t *testing.T) {
	m := validMapping(t)
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
}

func TestValidateCatchesUnassigned(t *testing.T) {
	m := validMapping(t)
	m.GuestHost[2] = Unassigned
	if err := m.Validate(cluster.VMMOverhead{}); err == nil || !strings.Contains(err.Error(), "Eq. 1") {
		t.Fatalf("want Eq. 1 violation, got %v", err)
	}
}

func TestValidateCatchesSwitchAssignment(t *testing.T) {
	c, v := fixture(t)
	// Rebuild with node 1 as a switch.
	c2, err := cluster.New(c.Net(), []cluster.Host{
		{Node: 0, Proc: 2000, Mem: 4096, Stor: 4000},
		{Node: 2, Proc: 1000, Mem: 4096, Stor: 4000},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(c2, v)
	m.GuestHost[0], m.GuestHost[1], m.GuestHost[2] = 0, 1, 2
	if err := m.Validate(cluster.VMMOverhead{}); err == nil || !strings.Contains(err.Error(), "non-host") {
		t.Fatalf("want non-host violation, got %v", err)
	}
}

func TestValidateCatchesMemoryOverflow(t *testing.T) {
	m := validMapping(t)
	// All three guests (1536MB) on h1 (1024MB).
	m.GuestHost[0], m.GuestHost[1], m.GuestHost[2] = 1, 1, 1
	m.LinkPath[0] = graph.TrivialPath(1)
	m.LinkPath[1] = graph.TrivialPath(1)
	if err := m.Validate(cluster.VMMOverhead{}); err == nil || !strings.Contains(err.Error(), "Eq. 2") {
		t.Fatalf("want Eq. 2 violation, got %v", err)
	}
}

func TestValidateCatchesStorageOverflow(t *testing.T) {
	c, v := fixture(t)
	m := New(c, v)
	// h0 has 2048MB memory and 2000GB storage; three guests need 1536MB
	// and 300GB — both fit bare. A 1800GB storage overhead leaves only
	// 200GB, violating Eq. 3 while memory stays fine.
	m.GuestHost[0], m.GuestHost[1], m.GuestHost[2] = 0, 0, 0
	m.LinkPath[0] = graph.TrivialPath(0)
	m.LinkPath[1] = graph.TrivialPath(0)
	err := m.Validate(cluster.VMMOverhead{Stor: 1800})
	if err == nil || !strings.Contains(err.Error(), "Eq. 3") {
		t.Fatalf("want Eq. 3 violation, got %v", err)
	}
}

func TestValidateOverheadTightensMemory(t *testing.T) {
	m := validMapping(t)
	// g0+g1 = 1024MB on h0 (2048MB): fine bare, violated with 1536MB overhead.
	if err := m.Validate(cluster.VMMOverhead{Mem: 1536}); err == nil || !strings.Contains(err.Error(), "Eq. 2") {
		t.Fatalf("want Eq. 2 violation under overhead, got %v", err)
	}
}

func TestValidateCatchesWrongEndpoints(t *testing.T) {
	m := validMapping(t)
	// Path for link 1 joins 1-2 instead of 0-1.
	m.LinkPath[1] = graph.Path{Nodes: []graph.NodeID{1, 2}, Edges: []int{1}}
	if err := m.Validate(cluster.VMMOverhead{}); err == nil || !strings.Contains(err.Error(), "Eq. 4/5") {
		t.Fatalf("want Eq. 4/5 violation, got %v", err)
	}
}

func TestValidateAcceptsReversedPath(t *testing.T) {
	m := validMapping(t)
	// Same path written destination-first: acceptable for an undirected
	// virtual link.
	m.LinkPath[1] = graph.Path{Nodes: []graph.NodeID{1, 0}, Edges: []int{0}}
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("reversed path rejected: %v", err)
	}
}

func TestValidateCatchesBrokenPath(t *testing.T) {
	m := validMapping(t)
	m.LinkPath[1] = graph.Path{Nodes: []graph.NodeID{0, 2}, Edges: []int{0}} // edge 0 is 0-1
	if err := m.Validate(cluster.VMMOverhead{}); err == nil || !strings.Contains(err.Error(), "Eq. 6/7") {
		t.Fatalf("want Eq. 6/7 violation, got %v", err)
	}
}

func TestValidateCatchesLatencyViolation(t *testing.T) {
	c, v := fixture(t)
	m := New(c, v)
	m.GuestHost[0], m.GuestHost[1], m.GuestHost[2] = 0, 2, 2
	// Link 0 (g0-g1) budget is 30ms; path 0-1-2 has latency 10 — fine.
	// Link 1 (g1-g2) is intra-host. Then tighten: move g1 to host 2 via a
	// path whose latency busts link 1's 8ms budget.
	m.LinkPath[0] = graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []int{0, 1}}
	m.LinkPath[1] = graph.TrivialPath(2)
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("setup mapping should validate: %v", err)
	}
	// Now make link 1 inter-host with a 10ms path against an 8ms budget.
	m.GuestHost[2] = 0
	m.LinkPath[1] = graph.Path{Nodes: []graph.NodeID{2, 1, 0}, Edges: []int{1, 0}}
	if err := m.Validate(cluster.VMMOverhead{}); err == nil || !strings.Contains(err.Error(), "Eq. 8") {
		t.Fatalf("want Eq. 8 violation, got %v", err)
	}
}

func TestValidateCatchesBandwidthOverflow(t *testing.T) {
	c, _ := fixture(t)
	v := virtual.NewEnv()
	v.AddGuest("a", 1, 1, 1)
	v.AddGuest("b", 1, 1, 1)
	// Two links, each demanding 60Mbps over the same 100Mbps edge.
	v.AddLink(0, 1, 60, 100)
	v.AddLink(0, 1, 60, 100)
	m := New(c, v)
	m.GuestHost[0], m.GuestHost[1] = 0, 1
	p := graph.Path{Nodes: []graph.NodeID{0, 1}, Edges: []int{0}}
	m.LinkPath[0] = p
	m.LinkPath[1] = p.Clone()
	if err := m.Validate(cluster.VMMOverhead{}); err == nil || !strings.Contains(err.Error(), "Eq. 9") {
		t.Fatalf("want Eq. 9 violation, got %v", err)
	}
}

func TestValidateCatchesIntraHostNonTrivialPath(t *testing.T) {
	m := validMapping(t)
	// g0 and g1 share host 0, but the path wanders to 1... a loop-free
	// path cannot return, so its endpoints cannot both be host 0; the
	// endpoint check fires. Use a same-host pair with a 1-hop path.
	m.LinkPath[0] = graph.Path{Nodes: []graph.NodeID{0, 1}, Edges: []int{0}}
	if err := m.Validate(cluster.VMMOverhead{}); err == nil {
		t.Fatal("intra-host link with non-trivial path must be rejected")
	}
}

func TestObjectiveComputation(t *testing.T) {
	m := validMapping(t)
	// Residuals: h0: 2000-300=1700, h1: 1500-300=1200, h2: 1000.
	res := m.ResidualProc(cluster.VMMOverhead{})
	want := []float64{1700, 1200, 1000}
	for i, w := range want {
		if res[i] != w {
			t.Fatalf("residual[%d] = %v, want %v", i, res[i], w)
		}
	}
	// Population stddev of {1700, 1200, 1000}.
	mean := (1700.0 + 1200 + 1000) / 3
	ss := (1700-mean)*(1700-mean) + (1200-mean)*(1200-mean) + (1000-mean)*(1000-mean)
	wantObj := math.Sqrt(ss / 3)
	if got := m.Objective(cluster.VMMOverhead{}); math.Abs(got-wantObj) > 1e-9 {
		t.Fatalf("Objective = %v, want %v", got, wantObj)
	}
}

func TestObjectiveWithOverhead(t *testing.T) {
	m := validMapping(t)
	// Overhead shifts every residual equally; stddev unchanged.
	a := m.Objective(cluster.VMMOverhead{})
	b := m.Objective(cluster.VMMOverhead{Proc: 100})
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("uniform overhead changed the objective: %v vs %v", a, b)
	}
}

func TestGuestsOn(t *testing.T) {
	m := validMapping(t)
	on0 := m.GuestsOn(0)
	if len(on0) != 2 || on0[0] != 0 || on0[1] != 1 {
		t.Fatalf("GuestsOn(0) = %v", on0)
	}
	if len(m.GuestsOn(2)) != 0 {
		t.Fatal("host 2 should be empty")
	}
}

func TestSummarize(t *testing.T) {
	m := validMapping(t)
	s := m.Summarize(cluster.VMMOverhead{})
	if s.Guests != 3 || s.Links != 2 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.IntraHostLinks != 1 || s.InterHostLinks != 1 {
		t.Fatalf("link split wrong: %+v", s)
	}
	if s.TotalHops != 1 || s.MaxPathLen != 1 || s.MeanPathLen != 1 {
		t.Fatalf("hop stats wrong: %+v", s)
	}
	if s.UsedHosts != 2 {
		t.Fatalf("UsedHosts = %d, want 2", s.UsedHosts)
	}
	if s.Objective <= 0 {
		t.Fatal("objective should be positive for this imbalanced mapping")
	}
}

func TestClone(t *testing.T) {
	m := validMapping(t)
	cp := m.Clone()
	cp.GuestHost[0] = 2
	cp.LinkPath[1].Edges[0] = 99
	if m.GuestHost[0] != 0 || m.LinkPath[1].Edges[0] != 0 {
		t.Fatal("Clone is shallow")
	}
}

func TestValidateSizeMismatch(t *testing.T) {
	c, v := fixture(t)
	m := New(c, v)
	m.GuestHost = m.GuestHost[:1]
	if err := m.Validate(cluster.VMMOverhead{}); err == nil {
		t.Fatal("GuestHost size mismatch must be rejected")
	}
	m = New(c, v)
	m.LinkPath = m.LinkPath[:1]
	for i := range m.GuestHost {
		m.GuestHost[i] = 0
	}
	if err := m.Validate(cluster.VMMOverhead{}); err == nil {
		t.Fatal("LinkPath size mismatch must be rejected")
	}
}

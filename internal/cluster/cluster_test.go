package cluster

import (
	"errors"
	"testing"

	"repro/internal/graph"
)

// twoHostCluster builds hosts on nodes 0 and 2 with a switch on node 1:
// 0 -(100Mbps,5ms)- 1 -(100Mbps,5ms)- 2
func twoHostCluster(t *testing.T) *Cluster {
	t.Helper()
	g := graph.New(3)
	g.AddEdge(0, 1, 100, 5)
	g.AddEdge(1, 2, 100, 5)
	c, err := New(g, []Host{
		{Node: 0, Name: "a", Proc: 2000, Mem: 2048, Stor: 2000},
		{Node: 2, Name: "b", Proc: 1000, Mem: 1024, Stor: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	g := graph.New(2)
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil graph must be rejected")
	}
	if _, err := New(g, []Host{{Node: 5}}); err == nil {
		t.Fatal("out-of-range host node must be rejected")
	}
	if _, err := New(g, []Host{{Node: 0}, {Node: 0}}); err == nil {
		t.Fatal("duplicate host node must be rejected")
	}
	if _, err := New(g, []Host{{Node: 0, Proc: -1}}); err == nil {
		t.Fatal("negative capacity must be rejected")
	}
}

func TestClusterAccessors(t *testing.T) {
	c := twoHostCluster(t)
	if c.NumHosts() != 2 {
		t.Fatalf("NumHosts = %d, want 2", c.NumHosts())
	}
	if !c.IsHost(0) || c.IsHost(1) || !c.IsHost(2) {
		t.Fatal("host/switch classification wrong")
	}
	if c.IsHost(-1) || c.IsHost(99) {
		t.Fatal("out-of-range nodes are not hosts")
	}
	h, ok := c.HostAt(0)
	if !ok || h.Name != "a" || h.Proc != 2000 {
		t.Fatalf("HostAt(0) = %+v, %v", h, ok)
	}
	if _, ok := c.HostAt(1); ok {
		t.Fatal("node 1 is a switch")
	}
	nodes := c.HostNodes()
	if len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 2 {
		t.Fatalf("HostNodes = %v", nodes)
	}
	if c.HostByIndex(1).Name != "b" {
		t.Fatal("HostByIndex wrong")
	}
	if c.TotalProc() != 3000 || c.TotalMem() != 3072 || c.TotalStor() != 3000 {
		t.Fatal("totals wrong")
	}
	if c.Net().NumEdges() != 2 {
		t.Fatal("Net not wired")
	}
}

func TestNewLedgerAppliesOverhead(t *testing.T) {
	c := twoHostCluster(t)
	l, err := NewLedger(c, VMMOverhead{Proc: 100, Mem: 256, Stor: 50})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.ResidualProc(0); got != 1900 {
		t.Fatalf("ResidualProc(0) = %v, want 1900", got)
	}
	if got := l.ResidualMem(2); got != 768 {
		t.Fatalf("ResidualMem(2) = %v, want 768", got)
	}
	if got := l.ResidualStor(0); got != 1950 {
		t.Fatalf("ResidualStor(0) = %v, want 1950", got)
	}
}

func TestNewLedgerOverheadTooLarge(t *testing.T) {
	c := twoHostCluster(t)
	_, err := NewLedger(c, VMMOverhead{Mem: 2048})
	if !errors.Is(err, ErrOverheadExceedsCapacity) {
		t.Fatalf("want ErrOverheadExceedsCapacity, got %v", err)
	}
}

func TestLedgerReserveReleaseGuest(t *testing.T) {
	c := twoHostCluster(t)
	l, err := NewLedger(c, VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	if !l.Fits(0, 1024, 500) {
		t.Fatal("guest should fit")
	}
	if err := l.ReserveGuest(0, 500, 1024, 500); err != nil {
		t.Fatal(err)
	}
	if l.ResidualProc(0) != 1500 || l.ResidualMem(0) != 1024 || l.ResidualStor(0) != 1500 {
		t.Fatal("residuals not updated")
	}
	// Memory exhausted now for a 2GB guest.
	if l.Fits(0, 2048, 1) {
		t.Fatal("2048MB no longer fits")
	}
	if err := l.ReserveGuest(0, 0, 2048, 0); err == nil {
		t.Fatal("over-reservation must fail")
	}
	// Failure leaves state untouched.
	if l.ResidualMem(0) != 1024 {
		t.Fatal("failed reservation modified the ledger")
	}
	l.ReleaseGuest(0, 500, 1024, 500)
	if l.ResidualProc(0) != 2000 || l.ResidualMem(0) != 2048 || l.ResidualStor(0) != 2000 {
		t.Fatal("release did not restore residuals")
	}
}

func TestLedgerStorageConstraint(t *testing.T) {
	c := twoHostCluster(t)
	l, _ := NewLedger(c, VMMOverhead{})
	if err := l.ReserveGuest(2, 0, 0, 5000); err == nil {
		t.Fatal("storage over-reservation must fail")
	}
}

func TestLedgerCPUNotAConstraint(t *testing.T) {
	c := twoHostCluster(t)
	l, _ := NewLedger(c, VMMOverhead{})
	// CPU may go negative (Eq. 10 optimises it; Eq. 2-3 do not bound it).
	if err := l.ReserveGuest(0, 5000, 0, 0); err != nil {
		t.Fatalf("CPU oversubscription must be allowed: %v", err)
	}
	if got := l.ResidualProc(0); got != -3000 {
		t.Fatalf("ResidualProc = %v, want -3000", got)
	}
}

func TestLedgerBandwidth(t *testing.T) {
	c := twoHostCluster(t)
	l, _ := NewLedger(c, VMMOverhead{})
	p := graph.Path{Nodes: []graph.NodeID{0, 1, 2}, Edges: []int{0, 1}}
	if err := l.ReserveBandwidth(p, 60); err != nil {
		t.Fatal(err)
	}
	if l.ResidualBandwidth(0) != 40 || l.ResidualBandwidth(1) != 40 {
		t.Fatal("bandwidth not deducted on both edges")
	}
	// Second reservation exceeds edge capacity; ledger must be untouched.
	if err := l.ReserveBandwidth(p, 60); err == nil {
		t.Fatal("over-reservation must fail")
	}
	if l.ResidualBandwidth(0) != 40 || l.ResidualBandwidth(1) != 40 {
		t.Fatal("failed reservation modified the ledger")
	}
	l.ReleaseBandwidth(p, 60)
	if l.ResidualBandwidth(0) != 100 || l.ResidualBandwidth(1) != 100 {
		t.Fatal("release did not restore bandwidth")
	}
}

func TestLedgerTrivialPathReservesNothing(t *testing.T) {
	c := twoHostCluster(t)
	l, _ := NewLedger(c, VMMOverhead{})
	if err := l.ReserveBandwidth(graph.TrivialPath(0), 1e9); err != nil {
		t.Fatalf("trivial path must always succeed: %v", err)
	}
	if l.ResidualBandwidth(0) != 100 {
		t.Fatal("trivial path consumed bandwidth")
	}
}

func TestLedgerResidualsAreLive(t *testing.T) {
	c := twoHostCluster(t)
	l, _ := NewLedger(c, VMMOverhead{})
	bw := l.Residuals()
	if bw[0] != 100 {
		t.Fatal("initial view wrong")
	}
	p := graph.Path{Nodes: []graph.NodeID{0, 1}, Edges: []int{0}}
	if err := l.ReserveBandwidth(p, 30); err != nil {
		t.Fatal(err)
	}
	if bw[0] != 70 {
		t.Fatal("Residuals must reflect later reservations")
	}
	l.CutEdge(0)
	if bw[0] != 0 || l.BandwidthFunc()[0] != 0 {
		t.Fatal("a cut edge must read 0 through Residuals and its alias")
	}
	l.RestoreEdge(0)
	if bw[0] != 70 {
		t.Fatal("a restored edge must read its residual again")
	}
}

func TestLedgerClone(t *testing.T) {
	c := twoHostCluster(t)
	l, _ := NewLedger(c, VMMOverhead{})
	cp := l.Clone()
	if err := cp.ReserveGuest(0, 100, 100, 100); err != nil {
		t.Fatal(err)
	}
	if err := cp.ReserveBandwidth(graph.Path{Nodes: []graph.NodeID{0, 1}, Edges: []int{0}}, 10); err != nil {
		t.Fatal(err)
	}
	if l.ResidualProc(0) != 2000 || l.ResidualMem(0) != 2048 || l.ResidualBandwidth(0) != 100 {
		t.Fatal("mutating the clone changed the original")
	}
	if cp.Cluster() != c {
		t.Fatal("clone must reference the same cluster")
	}
}

func TestResidualProcAllIsCopy(t *testing.T) {
	c := twoHostCluster(t)
	l, _ := NewLedger(c, VMMOverhead{})
	r := l.ResidualProcAll()
	if len(r) != 2 || r[0] != 2000 || r[1] != 1000 {
		t.Fatalf("ResidualProcAll = %v", r)
	}
	r[0] = -1
	if l.ResidualProc(0) != 2000 {
		t.Fatal("ResidualProcAll leaked internal state")
	}
}

func TestLedgerPanicsOnSwitch(t *testing.T) {
	c := twoHostCluster(t)
	l, _ := NewLedger(c, VMMOverhead{})
	defer func() {
		if recover() == nil {
			t.Fatal("reserving on a switch node must panic")
		}
	}()
	_ = l.ReserveGuest(1, 1, 1, 1)
}

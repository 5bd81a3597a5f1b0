package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// Property: any sequence of guest reservations followed by their releases
// (in any order) restores every residual exactly; same for bandwidth.
func TestQuickLedgerConservation(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1000, 5)
	g.AddEdge(1, 2, 1000, 5)
	g.AddEdge(2, 3, 1000, 5)
	c, err := New(g, []Host{
		{Node: 0, Proc: 2000, Mem: 2048, Stor: 2000},
		{Node: 1, Proc: 1500, Mem: 1024, Stor: 1500},
		{Node: 2, Proc: 1000, Mem: 3072, Stor: 1000},
		{Node: 3, Proc: 2500, Mem: 2048, Stor: 2500},
	})
	if err != nil {
		t.Fatal(err)
	}

	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		led, err := NewLedger(c, VMMOverhead{})
		if err != nil {
			return false
		}
		before := led.ResidualProcAll()
		memBefore := []int64{led.ResidualMem(0), led.ResidualMem(1), led.ResidualMem(2), led.ResidualMem(3)}
		bwBefore := []float64{led.ResidualBandwidth(0), led.ResidualBandwidth(1), led.ResidualBandwidth(2)}

		type res struct {
			node graph.NodeID
			proc float64
			mem  int64
			stor float64
		}
		type bwres struct {
			path graph.Path
			bw   float64
		}
		var guests []res
		var paths []bwres
		ops := 1 + int(opsRaw)%20
		for i := 0; i < ops; i++ {
			if rng.Intn(2) == 0 {
				r := res{
					node: graph.NodeID(rng.Intn(4)),
					proc: rng.Float64() * 500,
					mem:  int64(rng.Intn(512)),
					stor: rng.Float64() * 300,
				}
				if led.ReserveGuest(r.node, r.proc, r.mem, r.stor) == nil {
					guests = append(guests, r)
				}
			} else {
				start := rng.Intn(3)
				p := graph.Path{
					Nodes: []graph.NodeID{graph.NodeID(start), graph.NodeID(start + 1)},
					Edges: []int{start},
				}
				b := bwres{path: p, bw: rng.Float64() * 100}
				if led.ReserveBandwidth(b.path, b.bw) == nil {
					paths = append(paths, b)
				}
			}
		}
		// Release in shuffled order.
		rng.Shuffle(len(guests), func(i, j int) { guests[i], guests[j] = guests[j], guests[i] })
		rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
		for _, r := range guests {
			led.ReleaseGuest(r.node, r.proc, r.mem, r.stor)
		}
		for _, b := range paths {
			led.ReleaseBandwidth(b.path, b.bw)
		}

		after := led.ResidualProcAll()
		for i := range before {
			if math.Abs(before[i]-after[i]) > 1e-6 {
				return false
			}
		}
		for i, m := range memBefore {
			if led.ResidualMem(graph.NodeID(i)) != m {
				return false
			}
		}
		for i, b := range bwBefore {
			if math.Abs(led.ResidualBandwidth(i)-b) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a clone is fully independent — no operation on the clone is
// visible in the original and vice versa.
func TestQuickLedgerCloneIndependence(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 500, 5)
	c, err := New(g, []Host{
		{Node: 0, Proc: 2000, Mem: 2048, Stor: 2000},
		{Node: 1, Proc: 1000, Mem: 1024, Stor: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := NewLedger(c, VMMOverhead{})
		if err != nil {
			return false
		}
		_ = a.ReserveGuest(0, rng.Float64()*100, int64(rng.Intn(256)), rng.Float64()*100)
		b := a.Clone()
		snapshot := a.ResidualProcAll()
		_ = b.ReserveGuest(1, rng.Float64()*100, int64(rng.Intn(256)), rng.Float64()*100)
		b.Quarantine(0)
		b.CutEdge(0)
		after := a.ResidualProcAll()
		for i := range snapshot {
			if snapshot[i] != after[i] {
				return false
			}
		}
		return !a.Quarantined(0) && !a.EdgeCut(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Residuals is the routable vector at every point a search can
// run — 0 on a cut edge, the accounting residual (what State exports)
// otherwise — through any sequence of the funnels that write bandwidth or
// cut state: ReserveBandwidth, ReleaseEdges, a Txn commit, CutEdge,
// RestoreEdge, Clone, SyncFrom and a State → RestoreLedger round trip.
// The vector is live: each of the two ledgers' vectors is taken once,
// when the ledger is made, and read after every later step.
func TestQuickResidualsTrackCuts(t *testing.T) {
	c := snapshotFixture(t)
	edges := c.Net().NumEdges()
	edgePath := func(e int) graph.Path {
		ed := c.Net().Edge(e)
		return graph.Path{Nodes: []graph.NodeID{ed.A, ed.B}, Edges: []int{e}}
	}
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		first, err := NewLedger(c, VMMOverhead{})
		if err != nil {
			return false
		}
		leds := [2]*Ledger{first, first.Clone()}
		views := [2][]float64{leds[0].Residuals(), leds[1].Residuals()}
		ops := 1 + int(opsRaw)%60
		for i := 0; i < ops; i++ {
			k := rng.Intn(2)
			l := leds[k]
			e := rng.Intn(edges)
			var op string
			switch rng.Intn(9) {
			case 0, 1:
				op = "ReserveBandwidth"
				_ = l.ReserveBandwidth(edgePath(e), rng.Float64()*300) // may be refused: cut or short
			case 2:
				op = "ReleaseEdges"
				l.ReleaseEdges([]int{e, rng.Intn(edges)}, rng.Float64()*100)
			case 3:
				op = "Commit"
				txn := l.NewTxn()
				txn.AddEdges([]int{e, rng.Intn(edges)}, rng.Float64()*150)
				txn.AddPath(edgePath(e), rng.Float64()*100) // the same edge twice aggregates
				_ = l.Commit(txn)
			case 4:
				op = "CutEdge"
				l.CutEdge(e)
			case 5:
				op = "RestoreEdge"
				l.RestoreEdge(e)
			case 6:
				op = "Clone"
				leds[k] = leds[1-k].Clone()
				views[k] = leds[k].Residuals()
			case 7:
				op = "SyncFrom"
				l.SyncFrom(leds[1-k])
			case 8:
				op = "RestoreLedger"
				leds[k] = roundTrip(t, c, l.State())
				views[k] = leds[k].Residuals()
			}
			for j, led := range leds {
				st := led.State()
				for e, got := range views[j] {
					want := st.BW[e]
					if st.CutEdges[e] {
						want = 0
					}
					if got != want || led.ResidualBandwidth(e) != want {
						t.Logf("seed %d op %d (%s on ledger %d): ledger %d edge %d reads %v through its vector, %v now; want %v (cut %v)",
							seed, i, op, k, j, e, got, led.ResidualBandwidth(e), want, st.CutEdges[e])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

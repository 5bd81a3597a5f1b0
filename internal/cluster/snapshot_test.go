package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func snapshotFixture(t *testing.T) *Cluster {
	t.Helper()
	g := graph.New(5)
	g.AddEdge(0, 1, 1000, 5)
	g.AddEdge(1, 2, 800, 5)
	g.AddEdge(2, 3, 600, 5)
	g.AddEdge(3, 4, 400, 5)
	g.AddEdge(4, 0, 1200, 5)
	c, err := New(g, []Host{
		{Node: 0, Proc: 2000, Mem: 2048, Stor: 2000},
		{Node: 1, Proc: 1500, Mem: 1024, Stor: 1500},
		{Node: 2, Proc: 1000, Mem: 3072, Stor: 1000},
		{Node: 3, Proc: 2500, Mem: 2048, Stor: 2500},
		{Node: 4, Proc: 1800, Mem: 1536, Stor: 1800},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mutateLedger applies one random mutation to led. The operation mix
// covers every row kind and both write paths: direct guest
// reserve/release, path reserve/release, quarantine flips, edge
// cut/restore, and a Txn commit of a guest plus a path.
func mutateLedger(rng *rand.Rand, led *Ledger) {
	switch rng.Intn(9) {
	case 0, 1, 2:
		_ = led.ReserveGuest(graph.NodeID(rng.Intn(5)), rng.Float64()*300, int64(rng.Intn(256)), rng.Float64()*200)
	case 3:
		led.ReleaseGuest(graph.NodeID(rng.Intn(5)), rng.Float64()*100, int64(rng.Intn(64)), rng.Float64()*50)
	case 4:
		e := rng.Intn(5)
		p := graph.Path{Nodes: []graph.NodeID{graph.NodeID(e), graph.NodeID((e + 1) % 5)}, Edges: []int{e}}
		if led.ReserveBandwidth(p, rng.Float64()*100) != nil {
			led.ReleaseBandwidth(p, rng.Float64()*50)
		}
	case 5:
		n := graph.NodeID(rng.Intn(5))
		if led.Quarantined(n) {
			led.Unquarantine(n)
		} else {
			led.Quarantine(n)
		}
	case 6:
		led.CutEdge(rng.Intn(5))
	case 7:
		led.RestoreEdge(rng.Intn(5))
	case 8:
		e := rng.Intn(5)
		txn := led.NewTxn()
		txn.AddGuest(graph.NodeID(rng.Intn(5)), rng.Float64()*200, int64(rng.Intn(128)), rng.Float64()*100)
		txn.AddPath(graph.Path{Nodes: []graph.NodeID{graph.NodeID(e), graph.NodeID((e + 1) % 5)}, Edges: []int{e}}, rng.Float64()*80)
		_ = led.Commit(txn) // a refused commit leaves the ledger untouched
	}
}

// ledgersIdentical reports bit-identity of the full mutable state,
// including the running Kahan sums (compensation terms and all) and the
// routable vector the searches read.
func ledgersIdentical(a, b *Ledger) bool {
	return reflect.DeepEqual(a.State(), b.State()) && reflect.DeepEqual(a.route, b.route) &&
		a.sumProc == b.sumProc && a.sumProcSq == b.sumProcSq
}

// Property: after any interleaving of speculative writes on a snapshot
// and committed writes on its source, SyncFrom makes the snapshot
// bit-identical to the source — across repeated reuse cycles, exactly
// what the admission path does with its pooled snapshots.
func TestQuickSnapshotSyncFromMatchesClone(t *testing.T) {
	c := snapshotFixture(t)
	f := func(seed int64, cyclesRaw, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		live, err := NewLedger(c, VMMOverhead{})
		if err != nil {
			return false
		}
		snap := live.Snapshot()
		cycles := 1 + int(cyclesRaw)%4
		for cy := 0; cy < cycles; cy++ {
			ops := int(opsRaw) % 32
			for i := 0; i < ops; i++ {
				// Interleave: speculate on the snapshot, commit on the live
				// ledger, in random order.
				if rng.Intn(2) == 0 {
					mutateLedger(rng, snap)
				} else {
					mutateLedger(rng, live)
				}
			}
			snap.SyncFrom(live)
			if !ledgersIdentical(snap, live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// SyncFrom steady state must not allocate: that is the point of
// recycling snapshots instead of cloning.
func TestSnapshotSyncFromDoesNotAllocate(t *testing.T) {
	c := snapshotFixture(t)
	live, err := NewLedger(c, VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	snap := live.Snapshot()
	rng := rand.New(rand.NewSource(11))
	// Pre-built operands: the measured loop must only exercise ledger
	// mutations that cannot themselves allocate (releases never build
	// error values, and the paths are shared).
	paths := make([]graph.Path, 5)
	for e := 0; e < 5; e++ {
		paths[e] = graph.Path{Nodes: []graph.NodeID{graph.NodeID(e), graph.NodeID((e + 1) % 5)}, Edges: []int{e}}
	}
	allocs := testing.AllocsPerRun(200, func() {
		snap.ReleaseGuest(graph.NodeID(rng.Intn(5)), rng.Float64()*50, int64(rng.Intn(64)), rng.Float64()*40)
		snap.ReleaseBandwidth(paths[rng.Intn(5)], rng.Float64()*20)
		live.ReleaseGuest(graph.NodeID(rng.Intn(5)), rng.Float64()*50, int64(rng.Intn(64)), rng.Float64()*40)
		live.ReleaseBandwidth(paths[rng.Intn(5)], rng.Float64()*20)
		snap.SyncFrom(live)
	})
	if allocs > 0 {
		t.Fatalf("SyncFrom cycle allocates %.1f times per run, want 0", allocs)
	}
}

// A reusable dense transaction must behave exactly like a fresh one:
// same accumulation, same validation outcome, same applied state.
func TestQuickTxnResetReuseMatchesFresh(t *testing.T) {
	c := snapshotFixture(t)
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ledA, err := NewLedger(c, VMMOverhead{})
		if err != nil {
			return false
		}
		ledB := ledA.Clone()
		reused := ledA.NewTxn()
		// Dirty the reusable transaction, then reset it for the real run.
		for i := 0; i < 5; i++ {
			reused.AddGuest(graph.NodeID(rng.Intn(5)), rng.Float64()*100, int64(rng.Intn(128)), rng.Float64()*80)
		}
		reused.Reset()
		fresh := ledB.NewTxn()
		ops := 1 + int(opsRaw)%24
		for i := 0; i < ops; i++ {
			if rng.Intn(2) == 0 {
				n := graph.NodeID(rng.Intn(5))
				proc, mem, stor := rng.Float64()*200, int64(rng.Intn(256)), rng.Float64()*150
				reused.AddGuest(n, proc, mem, stor)
				fresh.AddGuest(n, proc, mem, stor)
			} else {
				e := rng.Intn(5)
				p := graph.Path{Nodes: []graph.NodeID{graph.NodeID(e), graph.NodeID((e + 1) % 5)}, Edges: []int{e}}
				bw := rng.Float64() * 60
				reused.AddPath(p, bw)
				fresh.AddPath(p, bw)
			}
		}
		if reused.Hosts() != fresh.Hosts() || reused.Edges() != fresh.Edges() {
			return false
		}
		errA := ledA.Commit(reused)
		errB := ledB.Commit(fresh)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil && errA.Error() != errB.Error() {
			return false
		}
		return ledgersIdentical(ledA, ledB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

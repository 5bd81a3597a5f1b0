package wal

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/virtual"
)

// TestEveryEventKindReplays holds the durability boundary exhaustive:
// every core.EventType, from EventAdmit up to the first that names
// itself "unknown", becomes a record that survives the frame codec and
// that ReplayRecord applies — or, for the close that ends the script,
// that the replayer retires the session by — so a new mutating operation
// cannot ship without crash recovery. A new event type fails here until the script
// below emits one.
func TestEveryEventKindReplays(t *testing.T) {
	c, cs := skewedCluster(t)
	h := c.HostNodes()
	live, err := core.NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Encode in the hook, as the daemon does: the events carry live
	// mappings that later operations replace.
	var frames [][]byte
	seen := make(map[core.EventType]bool)
	live.SetCommitHook(func(ev core.Event) {
		frame, err := appendFrame(nil, RecordFromEvent(testSID, cluster.VMMOverhead{}, ev))
		if err != nil {
			t.Errorf("%s event: %v", ev.Type, err)
		}
		frames = append(frames, frame)
		seen[ev.Type] = true
	})

	// TestMigrateRecordRecovery's history, which ends in one improving
	// move, then a failure and a restore of the host it emptied.
	pins := virtual.NewEnv()
	pins.AddGuest("pin0", 50, 1024, 10)
	pins.AddGuest("pin1", 50, 1024, 10)
	pinM, _, err := live.MapTagged(pins, "pins")
	if err != nil {
		t.Fatal(err)
	}
	pair := virtual.NewEnv()
	pair.AddGuest("b0", 400, 512, 10)
	pair.AddGuest("b1", 400, 512, 10)
	if _, _, err := live.MapTagged(pair, "pair"); err != nil {
		t.Fatal(err)
	}
	if err := live.Release(pinM); err != nil {
		t.Fatal(err)
	}
	if res := live.Rebalance(1); res.Moves != 1 {
		t.Fatalf("fixture round: %d moves, want 1", res.Moves)
	}
	if _, err := live.FailHostAndRepair(h[1]); err != nil {
		t.Fatal(err)
	}
	if err := live.RestoreHost(h[1]); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, _, err := OpenSession(&Record{Kind: KindOpen, SID: testSID, Open: &OpenRec{Cluster: cs}})
	if err != nil {
		t.Fatal(err)
	}
	for i, frame := range frames {
		rec, _, err := readFrame(frame, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == KindClose && rec.SID == testSID && i == len(frames)-1 {
			continue // the replayer's own record: it retires the session
		}
		if err := ReplayRecord(replayed, rec); err != nil {
			t.Fatalf("%q record: %v", rec.Kind, err)
		}
	}
	for typ := core.EventAdmit; typ.String() != "unknown"; typ++ {
		if !seen[typ] {
			t.Errorf("the script emits no %s event: add a step that does, and check it replays", typ)
		}
	}
	if got, want := ledgerJSON(t, replayed), ledgerJSON(t, live); !bytes.Equal(got, want) {
		t.Errorf("replayed ledger diverges:\n got %s\nwant %s", got, want)
	}
}

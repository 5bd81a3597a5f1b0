package cluster

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// roundTrip restores a ledger from led's state as a snapshot carries it:
// through JSON.
func roundTrip(t *testing.T, c *Cluster, st LedgerState) *Ledger {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back LedgerState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	led, err := RestoreLedger(c, back)
	if err != nil {
		t.Fatal(err)
	}
	return led
}

// TestRestoreLedgerIsExact restores the ledger after each of 2 000 random
// mutations: every field, the running sums' compensation terms included,
// must equal the live ledger's, and so must the two ledgers after the
// same next mutation — a restart changes no later decision.
func TestRestoreLedgerIsExact(t *testing.T) {
	c := snapshotFixture(t)
	live, err := NewLedger(c, VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		mutateLedger(rng, live)
		restored := roundTrip(t, c, live.State())
		if !ledgersIdentical(restored, live) {
			t.Fatalf("op %d: restored ledger differs:\n got %+v %+v\nwant %+v %+v",
				i, restored.sumProc, restored.sumProcSq, live.sumProc, live.sumProcSq)
		}
		seed := rng.Int63()
		mutateLedger(rand.New(rand.NewSource(seed)), restored)
		mutateLedger(rand.New(rand.NewSource(seed)), live)
		if !ledgersIdentical(restored, live) {
			t.Fatalf("op %d: the same mutation leaves the restored and the live ledger apart", i)
		}
	}
}

// TestRestoreLedgerWithoutSums reads a state an older build wrote, with
// no running sums: they are rebuilt from the proc vector, within the
// objective's usual band of the live ones. A state with one sum and not
// the other is refused.
func TestRestoreLedgerWithoutSums(t *testing.T) {
	c := snapshotFixture(t)
	live, err := NewLedger(c, VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		mutateLedger(rng, live)
	}
	st := live.State()
	st.SumProc, st.SumProcSq = nil, nil
	old := roundTrip(t, c, st)
	if !reflect.DeepEqual(old.proc, live.proc) {
		t.Fatal("residuals differ")
	}
	if d := math.Abs(old.ObjectiveStdDev() - live.ObjectiveStdDev()); d > 1e-9 {
		t.Fatalf("rebuilt objective %v, live %v", old.ObjectiveStdDev(), live.ObjectiveStdDev())
	}
	st = live.State()
	st.SumProcSq = nil
	if _, err := RestoreLedger(c, st); err == nil {
		t.Fatal("a state with one running sum restored")
	}
}

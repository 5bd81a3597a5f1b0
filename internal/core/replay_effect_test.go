package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapping"
	"repro/internal/spec"
)

// TestEffectReplayEqualsObjectReplay replays one random history of
// admissions and releases into two sessions: one through ReplayAdmit and
// ReplayRelease, as built objects, the other through the effect methods —
// each admission committed as spec.Effect's numbers and then either
// released as an effect or adopted as its mapping and released as one.
// After every operation the two ledgers' states must be the same bytes,
// their Eq. (10) accumulators the same bits and their counters equal; at
// the end, with every pending admission adopted, so must the deployed
// environments.
func TestEffectReplayEqualsObjectReplay(t *testing.T) {
	c, live := sessionFixture(t)
	var events []Event
	live.SetCommitHook(func(ev Event) { events = append(events, ev) })
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		if exp := live.Export(); len(exp.Active) > 0 && rng.Intn(3) == 0 {
			if err := live.Release(exp.Active[rng.Intn(len(exp.Active))].M); err != nil {
				t.Fatal(err)
			}
			continue
		}
		// Rejections are part of a live history; they log nothing.
		live.MapTagged(smallEnv(rng.Int63(), 2+rng.Intn(40)), fmt.Sprintf("e%d", i))
	}

	objects, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	effects, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pending := map[uint64]*mapping.Effect{}
	admitted := map[uint64]*AdmitInfo{}
	adopted, undone := 0, 0
	for i, ev := range events {
		switch ev.Type {
		case EventAdmit:
			a := ev.Admit
			if err := objects.ReplayAdmit(a.Env, a.M, a.Tag, a.Seq); err != nil {
				t.Fatal(err)
			}
			es, ms := spec.FromEnv(a.Env), spec.FromMapping(a.M, cluster.VMMOverhead{})
			e := new(mapping.Effect)
			if err := spec.Effect(c, &es, &ms, e); err != nil {
				t.Fatal(err)
			}
			if err := effects.ReplayAdmitEffect(e, a.Seq); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(4) == 0 {
				if err := effects.ReplayAdoptEffect(a.M, a.Tag, a.Seq, e); err != nil {
					t.Fatal(err)
				}
				adopted++
			} else {
				pending[a.Seq], admitted[a.Seq] = e, a
			}
		case EventRelease:
			seq := ev.ReleaseSeq
			if err := objects.ReplayRelease(seq); err != nil {
				t.Fatal(err)
			}
			if e := pending[seq]; e != nil {
				effects.ReplayReleaseEffect(e)
				delete(pending, seq)
				undone++
			} else if err := effects.ReplayRelease(seq); err != nil {
				t.Fatal(err)
			}
		}
		sameReplayState(t, fmt.Sprintf("after event %d (%s)", i, ev.Type), objects, effects, false)
	}
	seqs := make([]uint64, 0, len(pending))
	for seq := range pending {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		a := admitted[seq]
		if err := effects.ReplayAdoptEffect(a.M, a.Tag, seq, pending[seq]); err != nil {
			t.Fatal(err)
		}
	}
	sameReplayState(t, "with every admission adopted", objects, effects, true)
	if undone < 20 || adopted < 10 || len(seqs) == 0 {
		t.Fatalf("the history undid %d effects, adopted %d early and %d at the end; too few to mean anything", undone, adopted, len(seqs))
	}
}

// sameReplayState compares the ledgers and counters of two sessions and,
// with deployed set, their deployed environments.
func sameReplayState(t *testing.T, when string, a, b *Session, deployed bool) {
	t.Helper()
	ea, eb := a.Export(), b.Export()
	ja, err := json.Marshal(ea.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(eb.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("%s: ledgers differ:\nobjects %s\neffects %s", when, ja, jb)
	}
	if oa, ob := a.ObjectiveStdDev(), b.ObjectiveStdDev(); math.Float64bits(oa) != math.Float64bits(ob) {
		t.Fatalf("%s: incremental Eq. (10) differs: %v vs %v", when, oa, ob)
	}
	if ea.NextSeq != eb.NextSeq || ea.OpCount != eb.OpCount {
		t.Fatalf("%s: counters differ: seq %d/%d, op %d/%d", when, ea.NextSeq, eb.NextSeq, ea.OpCount, eb.OpCount)
	}
	if !deployed {
		return
	}
	if len(ea.Active) != len(eb.Active) {
		t.Fatalf("%s: %d deployed environments against %d", when, len(ea.Active), len(eb.Active))
	}
	for i := range ea.Active {
		x, y := ea.Active[i], eb.Active[i]
		if x.Seq != y.Seq || x.Tag != y.Tag || x.M != y.M {
			t.Fatalf("%s: deployed %d is seq %d %q %p against seq %d %q %p", when, i, x.Seq, x.Tag, x.M, y.Seq, y.Tag, y.M)
		}
	}
}

package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// TestMapBatchConcurrentSessionsStress drives concurrent MapBatch
// rounds on TWO independent sessions at once, interleaved with single
// admissions and releases. Both hot paths draw from shared pools — the
// process-wide mapScratch buffers and each session's snapshot free
// list — so under -race this pins the isolation contracts: a pooled
// scratch or recycled snapshot ledger that served one admission must
// never leak reservations or residuals into the next,
// least of all across sessions, and each ledger must return exactly to
// its baseline once everything the stress admitted is released.
func TestMapBatchConcurrentSessionsStress(t *testing.T) {
	_, sa := sessionFixture(t)
	_, sb := sessionFixture(t)
	sessions := []*Session{sa, sb}
	baselines := [][]float64{sa.ResidualProc(), sb.ResidualProc()}

	const workers = 4
	rounds := 5
	if testing.Short() {
		rounds = 2
	}

	var mu sync.Mutex
	held := make([][]*mapping.Mapping, len(sessions))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			si := w % 2
			s := sessions[si]
			for i := 0; i < rounds; i++ {
				seed := int64(10000 + w*1000 + i*10)
				envs := []*virtual.Env{
					smallEnv(seed, 12), smallEnv(seed+1, 12), smallEnv(seed+2, 12),
				}
				maps, errs, _ := s.MapBatch(envs)
				for j, m := range maps {
					if errs[j] != nil {
						// Contention can exhaust residuals mid-stress; the
						// failed attempt must leave no trace (checked via
						// the baseline comparison after the join).
						continue
					}
					if err := m.Validate(cluster.VMMOverhead{}); err != nil {
						t.Errorf("worker %d: batch mapping invalid: %v", w, err)
					}
					if j == 0 {
						// Hold the first admission of every round past the
						// join so snapshots keep syncing over a ledger with
						// live reservations from other goroutines.
						mu.Lock()
						held[si] = append(held[si], m)
						mu.Unlock()
						continue
					}
					if err := s.Release(m); err != nil {
						t.Errorf("worker %d: release: %v", w, err)
					}
				}
				// Interleave a single admission: Map and MapBatch share
				// the scratch pool and the snapshot free list, so the two
				// entry points must recycle each other's buffers safely.
				if m, err := s.Map(smallEnv(seed+5, 8)); err == nil {
					if err := s.Release(m); err != nil {
						t.Errorf("worker %d: single release: %v", w, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	for si, s := range sessions {
		for _, m := range held[si] {
			if err := s.Release(m); err != nil {
				t.Fatalf("session %d: releasing held mapping: %v", si, err)
			}
		}
		if s.Active() != 0 {
			t.Fatalf("session %d: %d environments still active", si, s.Active())
		}
		res := s.ResidualProc()
		for h := range res {
			// Same tolerance as TestSessionConcurrentStress: float
			// reserve/release round-trips are not bitwise exact, but any
			// pooled-state leak is orders of magnitude above 1e-9.
			if math.Abs(res[h]-baselines[si][h]) > 1e-9 {
				t.Fatalf("session %d host %d: residual %v, baseline %v — pooled state leaked across admissions",
					si, h, res[h], baselines[si][h])
			}
		}
	}
}

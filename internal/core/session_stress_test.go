package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapping"
)

// TestSessionConcurrentStress hammers one session from many goroutines
// — the hmnd serving pattern — with interleaved Map / Release /
// ResidualProc / Active calls, then asserts the ledger returns exactly
// to its primed baseline once every environment is released. Run under
// -race this also proves Session's locking covers every access path.
func TestSessionConcurrentStress(t *testing.T) {
	_, s := sessionFixture(t)
	baseline := s.ResidualProc()

	const workers = 8
	iters := 6
	if testing.Short() {
		iters = 2
	}

	var mu sync.Mutex
	var held []*mapping.Mapping // mapped but deliberately not yet released

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				env := smallEnv(int64(1000+w*100+i), 12)
				m, err := s.Map(env)
				if err != nil {
					// Contention can legitimately exhaust residuals; the
					// attempt must not have changed them (checked at the
					// end via the baseline comparison).
					continue
				}
				// Interleave reads with other goroutines' maps.
				if res := s.ResidualProc(); len(res) != len(baseline) {
					t.Errorf("residual vector length %d, want %d", len(res), len(baseline))
				}
				_ = s.Active()
				if i%3 == 0 {
					// Hold every third mapping until after the join, so
					// releases also happen against a non-quiescent ledger.
					mu.Lock()
					held = append(held, m)
					mu.Unlock()
					continue
				}
				if err := s.Release(m); err != nil {
					t.Errorf("release: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()

	if got, want := s.Active(), len(held); got != want {
		t.Fatalf("Active = %d, want %d held environments", got, want)
	}
	for _, m := range held {
		if err := s.Release(m); err != nil {
			t.Fatalf("releasing held mapping: %v", err)
		}
		// A second release of the same mapping must be refused.
		if err := s.Release(m); !errors.Is(err, ErrNotActive) {
			t.Fatalf("double release: got %v, want ErrNotActive", err)
		}
	}

	if s.Active() != 0 {
		t.Fatalf("Active = %d after full release", s.Active())
	}
	after := s.ResidualProc()
	for i := range baseline {
		if math.Abs(baseline[i]-after[i]) > 1e-9 {
			t.Fatalf("host %d residual CPU not restored: %v vs %v", i, baseline[i], after[i])
		}
	}
}

// TestTwoSessionsConcurrentStress drives concurrent Maps and Releases
// on TWO independent sessions at once. Admissions on both draw from the
// process-wide mapScratch pool, and each session recycles its own
// snapshot free list, so under -race this pins the isolation contracts:
// a pooled scratch or recycled snapshot ledger that served one admission
// must never leak reservations or residuals into the next, least of all
// across sessions, and each ledger must return exactly to its baseline
// once everything the stress admitted is released.
func TestTwoSessionsConcurrentStress(t *testing.T) {
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
				for j, guests := range []int{12, 12, 12, 8} {
					m, err := s.Map(smallEnv(seed+int64(j), guests))
					if err != nil {
						// Contention can exhaust residuals mid-stress; the
						// failed attempt must leave no trace (checked via
						// the baseline comparison after the join).
						continue
					}
					if err := m.Validate(cluster.VMMOverhead{}); err != nil {
						t.Errorf("worker %d: mapping invalid: %v", w, err)
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

// TestSessionStressWithFailures interleaves concurrent maps with host
// failures: every eviction the failure reports must leave the ledger
// consistent, and restoring the host must return the session to a state
// where mapping succeeds again.
func TestSessionStressWithFailures(t *testing.T) {
	c, s := sessionFixture(t)
	host := c.Hosts()[0].Node

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if m, err := s.Map(smallEnv(int64(2000+w*10+i), 10)); err == nil {
					_ = s.Release(m)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := s.FailHost(host); err != nil {
				t.Errorf("FailHost: %v", err)
			}
			if err := s.RestoreHost(host); err != nil {
				t.Errorf("RestoreHost: %v", err)
			}
		}
	}()
	wg.Wait()

	evicted, err := s.FailHost(host)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range evicted {
		if _, err := s.Map(m.Env); err != nil {
			t.Fatalf("redeploying evicted environment: %v", err)
		}
	}
	if _, err := s.Map(smallEnv(3000, 10)); err != nil {
		t.Fatalf("mapping after restore cycle: %v", err)
	}
}

// TestSessionStressFailRepairRestore interleaves Map/Release with
// FailHostAndRepair / FailLinkAndRepair / Restore* from many goroutines
// — the full hmnd failure surface under contention. Run under -race it
// proves the repair engine's locking; afterwards the cluster is healed,
// every surviving environment released, and the residual ledger must
// return exactly to the primed baseline.
func TestSessionStressFailRepairRestore(t *testing.T) {
	c, s := sessionFixture(t)
	baseline := s.ResidualProc()
	hosts := c.HostNodes()

	iters := 6
	if testing.Short() {
		iters = 2
	}

	var wg sync.WaitGroup
	// Mapper goroutines: their handles may be evicted (or swapped by a
	// repair) underneath them, so ErrNotActive on release is expected.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m, err := s.Map(smallEnv(int64(4000+w*100+i), 12))
				if err != nil {
					continue
				}
				_ = s.ResidualProc()
				if err := s.Release(m); err != nil && !errors.Is(err, ErrNotActive) {
					t.Errorf("release: %v", err)
				}
			}
		}(w)
	}
	// Failer goroutines: each owns a distinct target, so fail/restore
	// pairs never conflict and every error is a real bug.
	for f := 0; f < 2; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			host := hosts[f]
			for i := 0; i < iters; i++ {
				if _, err := s.FailHostAndRepair(host); err != nil {
					t.Errorf("FailHostAndRepair(%d): %v", host, err)
					return
				}
				if err := s.RestoreHost(host); err != nil {
					t.Errorf("RestoreHost(%d): %v", host, err)
					return
				}
			}
		}(f)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := s.FailLinkAndRepair(0); err != nil {
				t.Errorf("FailLinkAndRepair(0): %v", err)
				return
			}
			if err := s.RestoreLink(0); err != nil {
				t.Errorf("RestoreLink(0): %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Heal anything still failed (none should be; the pairs are matched),
	// then release the survivors — repairs may have committed mappings
	// whose original handles were released as ErrNotActive above.
	for _, node := range hosts {
		if err := s.RestoreHost(node); err != nil && !errors.Is(err, ErrNotFailed) {
			t.Fatalf("RestoreHost(%d): %v", node, err)
		}
	}
	for e := 0; e < c.Net().NumEdges(); e++ {
		if err := s.RestoreLink(e); err != nil && !errors.Is(err, ErrNotFailed) {
			t.Fatalf("RestoreLink(%d): %v", e, err)
		}
	}
	for _, m := range s.ActiveMappings() {
		if err := s.Release(m); err != nil {
			t.Fatalf("releasing survivor: %v", err)
		}
	}
	if s.Active() != 0 {
		t.Fatalf("Active = %d after teardown", s.Active())
	}
	after := s.ResidualProc()
	for i := range baseline {
		if math.Abs(baseline[i]-after[i]) > 1e-6 {
			t.Fatalf("host %d residual %.9f, want baseline %.9f", i, after[i], baseline[i])
		}
	}
}

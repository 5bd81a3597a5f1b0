package core

import (
	"testing"

	"repro/internal/cluster"
)

// TestARCacheHitsOnRepeatRouting is the regression test for the AR-table
// rebuild bug: routing the same topology twice must serve the second
// admission's latency tables from the cache, and a FailLink/RestoreLink
// round-trip must return to the warm generation-0 cache instead of
// re-running every Dijkstra sweep.
func TestARCacheHitsOnRepeatRouting(t *testing.T) {
	_, s := sessionFixture(t)

	m1, err := s.Map(smallEnv(11, 40))
	if err != nil {
		t.Fatal(err)
	}
	first := s.AdmissionStats()
	if first.ARCacheMisses == 0 {
		t.Fatal("first admission computed no latency tables at all")
	}
	if err := s.Release(m1); err != nil {
		t.Fatal(err)
	}

	// The identical environment on the restored residuals routes to the
	// same destinations: every table lookup must hit, none may rebuild.
	m2, err := s.Map(smallEnv(11, 40))
	if err != nil {
		t.Fatal(err)
	}
	second := s.AdmissionStats()
	if second.ARCacheHits <= first.ARCacheHits {
		t.Fatalf("repeat routing of an unchanged ledger hit the cache %d -> %d times, want an increase",
			first.ARCacheHits, second.ARCacheHits)
	}
	if second.ARCacheMisses != first.ARCacheMisses {
		t.Fatalf("repeat routing rebuilt tables: misses %d -> %d",
			first.ARCacheMisses, second.ARCacheMisses)
	}
	if err := s.Release(m2); err != nil {
		t.Fatal(err)
	}

	// Cut and restore a physical link with nothing deployed: the
	// topology generation leaves 0 and comes back to it.
	if _, err := s.FailLink(0); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreLink(0); err != nil {
		t.Fatal(err)
	}

	// The generation-0 tables must have survived the failure epoch.
	if _, err := s.Map(smallEnv(11, 40)); err != nil {
		t.Fatal(err)
	}
	third := s.AdmissionStats()
	if third.ARCacheHits <= second.ARCacheHits {
		t.Fatalf("post-restore routing hit the cache %d -> %d times, want an increase",
			second.ARCacheHits, third.ARCacheHits)
	}
	if third.ARCacheMisses != second.ARCacheMisses {
		t.Fatalf("FailLink/RestoreLink flushed the pristine tables: misses %d -> %d",
			second.ARCacheMisses, third.ARCacheMisses)
	}
}

// TestSessionARCacheInvalidation checks that repeated admissions reuse
// the cached Dijkstra tables, that FailLink invalidates them via the
// topology generation, and that RestoreLink returns to the permanently
// warm generation-0 tables.
func TestSessionARCacheInvalidation(t *testing.T) {
	c, s := sessionFixture(t)
	v := smallEnv(42, 24)

	m, err := s.Map(v)
	if err != nil {
		t.Fatal(err)
	}
	st0 := s.AdmissionStats()
	if st0.ARCacheMisses == 0 {
		t.Fatal("first admission recorded no AR cache misses")
	}
	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}

	// Same environment, same topology: the tables must come from cache.
	m, err = s.Map(v)
	if err != nil {
		t.Fatal(err)
	}
	st1 := s.AdmissionStats()
	if st1.ARCacheMisses != st0.ARCacheMisses {
		t.Fatalf("warm admission recomputed tables: misses %d -> %d", st0.ARCacheMisses, st1.ARCacheMisses)
	}
	if st1.ARCacheHits <= st0.ARCacheHits {
		t.Fatalf("warm admission recorded no AR cache hits: %d -> %d", st0.ARCacheHits, st1.ARCacheHits)
	}
	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}

	// Nothing is deployed, so failing any link evicts nothing — but the
	// generation bump must still flush the cache.
	const failed = 0
	if c.Net().NumEdges() == 0 {
		t.Fatal("fixture has no physical links")
	}
	if _, err := s.FailLink(failed); err != nil {
		t.Fatal(err)
	}
	m, err = s.Map(v)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s.AdmissionStats()
	if st2.ARCacheMisses <= st1.ARCacheMisses {
		t.Fatalf("post-FailLink admission served stale tables: misses %d -> %d", st1.ARCacheMisses, st2.ARCacheMisses)
	}
	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}

	// Restoring the link returns the topology to generation 0, whose
	// tables survive failure epochs permanently: the next admission must
	// hit the pristine cache, not rebuild it.
	if err := s.RestoreLink(failed); err != nil {
		t.Fatal(err)
	}
	m, err = s.Map(v)
	if err != nil {
		t.Fatal(err)
	}
	st3 := s.AdmissionStats()
	if st3.ARCacheMisses != st2.ARCacheMisses {
		t.Fatalf("post-RestoreLink admission rebuilt pristine tables: misses %d -> %d", st2.ARCacheMisses, st3.ARCacheMisses)
	}
	if st3.ARCacheHits <= st2.ARCacheHits {
		t.Fatalf("post-RestoreLink admission recorded no cache hits: %d -> %d", st2.ARCacheHits, st3.ARCacheHits)
	}
	if err := m.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("mapping after restore invalid: %v", err)
	}
}

package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/mapping"
)

// tablesEqual compares two latency tables bit for bit.
func tablesEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestLatencyTablesKeptAcrossAdmissions: the first admission computes
// its latency tables, an admission of the same environment after it
// takes every one of them from the session and computes none, and the
// kept tables of the uncut topology are graph.DijkstraLatency's.
func TestLatencyTablesKeptAcrossAdmissions(t *testing.T) {
	c, s := sessionFixture(t)
	v := smallEnv(11, 40)
	m, err := s.Map(v)
	if err != nil {
		t.Fatal(err)
	}
	first := s.AdmissionStats()
	if first.ARCacheMisses == 0 || first.ARCacheHits != 0 {
		t.Fatalf("first admission: %d tables taken, %d computed; want 0 and some", first.ARCacheHits, first.ARCacheMisses)
	}
	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(v); err != nil {
		t.Fatal(err)
	}
	second := s.AdmissionStats()
	if second.ARCacheMisses != first.ARCacheMisses || second.ARCacheHits != first.ARCacheMisses {
		t.Fatalf("second admission: %d taken, %d computed; want %d and none",
			second.ARCacheHits-first.ARCacheHits, second.ARCacheMisses-first.ARCacheMisses, first.ARCacheMisses)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	kept := 0
	for dest, got := range s.ar.pristine {
		if got == nil {
			continue
		}
		kept++
		if !tablesEqual(got, graph.DijkstraLatency(c.Net(), graph.NodeID(dest))) {
			t.Fatalf("the table towards %d is not DijkstraLatency's", dest)
		}
	}
	if uint64(kept) != first.ARCacheMisses {
		t.Fatalf("%d tables kept, %d computed", kept, first.ARCacheMisses)
	}
}

// TestLatencyTablesSurviveAFailureEpoch: routing during a cut does not
// disturb the tables of the uncut topology, and once the link is
// restored an admission takes every table from them and computes none.
func TestLatencyTablesSurviveAFailureEpoch(t *testing.T) {
	_, s := sessionFixture(t)
	v := smallEnv(11, 40)
	m, err := s.Map(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FailLink(0); err != nil {
		t.Fatal(err)
	}
	if m, err = s.Map(v); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreLink(0); err != nil {
		t.Fatal(err)
	}
	before := s.AdmissionStats()
	if _, err := s.Map(v); err != nil {
		t.Fatal(err)
	}
	after := s.AdmissionStats()
	if after.ARCacheMisses != before.ARCacheMisses {
		t.Fatalf("after the failure epoch the admission computed %d tables, want none", after.ARCacheMisses-before.ARCacheMisses)
	}
}

// TestLatencyTablesDuringACut: while a link is cut, routing computes
// tables that avoid it — some differ from the uncut ones — and reuses
// them within the epoch; a second cut starts a new epoch whose tables
// avoid both links.
func TestLatencyTablesDuringACut(t *testing.T) {
	c, s := sessionFixture(t)
	net := c.Net()
	v := smallEnv(11, 40)
	m, err := s.Map(v)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last edge of two paths: it ends at a destination host, so
	// the table towards that host moves.
	var cuts []int
	for _, p := range m.LinkPath {
		if len(p.Edges) > 0 && !slices.Contains(cuts, p.Edges[len(p.Edges)-1]) {
			cuts = append(cuts, p.Edges[len(p.Edges)-1])
		}
	}
	if len(cuts) < 2 {
		t.Fatalf("the mapping's paths end in %d distinct edges, want 2", len(cuts))
	}
	if err := s.Release(m); err != nil {
		t.Fatal(err)
	}

	// cutTables checks every table of the current epoch against a sweep
	// that avoids cut, and returns how many there are and how many differ
	// from the uncut topology's.
	cutTables := func(cut ...int) (n, moved int) {
		t.Helper()
		avoid := func(e int) bool { return slices.Contains(cut, e) }
		s.mu.Lock()
		defer s.mu.Unlock()
		for dest, got := range s.ar.cut {
			if got == nil {
				continue
			}
			n++
			if !tablesEqual(got, graph.DijkstraLatencyAvoiding(net, graph.NodeID(dest), avoid)) {
				t.Fatalf("cut %v: the table towards %d does not avoid the cut", cut, dest)
			}
			if !tablesEqual(got, graph.DijkstraLatency(net, graph.NodeID(dest))) {
				moved++
			}
		}
		return n, moved
	}
	// mapTwice admits v twice in the current epoch and returns the tables
	// each admission computed.
	mapTwice := func() (first, second uint64) {
		t.Helper()
		st0 := s.AdmissionStats()
		m, err := s.Map(v)
		if err != nil {
			t.Fatal(err)
		}
		st1 := s.AdmissionStats()
		if err := s.Release(m); err != nil {
			t.Fatal(err)
		}
		if m, err = s.Map(v); err != nil {
			t.Fatal(err)
		}
		st2 := s.AdmissionStats()
		if err := s.Release(m); err != nil {
			t.Fatal(err)
		}
		return st1.ARCacheMisses - st0.ARCacheMisses, st2.ARCacheMisses - st1.ARCacheMisses
	}

	for _, cut := range [][]int{cuts[:1], cuts[:2]} {
		if _, err := s.FailLink(cut[len(cut)-1]); err != nil {
			t.Fatal(err)
		}
		first, second := mapTwice()
		if first == 0 || second != 0 {
			t.Fatalf("cut %v: the epoch's admissions computed %d and then %d tables, want some and then none", cut, first, second)
		}
		n, moved := cutTables(cut...)
		if uint64(n) != first || moved == 0 {
			t.Fatalf("cut %v: %d tables kept (%d computed), %d of them moved by the cut, want some", cut, n, first, moved)
		}
	}
}

// TestLatencyTableCounts pins AdmissionStats' hit and miss counts over
// admissions, a link failure with its repairs, a restoration and a
// rebalancing round: one count per distinct destination host per routing
// pass, as hmnd's metrics and hmnperf read them.
func TestLatencyTableCounts(t *testing.T) {
	_, s := sessionFixture(t)
	var live []*mapping.Mapping
	for seed := int64(1); seed <= 4; seed++ {
		m, _, err := s.MapTagged(smallEnv(seed, 30), fmt.Sprint(seed))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, m)
	}
	if err := s.Release(live[0]); err != nil {
		t.Fatal(err)
	}
	edge := -1 // the first edge of the second environment's first inter-host path
	for _, p := range live[1].LinkPath {
		if len(p.Edges) > 0 {
			edge = p.Edges[0]
			break
		}
	}
	repaired, err := s.FailLinkAndRepair(edge)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) == 0 {
		t.Fatal("the link failure evicted nothing to repair")
	}
	if _, err := s.Map(smallEnv(5, 30)); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreLink(edge); err != nil {
		t.Fatal(err)
	}
	if err := s.ReleaseTagged("3"); err != nil {
		t.Fatal(err)
	}
	if res := s.Rebalance(20); res.Moves == 0 || res.Route.Searches == 0 {
		t.Fatalf("the rebalancing round moved %d guests with %d searches, want some of both", res.Moves, res.Route.Searches)
	}
	if _, err := s.Map(smallEnv(6, 30)); err != nil {
		t.Fatal(err)
	}
	st := s.AdmissionStats()
	t.Logf("%d tables taken, %d computed", st.ARCacheHits, st.ARCacheMisses)
	if st.ARCacheHits != 30 || st.ARCacheMisses != 32 {
		t.Fatalf("%d tables taken and %d computed, want 30 and 32", st.ARCacheHits, st.ARCacheMisses)
	}
}

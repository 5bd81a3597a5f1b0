package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/topology"
	"repro/internal/workload"
)

// goldenTorusRouteDigest is FNV-64a over every routed edge of the run
// below, re-captured with the look-ahead A*Prune (the paper-order kernel
// read 0x39dd8d1430efa75e from commit 4b2ad5e on; the two differ only in
// which of several paths of one bottleneck and one latency a link gets).
// What it pins is graph.apLess — capped bottleneck, projected latency,
// latency spent, hops, push index — a strict total order, so the digest
// is a function of that order and the admissions alone: a change of heap,
// data layout or scratch reuse cannot move it, a change of the order or
// of any pruning rule does.
const goldenTorusRouteDigest uint64 = 0xf81a7a3c6c061358

// The work one A*Prune search of the golden run may do, on average. The
// paper-order kernel popped 48.3 candidates — every node reachable by a
// path wider than the answer — and the look-ahead pops 13.1 for paths
// averaging 7 hops. Wide-first expansion pops the same 13.1 and pushes
// 18.7 where a single pass with the demand as the floor pushed 28.1; the
// probe of the cheap bound spares 35.9 % of the sweeps over every edge
// (0.641 per search, from 1.0). The counts repeat exactly, so the gates
// have no noise to allow for, only honest drift.
const (
	torusRoutePopsBudget   = 20
	torusRoutePushesBudget = 22
	torusRouteSweepsBudget = 0.70
)

var goldenTorusRun struct {
	once   sync.Once
	err    error
	digest uint64
	edges  int
	route  graph.SearchStats
}

// runGoldenTorusRoute replays hmnperf's torus_route regime at core level
// — 220 FIFO admissions, 4 live, of 500-guest low-level environments on
// the 8x8 10 Gbps / 1 ms torus — once per test binary, hashing every
// LinkPath edge and tallying the A*Prune work.
func runGoldenTorusRoute(t *testing.T) (digest uint64, edges int, route graph.SearchStats) {
	t.Helper()
	if raceEnabled {
		t.Skip("one goroutine, nothing to race; the 220 admissions take a minute instrumented")
	}
	r := &goldenTorusRun
	r.once.Do(func() {
		p := workload.PaperClusterParams()
		p.Hosts = 64
		c, err := topology.Torus2D(workload.GenerateHosts(p, rand.New(rand.NewSource(1))), 8, 8, 10000, 1)
		if err != nil {
			r.err = err
			return
		}
		s, err := NewSession(c, cluster.VMMOverhead{}, nil)
		if err != nil {
			r.err = err
			return
		}

		h := fnv.New64a()
		var word [4]byte
		put := func(x int) {
			word[0], word[1], word[2], word[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
			h.Write(word[:])
		}
		var live []*mapping.Mapping
		for i := 0; i < 220; i++ {
			env := workload.GenerateEnv(workload.LowLevelParams(500, 0.02), rand.New(rand.NewSource(int64(1000+i))))
			m, st, mErr := s.MapTagged(env, "")
			if mErr != nil {
				r.err = fmt.Errorf("admission %d: %w", i, mErr)
				return
			}
			r.route.Add(st.Route)
			for _, path := range m.LinkPath {
				put(-1) // path separator: trivial paths hash too
				for _, e := range path.Edges {
					put(e)
					r.edges++
				}
			}
			live = append(live, m)
			if len(live) > 4 {
				if rErr := s.Release(live[0]); rErr != nil {
					r.err = fmt.Errorf("release before admission %d: %w", i+1, rErr)
					return
				}
				live = live[1:]
			}
		}
		r.digest = h.Sum64()
	})
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.digest, r.edges, r.route
}

// TestGoldenTorusRouteDigest holds every path of the golden run in place,
// so that the search kernel's data layout can change while its results
// provably do not.
func TestGoldenTorusRouteDigest(t *testing.T) {
	got, edges, _ := runGoldenTorusRoute(t)
	if got != goldenTorusRouteDigest {
		t.Fatalf("digest over %d routed edges = %#x, want %#x: a path changed", edges, got, goldenTorusRouteDigest)
	}
}

// TestTorusRoutePopsBudget gates the mechanisms the search kernel works
// by — fewer pops, fewer pushes, fewer sweeps, not faster ones — on counts
// instead of timings. No admission of the golden run has its widest paths
// excluded by the latency budget, so the second pass must never run.
func TestTorusRoutePopsBudget(t *testing.T) {
	_, edges, route := runGoldenTorusRoute(t)
	if route.Searches == 0 {
		t.Fatal("the golden run counted no searches")
	}
	per := func(n uint64) float64 { return float64(n) / float64(route.Searches) }
	t.Logf("%d searches: %.1f pops, %.1f pushes, %.3f sweeps each and %d restarts, for paths of %.1f hops",
		route.Searches, per(route.Pops), per(route.Pushes), per(route.Sweeps), route.Restarts, per(uint64(edges)))
	if per(route.Pops) > torusRoutePopsBudget {
		t.Errorf("%.1f pops per search, budget %d", per(route.Pops), torusRoutePopsBudget)
	}
	if per(route.Pushes) > torusRoutePushesBudget {
		t.Errorf("%.1f pushes per search, budget %d", per(route.Pushes), torusRoutePushesBudget)
	}
	if per(route.Sweeps) > torusRouteSweepsBudget {
		t.Errorf("%.3f sweeps per search, budget %.2f", per(route.Sweeps), torusRouteSweepsBudget)
	}
	if route.Restarts != 0 {
		t.Errorf("%d searches ran a second pass, want 0", route.Restarts)
	}
}

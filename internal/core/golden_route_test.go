package core

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapping"
	"repro/internal/topology"
	"repro/internal/workload"
)

// goldenTorusRouteDigest is FNV-64a over every routed edge of the run
// below, captured at commit 4b2ad5e — the last one whose A*Prune kept
// partial paths as pointer-linked states behind a heap of pointers. Any
// kernel change that alters a single path, or the order two equal-key
// candidates leave the heap, moves it.
const goldenTorusRouteDigest uint64 = 0x39dd8d1430efa75e

// TestGoldenTorusRouteDigest replays hmnperf's torus_route regime at
// core level — 220 FIFO admissions, 4 live, of 500-guest low-level
// environments on the 8x8 10 Gbps / 1 ms torus — and hashes every
// LinkPath edge, so that the search kernel's data layout can change
// while its results provably do not.
func TestGoldenTorusRouteDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine, nothing to race; the 220 admissions take a minute instrumented")
	}
	p := workload.PaperClusterParams()
	p.Hosts = 64
	c, err := topology.Torus2D(workload.GenerateHosts(p, rand.New(rand.NewSource(1))), 8, 8, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	var word [4]byte
	put := func(x int) {
		word[0], word[1], word[2], word[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(word[:])
	}
	var live []*mapping.Mapping
	edges := 0
	for i := 0; i < 220; i++ {
		env := workload.GenerateEnv(workload.LowLevelParams(500, 0.02), rand.New(rand.NewSource(int64(1000+i))))
		m, mErr := s.Map(env)
		if mErr != nil {
			t.Fatalf("admission %d: %v", i, mErr)
		}
		for _, path := range m.LinkPath {
			put(-1) // path separator: trivial paths hash too
			for _, e := range path.Edges {
				put(e)
				edges++
			}
		}
		live = append(live, m)
		if len(live) > 4 {
			if rErr := s.Release(live[0]); rErr != nil {
				t.Fatalf("release before admission %d: %v", i+1, rErr)
			}
			live = live[1:]
		}
	}
	if got := h.Sum64(); got != goldenTorusRouteDigest {
		t.Fatalf("digest over %d routed edges = %#x, want %#x: a path changed", edges, got, goldenTorusRouteDigest)
	}
}

package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// arCache is a session-wide cache of the Networking stage's Dijkstra
// latency tables (the ar[] arrays of Algorithm 1), keyed by destination
// host. A table is a pure function of the routable topology — the
// physical graph minus the currently cut links — so entries stay valid
// across admissions and are invalidated wholesale whenever the ledger's
// topology generation moves (FailLink/RestoreLink bump it via
// CutEdge/RestoreEdge). With the cache warm, precomputing the ar[]
// tables — the cost the paper's §5.2 identifies as dominating mapping
// time — becomes a map lookup instead of a per-admission Dijkstra sweep.
//
// The cache is safe for concurrent use, and a lookup names the topology
// generation of the ledger it routes on: it either matches the cache
// (tables are exact for that topology) or it doesn't (the caller
// computes its own tables and store discards writes from superseded
// generations).
type arCache struct {
	mu  sync.Mutex
	gen uint64                     //hmn:guardedby mu
	tab map[graph.NodeID][]float64 //hmn:guardedby mu
	// pristine holds the generation-0 tables. Generation 0 canonically
	// identifies the cut-free topology (Ledger.TopoGen), which never
	// changes, so these tables stay valid forever — across failure
	// epochs in particular. Keeping them out of tab means a
	// FailLink/RestoreLink round-trip returns to a warm cache instead of
	// re-running every Dijkstra sweep.
	pristine map[graph.NodeID][]float64 //hmn:guardedby mu

	hits   atomic.Uint64
	misses atomic.Uint64
}

func newARCache() *arCache {
	return &arCache{
		tab:      make(map[graph.NodeID][]float64),
		pristine: make(map[graph.NodeID][]float64),
	}
}

// lookup returns the cached table towards dest for topology generation
// gen, or nil when the cache holds a different generation or has no
// entry. Callers must not mutate the returned slice.
func (c *arCache) lookup(gen uint64, dest graph.NodeID) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen == 0 {
		return c.pristine[dest]
	}
	if c.gen != gen {
		return nil
	}
	return c.tab[dest]
}

// store records the table towards dest for generation gen. Generation-0
// tables are kept permanently (see pristine). Nonzero generations are
// monotonic — each new cut set gets a fresh one — so a write from a
// superseded generation is dropped and a write from a newer generation
// flushes every older entry first; the cache only ever mixes tables
// from a single cut topology.
func (c *arCache) store(gen uint64, dest graph.NodeID, table []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen == 0 {
		c.pristine[dest] = table
		return
	}
	if gen < c.gen {
		return
	}
	if gen > c.gen {
		c.gen = gen
		c.tab = make(map[graph.NodeID][]float64)
	}
	c.tab[dest] = table
}

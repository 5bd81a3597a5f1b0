package graph

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// AStarPruneOptions tunes the modified 1-constrained A*Prune search.
// The zero value is a valid, paper-faithful configuration.
type AStarPruneOptions struct {
	// MaxExpansions bounds the number of partial paths popped from the
	// candidate set before the search gives up (returning not-found).
	// 0 means unlimited. A*Prune is worst-case exponential; real mapping
	// workloads stay far below any sensible bound, so this is a safety
	// valve, not a tuning knob.
	MaxExpansions int

	// DisableDominance turns off Pareto-dominance pruning, falling back to
	// the plain candidate-set behaviour of the paper's Algorithm 1. With
	// dominance pruning on (the default), a partial path reaching a node
	// with both a lower-or-equal bottleneck bandwidth and a
	// higher-or-equal accumulated latency than a previously seen partial
	// path at the same node is discarded. This is the standard A*Prune
	// optimisation and does not change the result (verified against
	// brute-force enumeration in the tests); it only bounds the candidate
	// set on dense topologies such as the 2-D torus.
	DisableDominance bool

	// AR optionally supplies the precomputed Dijkstra latency table
	// towards the destination (the paper's ar[] array). When nil it is
	// computed internally. Callers mapping many virtual links that share
	// a destination pass it in to avoid recomputation.
	AR []float64

	// Scratch optionally supplies reusable search state (candidate list,
	// partial-path array, dominance sets), so a caller routing many links
	// in sequence — the Networking stage — allocates it once instead of
	// per search. When nil a scratch is borrowed from an internal
	// sync.Pool. A scratch is NOT safe for concurrent use.
	Scratch *AStarScratch

	// Arena optionally supplies the slab allocator the returned Path's
	// backing arrays are carved from, so a caller routing many links
	// amortises the two per-path allocations over large shared chunks.
	// Storage carved for a path is never reused (see PathArena). Nil
	// allocates each path individually, as before. An arena is NOT safe
	// for concurrent use.
	Arena *PathArena
}

// AStarScratch is the reusable allocation state of AStarPrune: the
// sorted candidate list, the flat array of partial-path nodes its entries
// index, the epoch-stamped Pareto-dominance sets and the workspace of the
// widest-path bound. Reusing one across sequential searches removes every
// allocation from the routing hot path. The zero value is ready to use; a
// scratch must not be shared between goroutines running searches
// concurrently.
type AStarScratch struct {
	cands []apCand // sorted worst-first: the next pop is the last entry
	nodes []apNode
	dom   []paretoSet
	epoch uint64

	// Widest-path bound (see widest): every edge ID in descending order
	// of the residuals the previous search read — a warm start the next
	// search re-sorts, never trusts — those residuals in the same order,
	// and the union-find forest over the nodes.
	order []int32
	res   []float64
	uf    []int32

	// Probe of the cheap bound (see probe): the flood's stack and its
	// visited stamps, invalidated like the dominance sets by bumping a
	// counter instead of clearing.
	stack []int32
	seen  []uint64
	flood uint64

	stats SearchStats
}

// SearchStats counts the work of the searches a scratch has served:
// AStarPrune calls that got past the trivial origin == dest case, the
// candidates they popped from and pushed onto the candidate set, the
// sweeps over every edge that computed an exact widest-path bound (one
// per search on a graph with cycles, less the searches whose cheap bound
// the probe proved exact), and the second passes run because the latency
// budget excluded every path as wide as the bound. Plain counters — a
// scratch has one owner — that the Networking stage folds into its stage
// statistics once per stage.
type SearchStats struct {
	Searches, Pops, Pushes, Sweeps, Restarts uint64
}

// Add accumulates d into s.
func (s *SearchStats) Add(d SearchStats) {
	s.Searches += d.Searches
	s.Pops += d.Pops
	s.Pushes += d.Pushes
	s.Sweeps += d.Sweeps
	s.Restarts += d.Restarts
}

// Sub returns s minus an earlier reading of the same counters.
func (s SearchStats) Sub(earlier SearchStats) SearchStats {
	return SearchStats{s.Searches - earlier.Searches, s.Pops - earlier.Pops, s.Pushes - earlier.Pushes,
		s.Sweeps - earlier.Sweeps, s.Restarts - earlier.Restarts}
}

// Stats returns the scratch's running totals.
func (sc *AStarScratch) Stats() SearchStats { return sc.stats }

// apNode is one node of a partial path: the graph node, the edge taken
// to arrive at it (-1 at the origin) and the index in AStarScratch.nodes
// of the node before it (-1 at the origin). Partial paths share prefixes,
// so extending one appends a single apNode.
type apNode struct {
	node, edge, parent int32
}

// apCand is one entry of the candidate list: the ordering key by value —
// a comparison reads the list and nothing else. bottleneck is the
// partial path's bottleneck capped at the widest-path bound, accLat its
// latency so far, projLat = accLat + ar[node] the least latency any
// completion of it can have, and idx its last apNode, which doubles as
// the push index: apNodes are appended one per push.
type apCand struct {
	bottleneck, projLat, accLat float64
	hops, idx                   int32
}

// NewAStarScratch returns an empty scratch. Equivalent to &AStarScratch{};
// provided for discoverability.
func NewAStarScratch() *AStarScratch { return &AStarScratch{} }

// scratchPool recycles scratches for callers that do not hold one.
var scratchPool = sync.Pool{New: func() interface{} { return &AStarScratch{} }}

// begin resets the scratch for one search over a graph of n nodes.
// Dominance sets are invalidated by epoch stamping, not cleared, so reuse
// is O(1) in the graph size.
func (sc *AStarScratch) begin(n int, dominance bool) {
	sc.cands = sc.cands[:0]
	sc.nodes = sc.nodes[:0]
	if dominance {
		if len(sc.dom) < n {
			sc.dom = make([]paretoSet, n)
		}
		sc.epoch++
		if sc.epoch == 0 { // wrapped: stamps are ambiguous, hard-reset
			for i := range sc.dom {
				sc.dom[i] = paretoSet{}
			}
			sc.epoch = 1
		}
	}
}

// extend records the partial path that reaches node over edge from the
// partial path ending at apNode parent, and adds it to the candidate set.
func (sc *AStarScratch) extend(c apCand, node, edge, parent int32) {
	sc.stats.Pushes++
	sc.nodes = append(sc.nodes, apNode{node: node, edge: edge, parent: parent})
	sc.push(c)
}

// push adds a candidate to the list, which is kept sorted worst-first:
// the candidate moves down from the end past every entry apLess puts
// before it. apLess is a strict total order, so which candidate pop
// returns next is a function of the set's contents alone (the reference
// selector of the tests uses a linear scan). A new push is usually the
// least candidate of the set — ties go to the latest push — so it rarely
// moves at all.
func (sc *AStarScratch) push(c apCand) {
	l := append(sc.cands, c)
	i := len(l) - 1
	for ; i > 0 && apLess(&l[i-1], &c); i-- {
		l[i] = l[i-1]
	}
	l[i] = c
	sc.cands = l
}

// pop removes and returns the best candidate, the list's last entry.
func (sc *AStarScratch) pop() apCand {
	sc.stats.Pops++
	n := len(sc.cands) - 1
	c := sc.cands[n]
	sc.cands = sc.cands[:n]
	return c
}

// apLess is the candidate order: widest capped bottleneck first; among
// equals the least projected latency — the A* look-ahead, which walks the
// search towards the destination instead of flooding every node as wide
// as the answer; then the partial path that has already spent the most of
// that latency, then the most hops, then the latest push, so that ties go
// depth-first. No two candidates share a push index, which makes this a
// strict total order and the pop sequence a function of the query, not of
// the structure that holds the candidates.
func apLess(a, b *apCand) bool {
	if a.bottleneck != b.bottleneck {
		return a.bottleneck > b.bottleneck
	}
	if a.projLat != b.projLat {
		return a.projLat < b.projLat
	}
	if a.accLat != b.accLat {
		return a.accLat > b.accLat
	}
	if a.hops != b.hops {
		return a.hops > b.hops
	}
	return a.idx > b.idx
}

// onPath reports whether graph node n lies on the partial path ending at
// apNode idx.
func (sc *AStarScratch) onPath(idx, n int32) bool {
	for ; idx >= 0; idx = sc.nodes[idx].parent {
		if sc.nodes[idx].node == n {
			return true
		}
	}
	return false
}

// pathIn materialises the partial path of hops edges ending at apNode
// idx, carving the backing arrays from arena when one is supplied.
func (sc *AStarScratch) pathIn(idx, hops int32, arena *PathArena) Path {
	var nodes []NodeID
	var edges []int
	if arena != nil {
		nodes, edges = arena.alloc(int(hops))
	} else {
		nodes = make([]NodeID, hops+1)
		edges = make([]int, hops)
	}
	for i := hops; ; i-- {
		at := sc.nodes[idx]
		nodes[i] = NodeID(at.node)
		if at.parent < 0 {
			break
		}
		edges[i-1] = int(at.edge)
		idx = at.parent
	}
	return Path{Nodes: nodes, Edges: edges}
}

// widest returns the greatest bottleneck any origin-dest path can have
// under residual, latency ignored: -Inf when the two are disconnected. The
// cheap bound is tried first (see probe), and the sweep over every edge
// runs only when the probe cannot prove it exact.
func (sc *AStarScratch) widest(g *Graph, origin, dest int32, residual []float64) float64 {
	if w, exact := sc.probe(g, origin, dest, residual); exact {
		return w
	}
	return sc.sweep(g, origin, dest, residual)
}

// probe computes the cheap bound on the widest origin-dest bottleneck and
// tries to prove it exact. Every origin-dest path leaves over an edge at
// origin and arrives over one at dest, so none is wider than w, the lesser
// of the widest edge at either end. A flood from the end that sets w —
// where only the edges tied at w lead anywhere, so a miss usually dies
// within a few nodes — over the edges at least w wide either reaches the
// other end, and then a path of width w exists and w is the bound, or
// proves nothing. It reads residuals and writes only its own stack and
// stamps: the edge order the sweep keeps goes stale for a search longer,
// which that order, a warm start, is allowed to be.
func (sc *AStarScratch) probe(g *Graph, origin, dest int32, residual []float64) (w float64, exact bool) {
	half := g.half
	wo, wd := math.Inf(-1), math.Inf(-1)
	for _, e := range half[origin] {
		wo = max(wo, residual[e.eid])
	}
	for _, e := range half[dest] {
		wd = max(wd, residual[e.eid])
	}
	w, from, to := wo, origin, dest
	if wd < wo {
		w, from, to = wd, dest, origin
	}

	if len(sc.seen) < g.n {
		sc.seen = make([]uint64, g.n)
	}
	sc.flood++ // never 0, the stamp of a node no flood has seen; 2^64 probes do not happen
	seen, mark := sc.seen, sc.flood
	seen[from] = mark
	stack := append(sc.stack[:0], from)
	for len(stack) > 0 && !exact {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range half[u] {
			if seen[e.to] == mark || residual[e.eid] < w {
				continue
			}
			if e.to == to {
				exact = true
				break
			}
			seen[e.to] = mark
			stack = append(stack, e.to)
		}
	}
	sc.stack = stack
	return w, exact
}

// sweep computes the widest origin-dest bottleneck exactly. It is
// Kruskal's maximum spanning forest stopped early — edges join a
// union-find forest in descending residual order until origin and dest
// meet, and the edge that joins them is the bound. The order kept from the
// previous sweep is only a warm start: every call re-reads every residual
// and finishes sorting before it joins anything, so the result never
// depends on what the scratch served before. A search's reservation moves
// a path's worth of edges, which is what makes an insertion pass cheap.
func (sc *AStarScratch) sweep(g *Graph, origin, dest int32, residual []float64) float64 {
	sc.stats.Sweeps++
	m := len(g.edges)
	if len(sc.order) != m { // first use, or another graph: nothing to warm-start from
		res := make([]float64, m)
		sc.order, sc.res = make([]int32, m), res
		for e := range res {
			sc.order[e], res[e] = int32(e), residual[e]
		}
		// The pass below would be quadratic from an arbitrary order. (res
		// is by edge ID for this sort only; the pass rewrites it.)
		slices.SortStableFunc(sc.order, func(a, b int32) int { return cmp.Compare(res[b], res[a]) })
	}
	// order[i] is an edge and res[i] the residual it has now; positions
	// below i are sorted, descending.
	order, res := sc.order, sc.res
	for i, e := range order {
		r := residual[e]
		j := i
		for ; j > 0 && res[j-1] < r; j-- {
			order[j], res[j] = order[j-1], res[j-1]
		}
		order[j], res[j] = e, r
	}

	if len(sc.uf) < g.n {
		sc.uf = make([]int32, g.n)
	}
	uf := sc.uf[:g.n]
	for i := range uf {
		uf[i] = int32(i)
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]] // path halving
			x = uf[x]
		}
		return x
	}
	// ro and rd are the roots of origin's and dest's trees, kept current
	// as trees merge, so that "have they met" costs nothing per edge.
	ro, rd := origin, dest
	for i, e := range order {
		a, b := find(int32(g.edges[e].A)), find(int32(g.edges[e].B))
		if a == b {
			continue
		}
		uf[a] = b
		if ro == a {
			ro = b
		}
		if rd == a {
			rd = b
		}
		if ro == rd {
			return res[i]
		}
	}
	return math.Inf(-1)
}

// WidestBottleneck returns the greatest bottleneck bandwidth any path
// from origin to dest can have under residual, whatever its latency, and
// -Inf when there is none. A virtual link asking for more than this is
// unroutable for want of bandwidth; one asking for no more, and still
// unroutable, for want of latency budget.
func WidestBottleneck(g *Graph, origin, dest NodeID, residual []float64) float64 {
	if origin == dest {
		return math.Inf(1)
	}
	sc := scratchPool.Get().(*AStarScratch)
	defer scratchPool.Put(sc)
	return sc.widest(g, int32(origin), int32(dest), residual)
}

// AStarPrune implements the paper's modified 1-constrained A*Prune
// (Algorithm 1, after Liu & Ramakrishnan): it finds a loop-free path from
// origin to dest whose every edge has residual bandwidth of at least
// bandwidth and whose total latency does not exceed latency, and among all
// such paths returns one with the greatest bottleneck (minimum residual)
// bandwidth — and, among those, the least latency. The rationale (§4.3)
// is to keep the links with the largest spare capacity available for the
// virtual links still to be mapped. residual[e] is the spare bandwidth of
// edge e, read in place: a caller that reserves along the returned path
// by writing the vector routes its next link on the new residuals.
//
// The search keeps a set of feasible partial paths ordered by apLess.
// Algorithm 1 orders them by the bottleneck so far and nothing else, so
// before it can stop it expands every node reachable by a path wider than
// the answer. Liu & Ramakrishnan's A*Prune orders by a projection — the
// metric so far combined with an admissible bound on the rest — and this
// search restores that for bandwidth: no origin-dest walk is wider than
// the widest-path bound U (see widest), so a partial path's bottleneck is
// capped at U from the origin on. The cap is an admissible key (a path's
// final bottleneck never exceeds min(so far, U)) and a sufficient
// statistic for dominance (two prefixes at a node with equal capped
// bottlenecks complete to equally wide paths), every partial path that
// can still be optimal ties at U, and the tie is broken by projected
// latency. Some prefix of an optimal path — or of one that dominates it —
// is always in the set with a key no worse than the optimum's, so the
// first destination popped is optimal; when the budget excludes every
// path of width U the set simply runs on into narrower candidates. The
// look-ahead is skipped (U = +Inf) on a graph with fewer edges than
// nodes: a forest's paths are unique, so there is no choice to inform.
//
// The search is wide-first. A candidate narrower than U sorts after every
// U-wide one, so it is popped only once no U-wide candidate is left —
// once every U-wide path has bust the budget, which a loaded torus sees
// almost never. So the first pass of the expansion loop (see expand) runs
// with a floor of U instead of the demand: an edge with less residual
// than U is not extended at all. Only if that pass empties the set
// without popping the destination does a second pass run the same loop
// from the origin with the demand as the floor. The path returned is the
// one a single pass with the demand as the floor returns, edge for edge,
// because the first pass pops exactly the prefix of that pass's pop
// sequence that precedes its first narrow pop: (1) apLess puts every
// candidate whose capped bottleneck is U before every narrower one, and
// among the U-wide ones compares push indices only for their order, which
// leaving out the narrow pushes in between does not change; (2) a
// narrower (bottleneck, latency) pair never dominates a U-wide pair in a
// Pareto set, so no U-wide extension is rejected for a narrow one's sake;
// (3) a narrow destination candidate held as the goal never suppresses a
// U-wide push, which is less than it, and is replaced by the first U-wide
// destination candidate; (4) MaxExpansions counts pops, the same pops in
// the same order, so a capped search gives up at the same pop — the
// second pass counts from zero, being the whole single-pass search.
//
// Extensions are pruned when the extending edge lacks residual bandwidth,
// when the node is already on the path (Eq. 7 — a test dominance pruning
// makes implicit, see where the search is seeded), or when the
// accumulated latency plus the edge latency plus the Dijkstra lower bound
// ar[h] to the destination exceeds the latency budget — the admissibility
// test. (The paper's pseudo-code writes the test as lat((d,h)) + ar[h] <=
// latency, omitting the accumulated term; that form would admit
// latency-violating paths, so we include the accumulated latency, which
// is also what the original A*Prune of Liu & Ramakrishnan prescribes.)
//
// It returns the path and true on success. If origin == dest the trivial
// path is returned. On failure (no feasible path, or MaxExpansions hit)
// it returns a zero Path and false.
func AStarPrune(g *Graph, origin, dest NodeID, bandwidth, latency float64, residual []float64, opts *AStarPruneOptions) (Path, bool) {
	if opts == nil {
		opts = &AStarPruneOptions{}
	}
	if origin == dest {
		return TrivialPath(origin), true
	}
	sc := opts.Scratch
	if sc == nil {
		sc = scratchPool.Get().(*AStarScratch)
		defer scratchPool.Put(sc)
	}
	sc.stats.Searches++
	ar := opts.AR
	if ar == nil {
		ar = DijkstraLatency(g, dest)
	}
	if ar[origin] > latency {
		return Path{}, false // even the latency-optimal path busts the budget
	}
	src, dst := int32(origin), int32(dest)
	widest, floor := math.Inf(1), bandwidth
	if len(g.edges) >= g.n {
		if widest = sc.widest(g, src, dst, residual); widest < bandwidth {
			return Path{}, false // no path has the spare bandwidth, whatever its latency
		}
		floor = widest
	}
	p, ok, exhausted := sc.expand(g, src, dst, floor, latency, widest, residual, ar, opts)
	if exhausted && floor > bandwidth {
		sc.stats.Restarts++
		p, ok, _ = sc.expand(g, src, dst, bandwidth, latency, widest, residual, ar, opts)
	}
	return p, ok
}

// expand is AStarPrune's one expansion loop: from the origin alone in the
// candidate set, pop the apLess-least candidate and extend it over every
// edge with at least floor of residual, until the destination is popped
// (its path and true), MaxExpansions is exceeded, or the set is empty —
// exhausted, which with a floor above the demand proves only that no path
// that wide meets the budget.
func (sc *AStarScratch) expand(g *Graph, src, dst int32, floor, latency, widest float64, residual []float64, ar []float64, opts *AStarPruneOptions) (p Path, ok, exhausted bool) {
	dominance := !opts.DisableDominance
	sc.begin(g.n, dominance)
	if dominance {
		// Eq. 7 for free. Along a partial path the capped bottleneck
		// never rises and the accumulated latency never falls (edge
		// latencies are non-negative numbers), and every node on it put
		// its own (bottleneck, latency) pair into its Pareto set — the
		// origin here, the others when they were pushed — where it stays
		// until a pair that dominates it replaces it. So an extension
		// that returns to a node of its own path always finds a
		// dominating pair there: insert rejects it, before changing
		// anything, and the walk back along the path that Eq. 7 would
		// cost is only needed with dominance off.
		sc.dom[src].insert(widest, 0, sc.epoch)
	}

	half := g.half
	sc.extend(apCand{bottleneck: widest, projLat: ar[src]}, src, -1, -1)
	// goal is the best destination candidate pushed so far. The search
	// ends when it is popped, and under a strict total order everything
	// popped before it is less than it: a candidate that is not will
	// never be expanded, so it is not pushed. (It has still gone through
	// the dominance test, so the Pareto sets, and with them the result,
	// are those of a search that pushes everything.)
	var goal apCand
	reached := false
	expansions := 0
	for len(sc.cands) > 0 {
		best := sc.pop()
		at := sc.nodes[best.idx].node
		if at == dst {
			return sc.pathIn(best.idx, best.hops, opts.Arena), true, false
		}
		expansions++
		if opts.MaxExpansions > 0 && expansions > opts.MaxExpansions {
			return Path{}, false, false
		}
		for _, e := range half[at] {
			h := e.to
			if !dominance && sc.onPath(best.idx, h) {
				continue // Eq. 7: no loops
			}
			if h != dst && len(half[h]) == 1 {
				// Dead end: h's only edge is the one we would arrive by, so
				// no simple path can continue through it. Leaf hosts hanging
				// off a switch are the common case — on switched, cascaded
				// and fat-tree fabrics this skips most of the frontier
				// before the residual-bandwidth lookup even runs. The
				// returned path is unaffected: it could never visit such a
				// node.
				continue
			}
			r := residual[e.eid]
			if r < floor {
				continue // Eq. 9: not enough spare bandwidth — or, wide-first, narrower than the bound
			}
			c := apCand{bottleneck: best.bottleneck, accLat: best.accLat + e.lat, hops: best.hops + 1, idx: int32(len(sc.nodes))}
			c.projLat = c.accLat + ar[h]
			if c.projLat > latency {
				continue // admissibility: cannot reach dest within budget
			}
			if r < c.bottleneck {
				c.bottleneck = r
			}
			if dominance && !sc.dom[h].insert(c.bottleneck, c.accLat, sc.epoch) {
				continue // dominated by an already-seen partial path, or a loop
			}
			if reached && !apLess(&c, &goal) {
				continue // would leave the set after the search has ended
			}
			if h == dst {
				goal, reached = c, true
			}
			sc.extend(c, h, e.eid, best.idx)
		}
	}
	return Path{}, false, true
}

// paretoSet keeps the non-dominated (bottleneck, latency) pairs seen at a
// node. A new pair dominates an old one when its bottleneck is >= and its
// latency is <=; equal pairs count as dominated (the first arrival wins).
// The epoch stamp lets a reused scratch invalidate every set in O(1): a
// set whose epoch differs from the current search's is logically empty.
type paretoSet struct {
	epoch uint64
	pairs []paretoPair
}

type paretoPair struct {
	bottleneck float64
	latency    float64
}

// insert reports whether the pair is non-dominated; if so it is recorded
// and any pairs it dominates are dropped. epoch identifies the current
// search for scratch reuse; callers with a fresh set pass 0.
func (ps *paretoSet) insert(bottleneck, latency float64, epoch uint64) bool {
	if ps.epoch != epoch {
		ps.epoch = epoch
		ps.pairs = ps.pairs[:0]
	}
	for _, p := range ps.pairs {
		if p.bottleneck >= bottleneck && p.latency <= latency {
			return false
		}
	}
	kept := ps.pairs[:0]
	for _, p := range ps.pairs {
		if !(bottleneck >= p.bottleneck && latency <= p.latency) {
			kept = append(kept, p)
		}
	}
	ps.pairs = append(kept, paretoPair{bottleneck, latency})
	return true
}

// Package ga implements a genetic-algorithm mapper in the spirit of the
// related work the paper cites — Liu et al., "Mapping resources for
// network emulation with heuristic and genetic algorithms" (PDCAT 2005,
// the paper's reference [9]). It searches the placement space directly:
// a chromosome assigns every guest a host, fitness is the paper's
// objective function (Eq. 10) after a first-fit repair of capacity
// violations, and routing runs once on the evolved winner with the same
// A*Prune pass HMN uses.
//
// Following the hybrid spirit of that work, the initial population is
// seeded with HMN's own placement alongside random individuals, and
// elitism guarantees the final result is never worse (by placement
// objective) than the seed — making the GA a strict-improvement
// refinement of HMN at a tunable compute budget.
package ga

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/stats"
	"repro/internal/virtual"
)

// Mapper is the genetic-algorithm placement search. The zero value uses
// the documented defaults; Rand should be set for reproducibility (nil
// seeds a fixed source).
type Mapper struct {
	// Overhead is deducted from every host before mapping (§3.1).
	Overhead cluster.VMMOverhead
	// Rand drives every stochastic choice.
	Rand *rand.Rand
	// Population size (default 60).
	Population int
	// Generations to evolve (default 120).
	Generations int
	// TournamentK is the selection tournament size (default 3).
	TournamentK int
	// CrossoverRate is the probability a child is produced by uniform
	// crossover rather than cloning (default 0.9).
	CrossoverRate float64
	// MutationRate is the per-gene probability of re-drawing a host
	// (default 0.02).
	MutationRate float64
	// Elitism is the number of best individuals copied unchanged into
	// the next generation (default 2, minimum 1 to preserve the
	// strict-improvement guarantee).
	Elitism int
	// Patience stops evolution after this many generations without
	// improvement (default 25; 0 means no early stop).
	Patience int
	// SeedWithHMN injects HMN's placement into the initial population
	// (default true via the unexported negation — set DisableSeed to
	// drop it).
	DisableSeed bool
	// LocalSearchSteps bounds the memetic hill-climb applied to each
	// generation's best individual: repeated steepest-descent
	// single-guest moves over every (guest, host) pair — a strictly
	// stronger neighbourhood than HMN's Migration stage, which restricts
	// the donor and the victim. Default 50; negative disables.
	LocalSearchSteps int
}

// Name implements core.Mapper.
func (m *Mapper) Name() string { return "GA" }

type params struct {
	pop, gens, tk, elite, patience, ls int
	cx, mut                            float64
}

func (m *Mapper) params() params {
	p := params{
		pop: m.Population, gens: m.Generations, tk: m.TournamentK,
		elite: m.Elitism, patience: m.Patience, cx: m.CrossoverRate, mut: m.MutationRate,
		ls: m.LocalSearchSteps,
	}
	if p.ls == 0 {
		p.ls = 50
	}
	if p.ls < 0 {
		p.ls = 0
	}
	if p.pop <= 0 {
		p.pop = 60
	}
	if p.gens <= 0 {
		p.gens = 120
	}
	if p.tk <= 0 {
		p.tk = 3
	}
	if p.elite <= 0 {
		p.elite = 2
	}
	if p.patience == 0 {
		p.patience = 25
	}
	if p.cx <= 0 {
		p.cx = 0.9
	}
	if p.mut <= 0 {
		p.mut = 0.02
	}
	return p
}

// individual is one placement chromosome: gene g holds the host-list
// index of guest g.
type individual struct {
	genes   []int
	fitness float64 // Eq. 10 after repair; +Inf when irreparable
}

// Map implements core.Mapper.
func (m *Mapper) Map(c *cluster.Cluster, v *virtual.Env) (*mapping.Mapping, error) {
	rng := m.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	p := m.params()
	hosts := c.HostNodes()
	if len(hosts) == 0 {
		return nil, fmt.Errorf("GA: cluster has no hosts")
	}
	base, err := cluster.NewLedger(c, m.Overhead)
	if err != nil {
		return nil, fmt.Errorf("GA: %w", err)
	}

	eval := newEvaluator(base, c, v, hosts)

	// Initial population: random fitting placements plus (optionally)
	// HMN's own placement as the seed elite.
	popn := make([]individual, 0, p.pop)
	if !m.DisableSeed {
		if seed, err := (&core.HMN{Overhead: m.Overhead}).Map(c, v); err == nil {
			genes := make([]int, v.NumGuests())
			idx := map[graph.NodeID]int{}
			for i, n := range hosts {
				idx[n] = i
			}
			for g, node := range seed.GuestHost {
				genes[g] = idx[node]
			}
			ind := eval.evaluate(genes)
			if p.ls > 0 {
				ind = eval.localImprove(ind, p.ls)
			}
			popn = append(popn, ind)
		}
	}
	for len(popn) < p.pop {
		popn = append(popn, eval.evaluate(randomGenes(rng, v, len(hosts))))
	}

	best := bestOf(popn)
	stale := 0
	for gen := 0; gen < p.gens; gen++ {
		next := make([]individual, 0, p.pop)
		// Elitism.
		sort.SliceStable(popn, func(i, j int) bool { return popn[i].fitness < popn[j].fitness })
		for i := 0; i < p.elite && i < len(popn); i++ {
			next = append(next, popn[i])
		}
		for len(next) < p.pop {
			a := tournament(rng, popn, p.tk)
			child := append([]int(nil), a.genes...)
			if rng.Float64() < p.cx {
				b := tournament(rng, popn, p.tk)
				for i := range child {
					if rng.Intn(2) == 0 {
						child[i] = b.genes[i]
					}
				}
			}
			for i := range child {
				if rng.Float64() < p.mut {
					child[i] = rng.Intn(len(hosts))
				}
			}
			next = append(next, eval.evaluate(child))
		}
		popn = next
		// Memetic step: hill-climb the generation's best individual.
		if p.ls > 0 {
			bi := 0
			for i := range popn {
				if popn[i].fitness < popn[bi].fitness {
					bi = i
				}
			}
			popn[bi] = eval.localImprove(popn[bi], p.ls)
		}
		if nb := bestOf(popn); nb.fitness < best.fitness-1e-12 {
			best = nb
			stale = 0
		} else {
			stale++
			if p.patience > 0 && stale >= p.patience {
				break
			}
		}
	}

	if math.IsInf(best.fitness, 1) {
		return nil, fmt.Errorf("GA: %w", core.ErrNoHostFits)
	}

	// Route the winner; fall back through the final population in
	// fitness order if its links are unroutable.
	sort.SliceStable(popn, func(i, j int) bool { return popn[i].fitness < popn[j].fitness })
	tried := map[string]bool{}
	for _, ind := range popn {
		if math.IsInf(ind.fitness, 1) {
			break
		}
		key := fmt.Sprint(ind.genes)
		if tried[key] {
			continue
		}
		tried[key] = true
		if out, ok := eval.realize(ind); ok {
			return out, nil
		}
	}
	return nil, fmt.Errorf("GA: %w: no evolved placement was routable", core.ErrNoPath)
}

func randomGenes(rng *rand.Rand, v *virtual.Env, hosts int) []int {
	genes := make([]int, v.NumGuests())
	for i := range genes {
		genes[i] = rng.Intn(hosts)
	}
	return genes
}

func bestOf(popn []individual) individual {
	best := popn[0]
	for _, ind := range popn[1:] {
		if ind.fitness < best.fitness {
			best = ind
		}
	}
	return best
}

func tournament(rng *rand.Rand, popn []individual, k int) individual {
	best := popn[rng.Intn(len(popn))]
	for i := 1; i < k; i++ {
		if c := popn[rng.Intn(len(popn))]; c.fitness < best.fitness {
			best = c
		}
	}
	return best
}

// evaluator decodes chromosomes against a reusable ledger.
type evaluator struct {
	base  *cluster.Ledger
	c     *cluster.Cluster
	v     *virtual.Env
	hosts []graph.NodeID
}

func newEvaluator(base *cluster.Ledger, c *cluster.Cluster, v *virtual.Env, hosts []graph.NodeID) *evaluator {
	return &evaluator{base: base, c: c, v: v, hosts: hosts}
}

// evaluate decodes genes with first-fit repair of capacity violations:
// guests whose gene host cannot hold them move to the first host (in
// list order from their gene position) that can. Repaired genes are
// written back so good repairs propagate. Fitness is Eq. 10, or +Inf
// when some guest fits nowhere.
func (e *evaluator) evaluate(genes []int) individual {
	led := e.base.Clone()
	for g := range genes {
		guest := e.v.Guest(virtual.GuestID(g))
		placed := false
		for off := 0; off < len(e.hosts); off++ {
			hi := (genes[g] + off) % len(e.hosts)
			node := e.hosts[hi]
			if !led.Fits(node, guest.Mem, guest.Stor) {
				continue
			}
			if err := led.ReserveGuest(node, guest.Proc, guest.Mem, guest.Stor); err != nil {
				continue
			}
			genes[g] = hi
			placed = true
			break
		}
		if !placed {
			return individual{genes: genes, fitness: math.Inf(1)}
		}
	}
	return individual{genes: genes, fitness: stats.PopStdDev(led.ResidualProcAll())}
}

// localImprove applies steepest-descent single-guest moves to a feasible
// individual: at every step the (guest, host) reassignment that most
// reduces the residual-CPU standard deviation (and fits) is applied,
// until no move improves or maxSteps is reached.
func (e *evaluator) localImprove(ind individual, maxSteps int) individual {
	if math.IsInf(ind.fitness, 1) {
		return ind
	}
	led := e.base.Clone()
	for g, hi := range ind.genes {
		guest := e.v.Guest(virtual.GuestID(g))
		if err := led.ReserveGuest(e.hosts[hi], guest.Proc, guest.Mem, guest.Stor); err != nil {
			return ind // should not happen for a feasible individual
		}
	}
	genes := append([]int(nil), ind.genes...)
	res := led.ResidualProcAll()
	// Objective change of moving demand d from host a to host b (indices
	// into res): only two terms of the sum of squares move; comparing
	// sums of squares is equivalent to comparing stddevs (mean fixed).
	ss := 0.0
	mean := stats.Mean(res)
	for _, r := range res {
		ss += (r - mean) * (r - mean)
	}
	hostIdx := map[graph.NodeID]int{}
	for i, n := range e.hosts {
		hostIdx[n] = i
	}
	for step := 0; step < maxSteps; step++ {
		bestDelta := -1e-9 // require strict improvement
		bestG, bestH := -1, -1
		for g := range genes {
			guest := e.v.Guest(virtual.GuestID(g))
			a := genes[g]
			ra := res[a]
			for b := range e.hosts {
				if b == a {
					continue
				}
				if !led.Fits(e.hosts[b], guest.Mem, guest.Stor) {
					continue
				}
				rb := res[b]
				d := guest.Proc
				// delta of sum of squares after moving d from a to b.
				na, nb := ra+d, rb-d
				delta := (na-mean)*(na-mean) + (nb-mean)*(nb-mean) -
					(ra-mean)*(ra-mean) - (rb-mean)*(rb-mean)
				if delta < bestDelta {
					bestDelta = delta
					bestG, bestH = g, b
				}
			}
		}
		if bestG < 0 {
			break
		}
		guest := e.v.Guest(virtual.GuestID(bestG))
		a := genes[bestG]
		led.ReleaseGuest(e.hosts[a], guest.Proc, guest.Mem, guest.Stor)
		if err := led.ReserveGuest(e.hosts[bestH], guest.Proc, guest.Mem, guest.Stor); err != nil {
			// Fits raced with nothing (single-threaded); restore and stop.
			if rerr := led.ReserveGuest(e.hosts[a], guest.Proc, guest.Mem, guest.Stor); rerr != nil {
				panic("ga: failed to restore reservation: " + rerr.Error())
			}
			break
		}
		res[a] += guest.Proc
		res[bestH] -= guest.Proc
		ss += bestDelta
		genes[bestG] = bestH
	}
	return individual{genes: genes, fitness: stats.PopStdDev(res)}
}

// realize turns a feasible individual into a full mapping by replaying
// the reservations and running HMN's Networking stage on them.
func (e *evaluator) realize(ind individual) (*mapping.Mapping, bool) {
	led := e.base.Clone()
	out := mapping.New(e.c, e.v)
	for g, hi := range ind.genes {
		guest := e.v.Guest(virtual.GuestID(g))
		node := e.hosts[hi]
		if err := led.ReserveGuest(node, guest.Proc, guest.Mem, guest.Stor); err != nil {
			return nil, false
		}
		out.GuestHost[g] = node
	}
	if err := core.RouteLinks(led, e.v, out.GuestHost, out.LinkPath); err != nil {
		return nil, false
	}
	return out, true
}

var _ core.Mapper = (*Mapper)(nil)

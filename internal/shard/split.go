package shard

import (
	"sort"

	"repro/internal/core"
	"repro/internal/virtual"
)

// This file plans split admissions: when no single shard can host an
// environment, the environment is cut at its lowest-bandwidth virtual
// links into per-shard fragments. The planner works in three passes:
//
//  1. Merge: virtual links are visited in descending-bandwidth order
//     (IDs break ties) through a union-find; two guest components merge
//     when their combined CPU still fits the largest shard's headroom.
//     High-bandwidth links therefore stay internal to a fragment and
//     the eventual cut falls on the cheapest links the capacity
//     constraint allows.
//  2. Pack: the merged components, largest CPU first, are placed
//     best-fit-decreasing onto the shards' residual CPU. Components
//     that land on the same shard fuse into one fragment.
//  3. Charge: links crossing shard boundaries form the cut; their
//     summed bandwidth is charged against the gateway budget.
//
// Every pass is deterministic (descending BW with ID tie-breaks,
// descending CPU with lowest-member tie-breaks, lowest shard index on
// equal fit), so a fixed submission order fragments identically on
// every run.

// group is one per-shard fragment of a plan: the (sub-)environment to
// admit on the shard, the original guest IDs it carries (nil when the
// plan is the whole environment) and the CPU reserved for it.
type group struct {
	shard int
	env   *virtual.Env
	orig  []virtual.GuestID
	proc  float64
}

// plan is a routed admission: one group on the fast path, several for
// a split. cutBW is the gateway bandwidth the plan charged.
type plan struct {
	groups   []group
	cutBW    float64
	fallback bool
	split    bool
}

// splitLocked plans a split admission against the router's current
// headroom view, reserving nothing (route charges the groups) but
// charging the gateway for the cut. Called with r.mu held.
//
//hmn:locked mu
func (r *Router) splitLocked(v *virtual.Env) (plan, error) {
	n := v.NumGuests()
	if n < 2 || r.gw == nil {
		return plan{}, ErrNoShardFits
	}
	// The largest single-shard headroom caps every fragment.
	capMax := 0.0
	for _, p := range r.resProc {
		if p > capMax {
			capMax = p
		}
	}
	if capMax <= 0 {
		return plan{}, ErrNoShardFits
	}

	// Pass 1: merge guests along descending-bandwidth links while the
	// combined CPU fits the cap.
	uf := newUnionFind(n)
	cpu := make([]float64, n)
	for g := 0; g < n; g++ {
		cpu[g] = v.Guest(virtual.GuestID(g)).Proc
		if cpu[g] > capMax {
			return plan{}, ErrNoShardFits
		}
	}
	for _, l := range core.LinksByBandwidth(v) {
		a, b := uf.find(int(l.From)), uf.find(int(l.To))
		if a == b {
			continue
		}
		if cpu[a]+cpu[b] <= capMax {
			root := uf.union(a, b)
			cpu[root] = cpu[a] + cpu[b]
		}
	}

	// Collect components, members ascending by guest ID.
	compOf := make(map[int]int, 4)
	var comps []component
	for g := 0; g < n; g++ {
		root := uf.find(g)
		ci, ok := compOf[root]
		if !ok {
			ci = len(comps)
			compOf[root] = ci
			comps = append(comps, component{cpu: cpu[root]})
		}
		comps[ci].members = append(comps[ci].members, virtual.GuestID(g))
	}
	if len(comps) < 2 {
		return plan{}, ErrNoShardFits
	}

	// Pass 2: best-fit-decreasing onto the shards' residual CPU.
	order := make([]int, len(comps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := comps[order[i]], comps[order[j]]
		if a.cpu != b.cpu {
			return a.cpu > b.cpu
		}
		return a.members[0] < b.members[0]
	})
	capRem := append([]float64(nil), r.resProc...)
	shardOf := make([]int, len(comps))
	for _, ci := range order {
		best, bestLeft := -1, 0.0
		for k := range capRem {
			left := capRem[k] - comps[ci].cpu
			if left < 0 {
				continue
			}
			if best < 0 || left < bestLeft {
				best, bestLeft = k, left
			}
		}
		if best < 0 {
			return plan{}, ErrNoShardFits
		}
		shardOf[ci] = best
		capRem[best] -= comps[ci].cpu
	}

	// Fuse components that share a shard; order fragments by shard.
	guestShard := make([]int, n)
	for ci, c := range comps {
		for _, g := range c.members {
			guestShard[g] = shardOf[ci]
		}
	}
	shards := append([]int(nil), shardOf...)
	sort.Ints(shards)
	shards = dedupInts(shards)
	if len(shards) < 2 {
		// Everything fused onto one shard: its total fits there after
		// all, so no cut is needed. Only rounding gets here — the
		// components' CPU, summed in another order than v.TotalProc(),
		// fits where the whole did not.
		k := shards[0]
		return plan{groups: []group{{shard: k, env: v, proc: v.TotalProc()}}, fallback: true}, nil
	}

	// Pass 3: the cut and the sub-environments.
	cutBW := 0.0
	for _, l := range v.Links() {
		if guestShard[l.From] != guestShard[l.To] {
			cutBW += l.BW
		}
	}
	if err := r.gw.Reserve(cutBW); err != nil {
		return plan{}, err
	}
	pl := plan{cutBW: cutBW, fallback: true, split: true}
	for _, k := range shards {
		g := buildFragment(v, guestShard, k)
		pl.groups = append(pl.groups, g)
	}
	return pl, nil
}

// component is one merged guest set.
type component struct {
	members []virtual.GuestID // ascending
	cpu     float64
}

// buildFragment extracts the sub-environment of the guests assigned to
// shard k, preserving guest names and the intra-fragment links.
func buildFragment(v *virtual.Env, guestShard []int, k int) group {
	sub := virtual.NewEnv()
	origToSub := make([]virtual.GuestID, len(guestShard))
	g := group{shard: k, env: sub}
	for i := range guestShard {
		origToSub[i] = -1
	}
	for i := 0; i < len(guestShard); i++ {
		if guestShard[i] != k {
			continue
		}
		gu := v.Guest(virtual.GuestID(i))
		origToSub[i] = sub.AddGuest(gu.Name, gu.Proc, gu.Mem, gu.Stor)
		g.orig = append(g.orig, virtual.GuestID(i))
		g.proc += gu.Proc
	}
	for _, l := range v.Links() {
		if guestShard[l.From] == k && guestShard[l.To] == k {
			sub.AddLink(origToSub[l.From], origToSub[l.To], l.BW, l.Lat)
		}
	}
	return g
}

// unionFind is a plain union-find with path halving and union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// union merges the trees rooted at a and b and returns the new root.
func (uf *unionFind) union(a, b int) int {
	if uf.size[a] < uf.size[b] {
		a, b = b, a
	}
	uf.parent[b] = a
	uf.size[a] += uf.size[b]
	return a
}

// dedupInts compacts a sorted slice in place.
func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

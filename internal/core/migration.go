package core

import (
	"cmp"
	"slices"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/virtual"
)

// MigrationScope selects which hosts stage 2 may migrate from.
type MigrationScope int

const (
	// ScopeMostLoaded is the paper's rule: only the most loaded host
	// donates, and the stage ends when no move from it improves the
	// objective (§4.2).
	ScopeMostLoaded MigrationScope = iota
	// ScopeAllHosts is the §6 "better heuristics" extension: when the
	// most loaded host offers no improving move, the next most loaded
	// hosts are tried before giving up — full steepest descent over
	// single-guest moves. Strictly at least as good an objective for
	// strictly more work; the optimality-gap experiment quantifies both.
	ScopeAllHosts
)

// ImprovementEps returns the descent's acceptance threshold: a candidate
// move is accepted only when it lowers the Eq. (10) objective by more
// than this margin, so FP noise near zero — where a full recompute and
// the running Σx/Σx² evaluation disagree in the last few ulps — cannot
// churn guests for nothing. The margin scales with the current objective
// and is floored at an absolute 1e-9 for objectives under 1.
func ImprovementEps(current float64) float64 {
	const rel = 1e-9
	if current > 1 {
		return rel * current
	}
	return rel
}

// descentEnv is one environment whose guests the descent may move: its
// admission sequence number (the victim tie-break), the environment and
// its current placements, indexed by guest.
type descentEnv struct {
	seq    uint64
	v      *virtual.Env
	assign []graph.NodeID
}

// rosterRef names one guest on a host's roster: guest of envs[env].
type rosterRef struct {
	env   int
	guest virtual.GuestID
}

// candidate is one move the descent scored improving: ref leaves from
// for to.
type candidate struct {
	ref      rosterRef
	from, to graph.NodeID
}

// descent is the paper's Migration stage (§4.2) as one step function
// over a roster of (environment, guest) per host. At every step:
//
//   - the most loaded host holding a guest is the migration origin;
//   - the victim is the guest on it with the smallest total bandwidth of
//     virtual links to co-located guests (moving it internalises the
//     least traffic, minimising later physical-link use), ties to the
//     lower (seq, guest);
//   - candidate destinations are tried from the least loaded host upward;
//     the first host that fits the victim *and* lowers the load-balance
//     factor (Eq. 10) by more than ImprovementEps is offered to the
//     caller, which moves the reservation or refuses.
//
// Stage 2 of an admission hands it the one environment being mapped and
// relocates on the attempt's scratch ledger; Session.Rebalance hands it
// the active set in seq order and commits on the live one. There is no
// other copy of the donor order, the victim rule, the destination order
// or the acceptance test.
//
// Every what-if is one Ledger.DeltaStdDev call — O(1), no mutation —
// against the ledger's running Σx/Σx². A descent is single-owner scratch
// (mapScratch.mig): begin re-sizes its buffers in place, so the admission
// hot path allocates none of them once warm.
type descent struct {
	led   *cluster.Ledger
	scope MigrationScope
	// hi, when set, already holds "ascending load" as (residual desc,
	// node asc) and replaces the per-step destination sort outright.
	hi *hostIndex

	// envs is the roster's environments, seq ascending; callers fill it
	// before begin.
	envs []descentEnv
	// hosts is the cluster's host nodes by dense host index, onHost the
	// guests each currently holds, donors and dests the per-step worklists.
	hosts  []graph.NodeID
	onHost [][]rosterRef
	donors []graph.NodeID
	dests  []graph.NodeID
}

// begin points the descent at led and builds the per-host rosters from
// d.envs.
func (d *descent) begin(led *cluster.Ledger, scope MigrationScope, hi *hostIndex) {
	c := led.Cluster()
	nh := c.NumHosts()
	d.led, d.scope, d.hi = led, scope, hi
	d.hosts = sized(d.hosts, nh)
	for i, h := range c.Hosts() {
		d.hosts[i] = h.Node
	}
	d.onHost = sized(d.onHost, nh)
	for i := range d.onHost {
		d.onHost[i] = d.onHost[i][:0]
	}
	for e := range d.envs {
		for g, node := range d.envs[e].assign {
			i := c.HostIdx(node)
			d.onHost[i] = append(d.onHost[i], rosterRef{env: e, guest: virtual.GuestID(g)})
		}
	}
}

// end drops the descent's references into the caller's state, so a
// pooled scratch keeps no environment or ledger alive.
func (d *descent) end() {
	clear(d.envs)
	d.envs = d.envs[:0]
	d.led, d.hi = nil, nil
}

// load is a host's load as Eq. (10) measures it: the most loaded host is
// the one with the least residual CPU, so larger means more loaded.
func (d *descent) load(node graph.NodeID) float64 {
	return -d.led.ResidualProc(node)
}

// step scores the next improving move and offers it to try, which moves
// the reservation and reports true, or refuses (the move cannot be made
// after all) and reports false — the scan then goes on to the next
// destination, then the next donor. It returns whether a move was made;
// false ends the descent: no donor in scope has an improving move left.
func (d *descent) step(try func(candidate) bool) bool {
	current := d.led.ObjectiveStdDev()
	for _, origin := range d.order() {
		ref := d.victim(origin)
		guest := d.envs[ref.env].v.Guest(ref.guest)
		for _, dest := range d.dests {
			if dest == origin || !d.led.Fits(dest, guest.Mem, guest.Stor) {
				continue
			}
			if d.led.DeltaStdDev(origin, dest, guest.Proc) < -ImprovementEps(current) &&
				try(candidate{ref: ref, from: origin, to: dest}) {
				return true
			}
		}
	}
	return false
}

// order fills the step's two worklists, in buffers that grow to the
// cluster's host count once and are reused from then on, and returns the
// donors in scope: the hosts holding a guest, most loaded first, node ID
// ascending on ties (hosts without guests are skipped — on a
// heterogeneous cluster a weak host may have the least residual CPU
// while running nothing, and it offers no guest to migrate). d.dests
// gets every host, least loaded first, node ID ascending on ties.
//
// The destination order is a copy taken once per step, never the live
// index itself: a refused move may release and re-reserve its victim,
// and each of those mutations re-sorts hi.order in place through the
// ledger's proc hook. A range over the live slice would then continue at
// the same position in a permuted array — skipping hosts it has not
// tried or revisiting ones it has.
func (d *descent) order() []graph.NodeID {
	d.donors = d.donors[:0]
	for i, n := range d.hosts {
		if len(d.onHost[i]) > 0 {
			d.donors = append(d.donors, n)
		}
	}
	if d.hi != nil {
		d.dests = append(d.dests[:0], d.hi.order...)
	} else {
		d.dests = append(d.dests[:0], d.hosts...)
		slices.SortFunc(d.dests, func(a, b graph.NodeID) int {
			return cmp.Or(cmp.Compare(d.load(a), d.load(b)), int(a)-int(b))
		})
	}
	mostLoadedFirst := func(a, b graph.NodeID) int {
		return cmp.Or(cmp.Compare(d.load(b), d.load(a)), int(a)-int(b))
	}
	if d.scope == ScopeMostLoaded && len(d.donors) > 0 {
		// The order's head is all the paper's scope reads: no sort.
		d.donors[0] = slices.MinFunc(d.donors, mostLoadedFirst)
		return d.donors[:1]
	}
	slices.SortFunc(d.donors, mostLoadedFirst)
	return d.donors
}

// victim picks §4.2's migration victim on origin: the guest with the
// smallest total bandwidth to co-located guests of its environment,
// ties to the lower (seq, guest) — envs is seq ascending, so the lower
// env index.
func (d *descent) victim(origin graph.NodeID) rosterRef {
	refs := d.onHost[d.led.Cluster().HostIdx(origin)]
	e := &d.envs[refs[0].env]
	best, bestBW := refs[0], coLocatedBW(e.v, e.assign, refs[0].guest)
	for _, r := range refs[1:] {
		e = &d.envs[r.env]
		w := coLocatedBW(e.v, e.assign, r.guest)
		if w < bestBW || (w == bestBW && (r.env < best.env || (r.env == best.env && r.guest < best.guest))) {
			best, bestBW = r, w
		}
	}
	return best
}

// relocate is stage 2's try: it moves c's reservation on the descent's
// ledger and records the move in the roster. A destination that refuses
// after its Fits check passed — only a mutation racing the scan could
// make it — gets the victim restored to its origin and the move refused.
func (d *descent) relocate(c candidate) bool {
	guest := d.envs[c.ref.env].v.Guest(c.ref.guest)
	d.led.ReleaseGuest(c.from, guest.Proc, guest.Mem, guest.Stor)
	if err := d.led.ReserveGuest(c.to, guest.Proc, guest.Mem, guest.Stor); err != nil {
		mustReserve(d.led, c.from, guest)
		return false
	}
	d.envs[c.ref.env].assign[c.ref.guest] = c.to
	cl := d.led.Cluster()
	oi, di := cl.HostIdx(c.from), cl.HostIdx(c.to)
	d.onHost[oi] = removeRef(d.onHost[oi], c.ref)
	d.onHost[di] = append(d.onHost[di], c.ref)
	return true
}

// stage2 is HMN's Migration stage (§4.2): the descent over the one
// environment being admitted, repeated while the load-balance factor
// improves; under the paper's donor scope (see MigrationScope) the stage
// ends when no move from the most loaded host helps. hi is the Hosting
// stage's live host index; the descent's working sets are ms.mig.
//
// The stage mutates assign and the ledger in place. It cannot fail: a
// migration either strictly improves the objective or is not performed.
func (h *HMN) stage2(led *cluster.Ledger, v *virtual.Env, assign []graph.NodeID, hi *hostIndex, ms *mapScratch, st *MigrationStats) {
	if led.Cluster().NumHosts() < 2 {
		return
	}
	st.ObjectiveBefore = led.ObjectiveStdDev()
	d := &ms.mig
	d.envs = append(d.envs[:0], descentEnv{v: v, assign: assign})
	d.begin(led, h.Scope, hi)
	for d.step(d.relocate) {
		st.Moves++
	}
	d.end()
	st.ObjectiveAfter = led.ObjectiveStdDev()
}

func mustReserve(led *cluster.Ledger, node graph.NodeID, g virtual.Guest) {
	if err := led.ReserveGuest(node, g.Proc, g.Mem, g.Stor); err != nil {
		panic("core: failed to restore a released reservation: " + err.Error())
	}
}

// coLocatedBW sums the bandwidth of g's virtual links whose other
// endpoint currently shares g's host — the migration cost metric of §4.2.
func coLocatedBW(v *virtual.Env, assign []graph.NodeID, g virtual.GuestID) float64 {
	node := assign[g]
	total := 0.0
	for _, lid := range v.LinksOf(g) {
		link := v.Link(lid)
		if assign[link.Other(g)] == node {
			total += link.BW
		}
	}
	return total
}

func removeRef(refs []rosterRef, r rosterRef) []rosterRef {
	if i := slices.Index(refs, r); i >= 0 {
		return slices.Delete(refs, i, i+1)
	}
	return refs
}

// MigrationStats reports what stage 2 did, through HMN.MapWithStats:
// ObjectiveBefore is the Eq. (10) objective Hosting left — what a run
// without Migration would end at — and ObjectiveAfter the one Migration
// hands to Networking.
type MigrationStats struct {
	Moves           int
	ObjectiveBefore float64
	ObjectiveAfter  float64
}

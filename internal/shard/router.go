package shard

import (
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/virtual"
)

// ringVnodes is the number of virtual points each shard owns on the
// consistent-hash ring. 64 points per shard keeps the assignment share
// within a few percent of uniform while the ring stays small enough to
// search in a handful of cache lines.
const ringVnodes = 64

// ringPoint is one virtual node: a hash position owned by a shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// ring is a consistent-hash ring over the federation's shards. It is
// immutable after construction and therefore safe for concurrent use.
// For a fixed shard count the ring — and so every fast-path pick — is
// a pure function of the tenant session ID.
type ring struct {
	points []ringPoint
}

// buildRing places ringVnodes points per shard, ordered by hash with
// the shard index breaking ties so construction is deterministic.
func buildRing(shards int) ring {
	pts := make([]ringPoint, 0, shards*ringVnodes)
	for k := 0; k < shards; k++ {
		for v := 0; v < ringVnodes; v++ {
			pts = append(pts, ringPoint{hash: fnvHash2(shardSID(k), v), shard: k})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].shard < pts[j].shard
	})
	return ring{points: pts}
}

// pick maps a tenant session ID to its fast-path shard: the first ring
// point at or after the ID's hash, wrapping at the top.
func (r ring) pick(sid string) int {
	h := fnvHash(sid)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// fnvHash is FNV-1a over s, finalized with mix64. The finalizer
// matters: FNV-1a folds each byte with one xor-multiply, so two short
// keys differing only in their last byte end up within ~255 primes of
// each other — around 2^48 on a 2^64 ring whose arcs average 2^56 wide.
// Sequential tenant IDs ("s1", "s2", ...) would all land on one arc,
// and the fast path would funnel every tenant to a single shard.
func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// fnvHash2 is FNV-1a over s plus a vnode discriminator, finalized like
// fnvHash so vnode points spread over the whole ring.
func fnvHash2(s string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	h.Write([]byte{'#', byte(v), byte(v >> 8)})
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a bijective avalanche, so nearby
// inputs scatter across the full 64-bit range.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Router owns shard placement. Its headroom view is reservation-exact:
// every reservation and refund is applied on the submitting goroutine,
// before the operation is enqueued to its shard, so with each shard
// executing in submission order the view always agrees with what the
// shard's ledger will say when the operation runs. Routing decisions
// read nothing else — the epoch-versioned summaries are refreshed by
// the shard workers after commits and feed only metrics and
// introspection, which is what keeps placement deterministic while
// admissions complete in the background.
type Router struct {
	ring ring     // immutable
	gw   *Gateway // shared budget; nil when GatewayBW is 0

	mu sync.Mutex
	// resProc is the effective residual CPU per shard: the last resync
	// base minus every live reservation. envs counts deployed
	// fragments per shard; outstanding tracks reservations whose
	// admission has not committed yet and pendingRel refunds whose
	// release has not executed yet — both only so resync can re-center
	// resProc while operations are in flight.
	resProc     []float64 //hmn:guardedby mu
	outstanding []float64 //hmn:guardedby mu
	pendingRel  []float64 //hmn:guardedby mu
	envs        []int     //hmn:guardedby mu
	// sums is the advisory epoch-versioned summary cache, one entry
	// per shard, refreshed by the shard workers after each commit.
	sums []core.ResidualSummary //hmn:guardedby mu
	// admissions counts committed fragment admissions per shard;
	// fallbacks and splits count routing outcomes.
	admissions []uint64 //hmn:guardedby mu
	fallbacks  uint64   //hmn:guardedby mu
	splits     uint64   //hmn:guardedby mu
}

// newRouter builds the router over the shards' initial summaries.
func newRouter(sums []core.ResidualSummary, gw *Gateway) *Router {
	n := len(sums)
	r := &Router{
		ring:        buildRing(n),
		gw:          gw,
		resProc:     make([]float64, n),
		outstanding: make([]float64, n),
		pendingRel:  make([]float64, n),
		envs:        make([]int, n),
		sums:        append([]core.ResidualSummary(nil), sums...),
		admissions:  make([]uint64, n),
	}
	for k, s := range sums {
		r.resProc[k] = s.TotalProc
		r.envs[k] = s.Envs
	}
	return r
}

// pickLocked is the shard-pick hot path: the hashed fast-path shard
// when it has headroom, otherwise the tightest-fitting shard
// (smallest non-negative leftover, lowest index on ties), or -1 when
// no single shard fits. fallback reports that the hashed pick was
// bypassed.
//
//hmn:locked mu
func (r *Router) pickLocked(hashed int, need float64) (pick int, fallback bool) {
	if r.resProc[hashed] >= need {
		return hashed, false
	}
	best, bestLeft := -1, 0.0
	for k := 0; k < len(r.resProc); k++ {
		left := r.resProc[k] - need
		if left < 0 {
			continue
		}
		if best < 0 || left < bestLeft {
			best, bestLeft = k, left
		}
	}
	return best, best >= 0
}

// reserveLocked charges a pending admission against a shard.
//
//hmn:locked mu
func (r *Router) reserveLocked(k int, proc float64) {
	r.resProc[k] -= proc
	r.outstanding[k] += proc
}

// route places env for tenant sid: a single-shard plan on the fast
// path or best fit, a split plan when no single shard fits and the
// gateway has budget. Reservations for every group in the returned
// plan are already charged.
func (r *Router) route(sid string, v *virtual.Env) (plan, error) {
	need := v.TotalProc()
	hashed := r.ring.pick(sid)
	r.mu.Lock()
	defer r.mu.Unlock()
	k, fallback := r.pickLocked(hashed, need)
	if k >= 0 {
		r.reserveLocked(k, need)
		if fallback {
			r.fallbacks++
		}
		return plan{groups: []group{{shard: k, env: v, proc: need}}, fallback: fallback}, nil
	}
	pl, err := r.splitLocked(v)
	if err != nil {
		return plan{}, err
	}
	r.fallbacks++
	r.splits++
	for _, g := range pl.groups {
		r.reserveLocked(g.shard, g.proc)
	}
	return pl, nil
}

// commit settles a fragment admission's outcome on shard k: a success
// keeps the reservation as consumption and refreshes the advisory
// summary; a failure refunds it.
func (r *Router) commit(k int, ok bool, proc float64, sum core.ResidualSummary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outstanding[k] -= proc
	if ok {
		r.admissions[k]++
		r.envs[k]++
	} else {
		r.resProc[k] += proc
	}
	r.refreshLocked(k, sum)
}

// releaseSubmitted refunds a fragment's reservation at release-submit
// time: the shard's FIFO guarantees the release executes before any
// admission routed afterwards, so the headroom is spendable now.
func (r *Router) releaseSubmitted(k int, proc float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resProc[k] += proc
	r.pendingRel[k] += proc
	r.envs[k]--
}

// releaseExecuted marks a submitted release as applied on the shard's
// ledger and refreshes the advisory summary.
func (r *Router) releaseExecuted(k int, proc float64, sum core.ResidualSummary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pendingRel[k] -= proc
	r.refreshLocked(k, sum)
}

// refreshLocked installs a newer advisory summary; stale epochs (a
// slower worker publishing after a faster one) are dropped.
//
//hmn:locked mu
func (r *Router) refreshLocked(k int, sum core.ResidualSummary) {
	if sum.Epoch >= r.sums[k].Epoch {
		r.sums[k] = sum
	}
}

// resync re-centers shard k's headroom from a fresh summary after an
// out-of-band capacity change (a failure, a restore, a repair, a
// rebalance round): base minus reservations still outstanding plus
// refunds not yet applied on the ledger. env counts follow the
// summary. In-flight work makes the result approximate for a moment;
// the shard's own admission checks remain the truth.
func (r *Router) resync(k int, sum core.ResidualSummary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resProc[k] = sum.TotalProc - r.outstanding[k] + r.pendingRel[k]
	r.envs[k] = sum.Envs
	r.refreshLocked(k, sum)
}

// adjustEnvs bumps shard k's deployed-fragment count by d without
// touching headroom — repairs change membership but the summary resync
// carries the capacity side.
func (r *Router) adjustEnvs(k, d int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.envs[k] += d
}

// snapshotStats copies the router's counters for Stats.
func (r *Router) snapshotStats(dst *Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dst.RouterFallbacks = r.fallbacks
	dst.SplitAdmissions = r.splits
	for k := range r.resProc {
		dst.Shards[k].Admissions = r.admissions[k]
		dst.Shards[k].ActiveEnvs = r.envs[k]
		dst.Shards[k].ResidualProc = r.resProc[k]
		dst.Shards[k].Summary = r.sums[k]
	}
}

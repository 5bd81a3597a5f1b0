package shard

import (
	"hash/fnv"
	"sort"
	"sync"

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
// a reservation is charged on the admitting goroutine before its
// fragment runs, kept on commit or refunded on failure, and a release
// refunds once its shard has run it — so under serial submission the
// view is exactly what each shard's ledger says. Routing reads nothing
// else, which is what keeps placement a pure function of the
// submission order.
type Router struct {
	ring ring     // immutable
	gw   *Gateway // shared budget; nil when GatewayBW is 0

	mu sync.Mutex
	// resProc is the effective residual CPU per shard: the last resync
	// base minus every live reservation. outstanding tracks
	// reservations whose admission has not committed yet, only so
	// resync can re-center resProc while admissions are in flight.
	resProc     []float64 //hmn:guardedby mu
	outstanding []float64 //hmn:guardedby mu
	// admissions counts committed fragment admissions per shard;
	// fallbacks and splits count routing outcomes.
	admissions []uint64 //hmn:guardedby mu
	fallbacks  uint64   //hmn:guardedby mu
	splits     uint64   //hmn:guardedby mu
}

// newRouter builds the router over the shards' residual CPU.
func newRouter(resProc []float64, gw *Gateway) *Router {
	n := len(resProc)
	return &Router{
		ring:        buildRing(n),
		gw:          gw,
		resProc:     append([]float64(nil), resProc...),
		outstanding: make([]float64, n),
		admissions:  make([]uint64, n),
	}
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
// keeps the reservation as consumption; a failure refunds it.
func (r *Router) commit(k int, ok bool, proc float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outstanding[k] -= proc
	if ok {
		r.admissions[k]++
	} else {
		r.resProc[k] += proc
	}
}

// release refunds a fragment's reservation once its shard has run the
// release.
func (r *Router) release(k int, proc float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resProc[k] += proc
}

// resync re-centers shard k's headroom on its residual CPU after an
// out-of-band capacity change (a failure, a restore, a repair): base
// minus the reservations still outstanding. In-flight work makes the
// result approximate for a moment; the shard's own admission checks
// remain the truth.
func (r *Router) resync(k int, totalProc float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resProc[k] = totalProc - r.outstanding[k]
}

// snapshotStats copies the router's counters for Stats.
func (r *Router) snapshotStats(dst *Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dst.RouterFallbacks = r.fallbacks
	dst.SplitAdmissions = r.splits
	for k := range r.resProc {
		dst.Shards[k].Admissions = r.admissions[k]
		dst.Shards[k].ResidualProc = r.resProc[k]
	}
}

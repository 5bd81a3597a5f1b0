package shard

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/virtual"
	"repro/internal/wal"
)

// Federation owns the shards, the router, the gateway and the tenant
// registry. Tenant sessions ("s1", "s2", ...) are lightweight entries:
// their environments live on whichever shards the router placed them,
// addressed by tags of the form "sid/eid" (whole environments) or
// "sid/eid#iofN@cutBW" (split fragments), which is also how recovery
// rebuilds the registry from the shards' recovered active sets.
type Federation struct {
	cfg    Config
	shards []*Shard
	router *Router
	gw     *Gateway
	// w is the one WAL every shard logs to; nil without a data
	// directory.
	w *wal.WAL

	mu      sync.Mutex
	tenants map[string]*tenant //hmn:guardedby mu
	nextSID int                //hmn:guardedby mu
	nextEnv int                //hmn:guardedby mu
	closed  bool               //hmn:guardedby mu
	// inflight counts the operations running on their callers: one
	// enters only while the federation is open, and Close waits for
	// every one before its final snapshot.
	inflight sync.WaitGroup
}

// tenant is one tenant session. closing blocks new admissions while
// CloseTenant releases the existing ones.
type tenant struct {
	id      string
	closing bool               //hmn:guardedby mu
	envs    map[string]*envRec //hmn:guardedby mu
}

// envRec locates one deployed environment: its fragments (one for a
// whole admission) and the gateway bandwidth it charged.
type envRec struct {
	frags []frag
	cutBW float64
}

// frag is one fragment on one shard, named by the tag it was admitted
// under. That is all the registry keeps: the shard's session owns the
// mapping, which a rebalance or a repair replaces without asking.
type frag struct {
	shard int
	tag   string
	proc  float64
}

// Fragment is the public view of one committed fragment.
type Fragment struct {
	// Shard is the shard index the fragment landed on.
	Shard int
	// Guests are the original environment's guest IDs carried by this
	// fragment, ascending; nil when the whole environment was admitted
	// unsplit.
	Guests []virtual.GuestID
	// Env is the admitted (sub-)environment and M the mapping it
	// committed under.
	Env *virtual.Env
	M   *mapping.Mapping
	// Tag is the fragment's WAL identity.
	Tag string
}

// Placement is a committed admission.
type Placement struct {
	Fragments []Fragment
	// CutBW is the gateway bandwidth the admission charged (0 unsplit).
	CutBW float64
	// Fallback reports the router bypassed the hashed fast path; Split
	// reports a cross-shard admission.
	Fallback bool
	Split    bool
}

// New builds a fresh federation of len(clusters) shards. The clusters
// may share a *cluster.Cluster (sessions own their ledgers) or be
// disjoint partitions of one fabric. With cfg.DataDir set, the shards
// open on one WAL at the directory's root and the tenant registry gets
// its meta file beside it; a directory that already holds state is
// refused — use Recover.
func New(clusters []*cluster.Cluster, cfg Config) (*Federation, error) {
	if len(clusters) == 0 {
		return nil, errors.New("shard: federation needs at least one cluster")
	}
	f := &Federation{cfg: cfg, tenants: make(map[string]*tenant)}
	if cfg.GatewayBW > 0 {
		f.gw = NewGateway(cfg.GatewayBW)
	}
	if cfg.DataDir != "" {
		if logged, _ := wal.HasState(cfg.DataDir); logged || HasState(cfg.DataDir) {
			return nil, errors.New("shard: data dir already holds state; recover instead of creating")
		}
		w, _, _, err := Replay(cfg, cfg.DataDir)
		if err != nil {
			return nil, err
		}
		f.w = w
	}
	for k, c := range clusters {
		sh, err := Open(cfg, shardSID(k), c, spec.FromCluster(c), f.w)
		if err != nil {
			f.abortBuild()
			return nil, err
		}
		f.add(sh)
	}
	err := f.barrier()
	if err == nil {
		f.mu.Lock()
		err = f.writeMetaLocked()
		f.mu.Unlock()
	}
	if err != nil {
		f.abortBuild()
		return nil, err
	}
	f.start()
	return f, nil
}

// add makes sh the federation's next shard, its snapshots recording the
// federation-wide environment-ID counter.
func (f *Federation) add(sh *Shard) {
	sh.Index, sh.NextEnv = len(f.shards), f.envCounter
	f.shards = append(f.shards, sh)
}

// envCounter reads the federation-wide environment-ID counter.
func (f *Federation) envCounter() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nextEnv
}

// domains lists the shards, the lock domains on the federation's WAL.
func (f *Federation) domains() []*Shard { return f.shards }

// barrier makes every record the shards appended durable, checkpointing
// the WAL first when that is due (Barrier).
func (f *Federation) barrier() error { return Barrier(f.cfg, f.w, f.domains) }

// start builds the router over the shards as they stand. Called once
// by New/Recover.
func (f *Federation) start() {
	resProc := make([]float64, len(f.shards))
	for k, sh := range f.shards {
		resProc[k] = sh.sess.ResidualSummary().TotalProc
	}
	f.router = newRouter(resProc, f.gw)
}

// abortBuild tears down a partially built federation.
func (f *Federation) abortBuild() {
	if f.w != nil {
		f.w.Close()
	}
}

// Shards returns the shard count.
func (f *Federation) Shards() int { return len(f.shards) }

// Shard returns shard k for read-side introspection.
func (f *Federation) Shard(k int) (*Shard, error) {
	if k < 0 || k >= len(f.shards) {
		return nil, ErrBadShard
	}
	return f.shards[k], nil
}

// Gateway returns the inter-shard gateway (nil when GatewayBW is 0).
func (f *Federation) Gateway() *Gateway { return f.gw }

// enter registers an operation unless Close has begun; the caller
// calls f.inflight.Done when the operation returns.
func (f *Federation) enter() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.inflight.Add(1)
	return nil
}

// envTag and fragTag build the durable environment identities.
func envTag(sid, eid string) string { return sid + "/" + eid }

func fragTag(sid, eid string, i, n int, cut float64) string {
	return fmt.Sprintf("%s/%s#%dof%d@%g", sid, eid, i, n, cut)
}

// parseTag inverts envTag/fragTag. Whole environments report frag 1 of
// 1 with zero cut.
func parseTag(tag string) (sid, eid string, fragI, fragN int, cut float64, ok bool) {
	sid, rest, found := strings.Cut(tag, "/")
	if !found || sid == "" {
		return "", "", 0, 0, 0, false
	}
	eid, fragPart, split := strings.Cut(rest, "#")
	if eid == "" {
		return "", "", 0, 0, 0, false
	}
	if !split {
		return sid, eid, 1, 1, 0, true
	}
	counts, cutStr, found := strings.Cut(fragPart, "@")
	if !found {
		return "", "", 0, 0, 0, false
	}
	iStr, nStr, found := strings.Cut(counts, "of")
	if !found {
		return "", "", 0, 0, 0, false
	}
	fragI, err1 := strconv.Atoi(iStr)
	fragN, err2 := strconv.Atoi(nStr)
	cut, err3 := strconv.ParseFloat(cutStr, 64)
	if err1 != nil || err2 != nil || err3 != nil || fragI < 1 || fragN < fragI {
		return "", "", 0, 0, 0, false
	}
	return sid, eid, fragI, fragN, cut, true
}

// OpenTenant opens a tenant session and returns its ID. With a data
// directory the registry is durable before the call returns.
func (f *Federation) OpenTenant() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return "", ErrClosed
	}
	f.nextSID++
	sid := fmt.Sprintf("s%d", f.nextSID)
	f.tenants[sid] = &tenant{id: sid, envs: make(map[string]*envRec)}
	if err := f.writeMetaLocked(); err != nil {
		// The ID stays retired: a reused ID could alias recovered tags.
		delete(f.tenants, sid)
		return "", err
	}
	return sid, nil
}

// HasTenant reports whether sid is an open tenant session.
func (f *Federation) HasTenant(sid string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.tenants[sid]
	return t != nil && !t.closing
}

// Admit routes v for tenant sid and admits its fragments, in plan
// order, on the calling goroutine. The environment ID is assigned first
// (and never reused, even if the admission fails); the plan settles
// all-or-nothing: every fragment committed registers the environment,
// any failure releases the committed siblings and refunds the gateway.
// Callers that need deterministic placement submit from one goroutine.
func (f *Federation) Admit(sid string, v *virtual.Env) (string, Placement, error) {
	if err := f.enter(); err != nil {
		return "", Placement{}, err
	}
	defer f.inflight.Done()
	f.mu.Lock()
	if t := f.tenants[sid]; t == nil || t.closing {
		f.mu.Unlock()
		return "", Placement{}, fmt.Errorf("%w: %s", ErrUnknownTenant, sid)
	}
	f.nextEnv++
	eid := fmt.Sprintf("e%d", f.nextEnv)
	f.mu.Unlock()

	pl, err := f.router.route(sid, v)
	if err != nil {
		return eid, Placement{}, err
	}
	n := len(pl.groups)
	frags := make([]frag, n)
	p := Placement{Fragments: make([]Fragment, n), CutBW: pl.cutBW, Fallback: pl.fallback, Split: pl.split}
	var firstErr error
	// Every fragment is attempted, even after one failed: each shard
	// sees the same operations whichever fragment fails.
	for i, g := range pl.groups {
		tag := envTag(sid, eid)
		if pl.split {
			tag = fragTag(sid, eid, i+1, n, pl.cutBW)
		}
		frags[i] = frag{shard: g.shard, tag: tag, proc: g.proc}
		m, err := f.admitFrag(f.shards[g.shard], g, tag)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		p.Fragments[i] = Fragment{Shard: g.shard, Guests: g.orig, Env: g.env, M: m, Tag: tag}
	}
	if firstErr == nil {
		f.mu.Lock()
		t := f.tenants[sid]
		if t != nil && !t.closing {
			t.envs[eid] = &envRec{frags: frags, cutBW: pl.cutBW}
			f.mu.Unlock()
			return eid, p, nil
		}
		f.mu.Unlock()
		// The tenant closed while the admission was in flight; the
		// commit is rolled back below like any other failure.
		firstErr = fmt.Errorf("%w: %s", ErrUnknownTenant, sid)
	}
	for i, fr := range frags {
		if p.Fragments[i].M != nil {
			f.releaseFrag(fr)
		}
	}
	if pl.cutBW > 0 && f.gw != nil {
		f.gw.Release(pl.cutBW)
	}
	return eid, Placement{}, firstErr
}

// admitFrag admits one fragment of a plan on sh under tag, makes it
// durable and settles its reservation with the router.
func (f *Federation) admitFrag(sh *Shard, g group, tag string) (*mapping.Mapping, error) {
	start := time.Now() //hmn:wallclock
	m, st, err := sh.sess.MapTagged(g.env, tag)
	if f.cfg.Hooks.OnAdmit != nil {
		f.cfg.Hooks.OnAdmit(st, time.Since(start).Seconds()) //hmn:wallclock
	}
	if err == nil {
		if berr := f.barrier(); berr != nil {
			// Committed but not durable: undo, never acknowledge.
			_ = sh.sess.ReleaseTagged(tag)
			m, err = nil, fmt.Errorf("shard %d durability barrier: %w", sh.Index, berr)
		}
	}
	f.router.commit(sh.Index, err == nil, g.proc)
	return m, err
}

// releaseFrag tears one fragment down on its shard, makes that durable
// and refunds its reservation. A fragment no longer active — an
// unrecoverable repair evicted it — counts as released.
func (f *Federation) releaseFrag(fr frag) error {
	sh := f.shards[fr.shard]
	err := sh.sess.ReleaseTagged(fr.tag)
	if errors.Is(err, core.ErrNotActive) {
		err = nil
	}
	if err == nil {
		err = f.barrier()
	}
	f.router.release(fr.shard, fr.proc)
	return err
}

// releaseEnv releases every fragment of rec, in order, and refunds the
// gateway; the first error is reported.
func (f *Federation) releaseEnv(rec *envRec) error {
	var first error
	for _, fr := range rec.frags {
		if err := f.releaseFrag(fr); err != nil && first == nil {
			first = err
		}
	}
	if rec.cutBW > 0 && f.gw != nil {
		f.gw.Release(rec.cutBW)
	}
	return first
}

// Release tears an environment down: every fragment released on its
// shard, the gateway refunded. The registry entry is removed first, so
// a second release reports ErrUnknownEnv.
func (f *Federation) Release(sid, eid string) error {
	if err := f.enter(); err != nil {
		return err
	}
	defer f.inflight.Done()
	return f.release(sid, eid)
}

// release is Release inside an operation that has already entered.
func (f *Federation) release(sid, eid string) error {
	f.mu.Lock()
	t := f.tenants[sid]
	if t == nil {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownTenant, sid)
	}
	rec := t.envs[eid]
	if rec == nil {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s/%s", ErrUnknownEnv, sid, eid)
	}
	delete(t.envs, eid)
	f.mu.Unlock()
	return f.releaseEnv(rec)
}

// EnvIDs returns a tenant's deployed environment IDs, ordinal-sorted.
func (f *Federation) EnvIDs(sid string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.tenants[sid]
	if t == nil || t.closing {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, sid)
	}
	return sortedEnvIDs(t), nil
}

// sortedEnvIDs lists t's environment IDs by ordinal. Caller holds f.mu.
//
//hmn:locked mu
func sortedEnvIDs(t *tenant) []string {
	out := make([]string, 0, len(t.envs))
	//hmn:orderinvariant
	for eid := range t.envs {
		out = append(out, eid)
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := wal.EnvOrdinal(out[i])
		b, _ := wal.EnvOrdinal(out[j])
		return a < b
	})
	return out
}

// CloseTenant releases every environment of sid and retires the ID.
func (f *Federation) CloseTenant(sid string) error {
	if err := f.enter(); err != nil {
		return err
	}
	defer f.inflight.Done()
	f.mu.Lock()
	t := f.tenants[sid]
	if t == nil || t.closing {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownTenant, sid)
	}
	t.closing = true
	eids := sortedEnvIDs(t)
	f.mu.Unlock()

	var firstErr error
	for _, eid := range eids {
		if err := f.release(sid, eid); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.mu.Lock()
	delete(f.tenants, sid)
	err := f.writeMetaLocked()
	f.mu.Unlock()
	if firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Mutate runs op — a failure, a restore — against shard k's session,
// makes it durable, then reconciles the registry with the repair
// results op returned and re-centers the router on the shard's new
// capacity: repaired and replaced fragments keep their identity; an
// unrecoverable fragment takes its whole environment down (the sibling
// fragments are released and the gateway refunded), preserving the
// all-or-nothing contract.
func (f *Federation) Mutate(k int, op func(*core.Session) ([]core.RepairResult, error)) ([]core.RepairResult, error) {
	sh, err := f.Shard(k)
	if err != nil {
		return nil, err
	}
	if err := f.enter(); err != nil {
		return nil, err
	}
	defer f.inflight.Done()
	results, err := op(sh.sess)
	if err == nil {
		err = f.barrier()
	}
	if err != nil {
		return nil, err
	}
	f.reconcileRepairs(results)
	f.router.resync(k, sh.sess.ResidualSummary().TotalProc)
	return results, nil
}

// RebalanceOnce runs one rebalancing round on shard k and returns what
// it did.
func (f *Federation) RebalanceOnce(k int) (core.RebalanceResult, error) {
	sh, err := f.Shard(k)
	if err != nil {
		return core.RebalanceResult{}, err
	}
	if err := f.enter(); err != nil {
		return core.RebalanceResult{}, err
	}
	defer f.inflight.Done()
	res := sh.Rebalance()
	return res, f.barrier()
}

// reconcileRepairs applies one shard's repair outcomes to the registry:
// the environment of every unrecoverable fragment is taken down. A
// result names its fragment by tag, which names its environment; the
// evicted fragment itself is no longer active, so its release is a
// no-op and the resync after reconciliation re-centers the headroom.
func (f *Federation) reconcileRepairs(results []core.RepairResult) {
	type victim struct {
		sid, eid string
		rec      *envRec
	}
	var dead []victim
	f.mu.Lock()
	for _, res := range results {
		if res.Outcome != core.RepairUnrecoverable {
			continue
		}
		sid, eid, _, _, _, _ := parseTag(res.Tag)
		if t := f.tenants[sid]; t != nil && t.envs[eid] != nil {
			dead = append(dead, victim{sid: sid, eid: eid, rec: t.envs[eid]})
			delete(t.envs, eid)
		}
	}
	f.mu.Unlock()
	// Tenant, then environment ordinal: the order sibling releases reach
	// their shards in is part of what a fixed submission order pins.
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].sid != dead[j].sid {
			return dead[i].sid < dead[j].sid
		}
		return envOrdinal(dead[i].eid) < envOrdinal(dead[j].eid)
	})
	for _, v := range dead {
		f.releaseEnv(v.rec)
	}
}

// sortedTenantIDsLocked lists the tenant IDs sorted; caller holds f.mu.
//
//hmn:locked mu
func sortedTenantIDsLocked(tenants map[string]*tenant) []string {
	out := make([]string, 0, len(tenants))
	//hmn:orderinvariant
	for sid := range tenants {
		out = append(out, sid)
	}
	sort.Strings(out)
	return out
}

// Stats is a point-in-time federation census for the metrics layer.
type Stats struct {
	Shards          []ShardStats
	RouterFallbacks uint64
	SplitAdmissions uint64
	GatewayInUse    float64
	GatewayBudget   float64
	// Tenants counts the open tenant sessions and Envs the environments
	// deployed across them — registry entries, however many fragments
	// each was split into.
	Tenants int
	Envs    int
}

// ShardStats is one shard's slice of Stats.
type ShardStats struct {
	// Admissions counts committed fragment admissions; ActiveEnvs is
	// the deployed fragment count (occupancy) and ResidualProc the
	// router's reservation-exact headroom view in MIPS.
	Admissions   uint64
	ActiveEnvs   int
	ResidualProc float64
}

// Stats snapshots the federation counters.
func (f *Federation) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(f.shards))}
	f.router.snapshotStats(&st)
	for k, sh := range f.shards {
		st.Shards[k].ActiveEnvs = sh.sess.Active()
	}
	if f.gw != nil {
		st.GatewayInUse = f.gw.InUse()
		st.GatewayBudget = f.gw.Budget()
	}
	f.mu.Lock()
	st.Tenants = len(f.tenants)
	for _, t := range f.tenants {
		st.Envs += len(t.envs)
	}
	f.mu.Unlock()
	return st
}

// Close refuses new work, waits for the operations already running,
// takes a final snapshot of every shard — a checkpoint, deleting
// nothing — and seals the WAL (Seal).
func (f *Federation) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	f.inflight.Wait()
	return Seal(f.w, f.domains)
}

package shard

import (
	"errors"
	"fmt"
	"path/filepath"
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
// rebuilds the registry from the per-shard WALs.
type Federation struct {
	cfg    Config
	shards []*Shard
	router *Router
	gw     *Gateway

	mu      sync.Mutex
	tenants map[string]*tenant //hmn:guardedby mu
	nextSID int                //hmn:guardedby mu
	nextEnv int                //hmn:guardedby mu
	closed  bool               //hmn:guardedby mu

	// sendMu excludes a send to a shard worker vs Close closing the
	// workers' queues: a caller holds it shared while it sends, so a call
	// that races Close is refused instead of sending on a closed channel.
	// A send may wait on a full queue while holding it; the wait ends,
	// because no worker ever takes sendMu.
	sendMu  sync.RWMutex
	stopped bool //hmn:guardedby sendMu

	stopSnapshots func() // nil without a snapshot cadence
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

// fragOutcome is one fragment admission's outcome on its shard worker.
type fragOutcome struct {
	i   int
	m   *mapping.Mapping
	err error
}

// New builds a fresh federation of len(clusters) shards. The clusters
// may share a *cluster.Cluster (sessions own their ledgers) or be
// disjoint partitions of one fabric. With cfg.DataDir set, every shard
// gets its own WAL directory and the tenant registry its meta file; a
// directory that already holds state is refused — use Recover.
func New(clusters []*cluster.Cluster, cfg Config) (*Federation, error) {
	cfg = cfg.withDefaults()
	if len(clusters) == 0 {
		return nil, errors.New("shard: federation needs at least one cluster")
	}
	f := &Federation{cfg: cfg, tenants: make(map[string]*tenant)}
	if cfg.GatewayBW > 0 {
		f.gw = NewGateway(cfg.GatewayBW)
	}
	for k, c := range clusters {
		if err := f.openShard(k, c); err != nil {
			f.abortBuild()
			return nil, err
		}
	}
	f.mu.Lock()
	err := f.writeMetaLocked()
	f.mu.Unlock()
	if err != nil {
		f.abortBuild()
		return nil, err
	}
	f.start()
	return f, nil
}

// openShard opens shard k on c, logging to its own empty WAL directory
// when the federation is durable. A directory that already recovers a
// session means the caller wanted Recover.
func (f *Federation) openShard(k int, c *cluster.Cluster) error {
	var w *wal.WAL
	if f.cfg.DataDir != "" {
		opened, found, _, err := Replay(f.cfg, filepath.Join(f.cfg.DataDir, shardSID(k)))
		if err != nil {
			return err
		}
		if len(found) > 0 {
			opened.Close()
			return fmt.Errorf("shard: data dir already holds shard %d state; recover instead of creating", k)
		}
		w = opened
	}
	sh, err := Open(f.cfg, shardSID(k), c, spec.FromCluster(c), w)
	if err == nil {
		f.shards = append(f.shards, sh)
		err = sh.barrier()
	} else if w != nil {
		w.Close()
	}
	return err
}

// start builds the router over the shards as they stand, launches the
// workers and starts the snapshot cadence. Called once by New/Recover.
func (f *Federation) start() {
	sums := make([]core.ResidualSummary, len(f.shards))
	for k, sh := range f.shards {
		sums[k] = sh.sess.ResidualSummary()
		sh.Index = k
		sh.ops = make(chan func(), f.cfg.QueueDepth)
		sh.done = make(chan struct{})
		if sh.w != nil {
			sh.export = f.exportShard(sh)
		}
		go sh.loop()
	}
	f.router = newRouter(sums, f.gw)
	if f.cfg.DataDir != "" && f.cfg.SnapshotInterval > 0 {
		f.stopSnapshots = Every(f.cfg.SnapshotInterval, func() {
			for _, sh := range f.shards {
				if err := f.snapshotShard(sh); err != nil {
					f.cfg.logf("shard %d: snapshot: %v", sh.Index, err)
				}
			}
		})
	}
}

// abortBuild tears down a partially built federation.
func (f *Federation) abortBuild() {
	for _, sh := range f.shards {
		if sh.w != nil {
			sh.w.Close()
		}
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

// send hands fn to sh's worker, blocking while its queue is full, unless
// Close has begun: then fn never runs and the error is ErrClosed. Work
// sent before Close still drains.
func (f *Federation) send(sh *Shard, fn func()) error {
	f.sendMu.RLock()
	defer f.sendMu.RUnlock()
	if f.stopped {
		return ErrClosed
	}
	sh.ops <- fn
	return nil
}

// run sends fn to sh's worker and waits for it to finish.
func (f *Federation) run(sh *Shard, fn func()) error {
	done := make(chan struct{})
	if err := f.send(sh, func() {
		defer close(done)
		fn()
	}); err != nil {
		return err
	}
	<-done
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

// Admit routes v for tenant sid, admits its fragments on their shard
// workers and waits for every one. The environment ID is assigned
// first (and never reused, even if the admission fails); the plan
// settles all-or-nothing: every fragment committed registers the
// environment, any failure releases the committed siblings and refunds
// the gateway. Routing runs on the calling goroutine: callers that
// need deterministic placement submit from one goroutine.
func (f *Federation) Admit(sid string, v *virtual.Env) (string, Placement, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return "", Placement{}, ErrClosed
	}
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
	results := make(chan fragOutcome, n)
	for i := range pl.groups {
		g := pl.groups[i]
		tag := envTag(sid, eid)
		if pl.split {
			tag = fragTag(sid, eid, i+1, n, pl.cutBW)
		}
		frags[i] = frag{shard: g.shard, tag: tag, proc: g.proc}
		idx, sh := i, f.shards[g.shard]
		if err := f.send(sh, func() {
			start := time.Now() //hmn:wallclock
			m, st, err := sh.sess.MapTagged(g.env, tag)
			if f.cfg.Hooks.OnAdmit != nil {
				f.cfg.Hooks.OnAdmit(st, time.Since(start).Seconds()) //hmn:wallclock
			}
			if err == nil {
				if berr := sh.barrier(); berr != nil {
					// Committed but not durable: undo, never acknowledge.
					_ = sh.sess.ReleaseTagged(tag)
					m, err = nil, fmt.Errorf("shard %d durability barrier: %w", sh.Index, berr)
				}
			}
			f.router.commit(sh.Index, err == nil, g.proc, sh.sess.ResidualSummary())
			results <- fragOutcome{i: idx, m: m, err: err}
		}); err != nil {
			results <- fragOutcome{i: idx, err: err}
		}
	}

	p := Placement{Fragments: make([]Fragment, n), CutBW: pl.cutBW, Fallback: pl.fallback, Split: pl.split}
	var firstErr error
	for range pl.groups {
		o := <-results
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
		g := pl.groups[o.i]
		p.Fragments[o.i] = Fragment{Shard: g.shard, Guests: g.orig, Env: g.env, M: o.m, Tag: frags[o.i].tag}
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
			f.submitFragRelease(fr, nil)
		}
	}
	if pl.cutBW > 0 && f.gw != nil {
		f.gw.Release(pl.cutBW)
	}
	return eid, Placement{}, firstErr
}

// submitFragRelease refunds the fragment's reservation and enqueues
// its teardown on the owning shard. errs, when non-nil, receives the
// release outcome. A release refused because Close has begun leaves the
// fragment on its shard for recovery's orphan sweep.
func (f *Federation) submitFragRelease(fr frag, errs chan<- error) {
	f.router.releaseSubmitted(fr.shard, fr.proc)
	sh := f.shards[fr.shard]
	if err := f.send(sh, func() {
		// A fragment no longer active — an unrecoverable repair evicted
		// it — counts as released.
		err := sh.sess.ReleaseTagged(fr.tag)
		if errors.Is(err, core.ErrNotActive) {
			err = nil
		}
		if err == nil {
			err = sh.barrier()
		}
		f.router.releaseExecuted(fr.shard, fr.proc, sh.sess.ResidualSummary())
		if errs != nil {
			errs <- err
		}
	}); err != nil && errs != nil {
		errs <- err
	}
}

// Release tears an environment down: every fragment released on its
// shard, the gateway refunded. The registry entry is removed first, so
// a second release reports ErrUnknownEnv.
func (f *Federation) Release(sid, eid string) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
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

	errs := make(chan error, len(rec.frags))
	for _, fr := range rec.frags {
		f.submitFragRelease(fr, errs)
	}
	var first error
	for range rec.frags {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if rec.cutBW > 0 && f.gw != nil {
		f.gw.Release(rec.cutBW)
	}
	return first
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
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
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
		if err := f.Release(sid, eid); err != nil && firstErr == nil {
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

// Mutate runs op — a failure, a restore — against shard k's session on
// the shard worker, makes it durable, then reconciles the registry with
// the repair results op returned and re-centers the router on the
// shard's new capacity: repaired and replaced fragments keep their
// identity; an unrecoverable fragment takes its whole environment down
// (the sibling fragments are released and the gateway refunded),
// preserving the all-or-nothing contract.
func (f *Federation) Mutate(k int, op func(*core.Session) ([]core.RepairResult, error)) ([]core.RepairResult, error) {
	sh, err := f.Shard(k)
	if err != nil {
		return nil, err
	}
	var results []core.RepairResult
	if serr := f.run(sh, func() {
		if results, err = op(sh.sess); err == nil {
			err = sh.barrier()
		}
	}); serr != nil {
		return nil, serr
	}
	if err != nil {
		return nil, err
	}
	f.reconcileRepairs(k, results)
	f.router.resync(k, sh.sess.ResidualSummary())
	return results, nil
}

// RebalanceOnce runs one rebalancing round on shard k, on its worker,
// and returns what it did.
func (f *Federation) RebalanceOnce(k int) (res core.RebalanceResult, err error) {
	sh, err := f.Shard(k)
	if err != nil {
		return res, err
	}
	if serr := f.run(sh, func() {
		res = sh.Rebalance()
		err = sh.barrier()
	}); serr != nil {
		return res, serr
	}
	return res, err
}

// reconcileRepairs applies one shard's repair outcomes to the registry.
// A result names its fragment by tag, which names its environment.
func (f *Federation) reconcileRepairs(k int, results []core.RepairResult) {
	type victim struct {
		sid, eid string
		rec      *envRec
	}
	var dead []victim
	gone := make(map[string]bool)
	f.mu.Lock()
	for _, res := range results {
		if res.Outcome != core.RepairUnrecoverable {
			continue
		}
		gone[res.Tag] = true
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
		lost := 0
		for _, fr := range v.rec.frags {
			if fr.shard == k && gone[fr.tag] {
				// The evicted fragment itself: nothing to release; the
				// resync after reconciliation re-centers the headroom.
				lost++
				continue
			}
			f.submitFragRelease(fr, nil)
		}
		f.router.adjustEnvs(k, -lost)
		if v.rec.cutBW > 0 && f.gw != nil {
			f.gw.Release(v.rec.cutBW)
		}
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
	// Summary is the last advisory epoch-versioned summary.
	Summary core.ResidualSummary
}

// Stats snapshots the federation counters.
func (f *Federation) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(f.shards))}
	f.router.snapshotStats(&st)
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

// Close refuses new work, stops the workers (draining what they were
// sent) and the snapshot loop, takes a final snapshot of every shard,
// and closes the WALs.
func (f *Federation) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	f.sendMu.Lock()
	f.stopped = true
	f.sendMu.Unlock()
	if f.stopSnapshots != nil {
		f.stopSnapshots()
	}
	var firstErr error
	for _, sh := range f.shards {
		close(sh.ops)
		<-sh.done
		if sh.w != nil {
			if err := f.snapshotShard(sh); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := sh.w.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

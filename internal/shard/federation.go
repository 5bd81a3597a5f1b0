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
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/rebalance"
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

	snapStop chan struct{}
	snapDone chan struct{}
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
	frags []*frag
	cutBW float64
	split bool
}

// frag is one fragment on one shard. m is kept current across
// migrations (the rebalance hook) and repairs; tag is the durable
// identity and the fallback lookup key when m went stale anyway.
type frag struct {
	shard int
	m     *mapping.Mapping //hmn:guardedby mu
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
	// Env is the admitted (sub-)environment and M its mapping.
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

// AdmitResult is an asynchronous admission's outcome.
type AdmitResult struct {
	EnvID     string
	Placement Placement
	Err       error
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
	sums := make([]core.ResidualSummary, len(clusters))
	for k, c := range clusters {
		sh, err := f.buildShard(k, c)
		if err != nil {
			f.abortBuild()
			return nil, err
		}
		f.shards = append(f.shards, sh)
		if cfg.DataDir != "" {
			if err := f.freshWAL(sh); err != nil {
				f.abortBuild()
				return nil, err
			}
		}
		sums[k] = sh.sess.ResidualSummary()
	}
	f.router = newRouter(sums, f.gw)
	if cfg.DataDir != "" {
		f.mu.Lock()
		err := f.writeMetaLocked()
		f.mu.Unlock()
		if err != nil {
			f.abortBuild()
			return nil, err
		}
	}
	f.start()
	return f, nil
}

// buildShard assembles one shard's session, scheduler and worker
// plumbing (the worker goroutine starts in start()).
func (f *Federation) buildShard(k int, c *cluster.Cluster) (*Shard, error) {
	mapper, err := core.MapperByName(f.cfg.Mapper, f.cfg.Overhead)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(c, f.cfg.Overhead, mapper)
	if err != nil {
		return nil, err
	}
	sh := &Shard{
		Index:       k,
		c:           c,
		clusterSpec: spec.FromCluster(c),
		sess:        sess,
		ops:         make(chan func(), f.cfg.QueueDepth),
		done:        make(chan struct{}),
	}
	f.attachRebalance(sh)
	return sh, nil
}

// attachRebalance gives the shard its scheduler (stopped; start()
// launches it only when a cadence is configured).
func (f *Federation) attachRebalance(sh *Shard) {
	interval := f.cfg.RebalanceInterval
	if interval <= 0 {
		interval = time.Hour // never started; New insists on a positive period
	}
	k := sh.Index
	sh.reb = rebalance.New(sh.sess, interval, f.cfg.RebalanceMaxMoves, rebalance.Hooks{
		OnCommit: func(_ rebalance.Unit, res *core.MigrateResult, err error) {
			if err != nil || res == nil {
				return
			}
			f.noteMigrate(k, res)
		},
		AfterRound: sh.barrier,
		Logf:       f.cfg.Logf,
	})
}

// freshWAL opens shard sh's empty WAL directory and logs its open
// record. Pre-existing state means the caller wanted Recover.
func (f *Federation) freshWAL(sh *Shard) error {
	w, recovered, err := wal.Open(filepath.Join(f.cfg.DataDir, shardSID(sh.Index)), f.walHooks())
	if err != nil {
		return err
	}
	if recovered.Snapshot != nil || len(recovered.Records) > 0 {
		w.Close()
		return fmt.Errorf("shard: data dir already holds shard %d state; recover instead of creating", sh.Index)
	}
	sh.w = w
	rec := &wal.Record{Kind: wal.KindOpen, SID: shardSID(sh.Index), Open: &wal.OpenRec{
		Cluster: sh.clusterSpec,
		Mapper:  f.cfg.Mapper,
		Proc:    f.cfg.Overhead.Proc,
		Mem:     f.cfg.Overhead.Mem,
		Stor:    f.cfg.Overhead.Stor,
	}}
	if err := w.Append(rec); err != nil {
		return err
	}
	if err := w.Barrier(); err != nil {
		return err
	}
	f.attachWAL(sh)
	return nil
}

// attachWAL installs the shard session's commit hook; it runs under
// the session lock and buffers one record per committed operation.
func (f *Federation) attachWAL(sh *Shard) {
	sid, overhead, w := shardSID(sh.Index), f.cfg.Overhead, sh.w
	sh.sess.SetCommitHook(func(ev core.Event) {
		if err := w.Append(wal.RecordFromEvent(sid, overhead, ev)); err != nil {
			// Already committed in memory; the fault is sticky, so the
			// ack-path barrier fails too and no client is ever told the
			// lost operation is durable.
			f.logf("shard %d: wal append: %v", sh.Index, err)
		}
	})
}

// walHooks adapts the federation hooks for wal.Open.
func (f *Federation) walHooks() wal.Hooks {
	return wal.Hooks{
		OnAppend:   f.cfg.Hooks.OnWALRecord,
		OnFsync:    f.cfg.Hooks.OnFsync,
		OnSnapshot: f.cfg.Hooks.OnSnapshot,
		Logf:       f.cfg.Logf,
	}
}

// start launches the workers, the configured rebalancers and the
// snapshot loop. Called once by New/Recover.
func (f *Federation) start() {
	for _, sh := range f.shards {
		go sh.loop()
		if f.cfg.RebalanceInterval > 0 {
			sh.reb.Start()
		}
	}
	if f.cfg.DataDir != "" && f.cfg.SnapshotInterval > 0 {
		f.snapStop = make(chan struct{})
		f.snapDone = make(chan struct{})
		go f.snapshotLoop()
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

// logf reports through the configured logger.
func (f *Federation) logf(format string, args ...interface{}) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
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

// Tenants returns the open tenant IDs, sorted.
func (f *Federation) Tenants() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.tenants))
	//hmn:orderinvariant
	for sid, t := range f.tenants {
		if !t.closing {
			out = append(out, sid)
		}
	}
	sort.Strings(out)
	return out
}

// HasTenant reports whether sid is an open tenant session.
func (f *Federation) HasTenant(sid string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.tenants[sid]
	return t != nil && !t.closing
}

// AdmitAsync routes v for tenant sid and submits the admission to its
// shard worker(s). The environment ID is assigned immediately (and
// never reused, even if the admission fails); the result arrives on
// the returned channel once every fragment committed — or the plan was
// rolled back. Routing runs on the calling goroutine: callers that
// need deterministic placement submit from one goroutine.
func (f *Federation) AdmitAsync(sid string, v *virtual.Env) (string, <-chan AdmitResult) {
	ch := make(chan AdmitResult, 1)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		ch <- AdmitResult{Err: ErrClosed}
		return "", ch
	}
	t := f.tenants[sid]
	if t == nil || t.closing {
		f.mu.Unlock()
		ch <- AdmitResult{Err: fmt.Errorf("%w: %s", ErrUnknownTenant, sid)}
		return "", ch
	}
	f.nextEnv++
	eid := fmt.Sprintf("e%d", f.nextEnv)
	f.mu.Unlock()

	pl, err := f.router.route(sid, v)
	if err != nil {
		ch <- AdmitResult{EnvID: eid, Err: err}
		return eid, ch
	}
	n := len(pl.groups)
	tags := make([]string, n)
	results := make(chan fragOutcome, n)
	for i := range pl.groups {
		g := pl.groups[i]
		if pl.split {
			tags[i] = fragTag(sid, eid, i+1, n, pl.cutBW)
		} else {
			tags[i] = envTag(sid, eid)
		}
		idx, tag, sh := i, tags[i], f.shards[g.shard]
		proc := g.proc
		sh.enqueue(func() {
			m, _, err := sh.sess.MapTagged(g.env, tag)
			if err == nil {
				if berr := sh.barrier(); berr != nil {
					// Committed but not durable: undo, never acknowledge.
					_ = sh.sess.Release(m)
					m, err = nil, fmt.Errorf("shard %d durability barrier: %w", sh.Index, berr)
				}
			}
			f.router.commit(sh.Index, err == nil, proc, sh.sess.ResidualSummary())
			results <- fragOutcome{i: idx, m: m, err: err}
		})
	}
	go f.gather(sid, eid, pl, tags, results, ch)
	return eid, ch
}

// Admit is the blocking form of AdmitAsync.
func (f *Federation) Admit(sid string, v *virtual.Env) (string, Placement, error) {
	_, ch := f.AdmitAsync(sid, v)
	res := <-ch
	return res.EnvID, res.Placement, res.Err
}

// gather collects an admission's fragment outcomes and settles the
// plan all-or-nothing: every fragment committed registers the
// environment; any failure releases the committed siblings and refunds
// the gateway.
func (f *Federation) gather(sid, eid string, pl plan, tags []string, results chan fragOutcome, ch chan AdmitResult) {
	n := len(pl.groups)
	frags := make([]*frag, n)
	var firstErr error
	for i := 0; i < n; i++ {
		o := <-results
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		g := pl.groups[o.i]
		frags[o.i] = &frag{shard: g.shard, m: o.m, tag: tags[o.i], proc: g.proc}
	}

	if firstErr == nil {
		f.mu.Lock()
		if t := f.tenants[sid]; t != nil && !t.closing {
			rec := &envRec{frags: compactFrags(frags), cutBW: pl.cutBW, split: pl.split}
			t.envs[eid] = rec
			f.mu.Unlock()
			ch <- AdmitResult{EnvID: eid, Placement: f.placementOf(pl, rec)}
			return
		}
		f.mu.Unlock()
		// The tenant closed while the admission was in flight; the
		// commit is rolled back below like any other failure.
		firstErr = fmt.Errorf("%w: %s", ErrUnknownTenant, sid)
	}

	for _, fr := range frags {
		if fr != nil {
			f.submitFragRelease(fr, nil)
		}
	}
	if pl.cutBW > 0 && f.gw != nil {
		f.gw.Release(pl.cutBW)
	}
	ch <- AdmitResult{EnvID: eid, Err: firstErr}
}

// compactFrags drops the nil slots of a partially failed gather (all
// slots are set on the success path, but keep the invariant local).
func compactFrags(frags []*frag) []*frag {
	out := frags[:0]
	for _, fr := range frags {
		if fr != nil {
			out = append(out, fr)
		}
	}
	return out
}

// placementOf renders the public placement. Caller must not hold f.mu.
func (f *Federation) placementOf(pl plan, rec *envRec) Placement {
	p := Placement{CutBW: pl.cutBW, Fallback: pl.fallback, Split: pl.split}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, fr := range rec.frags {
		p.Fragments = append(p.Fragments, Fragment{
			Shard:  fr.shard,
			Guests: pl.groups[i].orig,
			Env:    pl.groups[i].env,
			M:      fr.m,
			Tag:    fr.tag,
		})
	}
	return p
}

// submitFragRelease refunds the fragment's reservation and enqueues
// its teardown on the owning shard. errs, when non-nil, receives the
// release outcome.
func (f *Federation) submitFragRelease(fr *frag, errs chan<- error) {
	f.router.releaseSubmitted(fr.shard, fr.proc)
	sh := f.shards[fr.shard]
	sh.enqueue(func() {
		// By tag: a rebalance commit may have replaced fr.m since the
		// registry last heard. A fragment no longer active — an
		// unrecoverable repair evicted it — counts as released.
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
	})
}

// findByTag scans the session's active set for the mapping carrying
// tag; nil when none does.
func findByTag(sess *core.Session, tag string) *mapping.Mapping {
	for _, a := range sess.Export().Active {
		if a.Tag == tag {
			return a.M
		}
	}
	return nil
}

// ReleaseAsync tears an environment down: every fragment released on
// its shard, the gateway refunded. The registry entry is removed
// immediately, so a second release reports ErrUnknownEnv.
func (f *Federation) ReleaseAsync(sid, eid string) <-chan error {
	ch := make(chan error, 1)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		ch <- ErrClosed
		return ch
	}
	t := f.tenants[sid]
	if t == nil {
		f.mu.Unlock()
		ch <- fmt.Errorf("%w: %s", ErrUnknownTenant, sid)
		return ch
	}
	rec := t.envs[eid]
	if rec == nil {
		f.mu.Unlock()
		ch <- fmt.Errorf("%w: %s/%s", ErrUnknownEnv, sid, eid)
		return ch
	}
	delete(t.envs, eid)
	frags := append([]*frag(nil), rec.frags...)
	f.mu.Unlock()

	errs := make(chan error, len(frags))
	for _, fr := range frags {
		f.submitFragRelease(fr, errs)
	}
	go func() {
		var first error
		for range frags {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		if rec.cutBW > 0 && f.gw != nil {
			f.gw.Release(rec.cutBW)
		}
		ch <- first
	}()
	return ch
}

// Release is the blocking form of ReleaseAsync.
func (f *Federation) Release(sid, eid string) error {
	return <-f.ReleaseAsync(sid, eid)
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

// noteMigrate keeps the registry's mapping pointers current across a
// shard's rebalance commits (tags are stable; pointers are not).
func (f *Federation) noteMigrate(k int, res *core.MigrateResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range res.Envs {
		sid, eid, _, _, _, ok := parseTag(e.Tag)
		if !ok {
			continue
		}
		t := f.tenants[sid]
		if t == nil {
			continue
		}
		rec := t.envs[eid]
		if rec == nil {
			continue
		}
		for _, fr := range rec.frags {
			if fr.shard == k && fr.tag == e.Tag {
				fr.m = e.New
			}
		}
	}
}

// FailHost fails a host on shard k and repairs the evictions, then
// reconciles the registry: repaired/replaced fragments keep their
// identity under the new mapping; an unrecoverable fragment takes its
// whole environment down (the sibling fragments are released and the
// gateway refunded), preserving the all-or-nothing contract.
func (f *Federation) FailHost(k int, node graph.NodeID) ([]core.RepairResult, error) {
	return f.failTarget(k, func(sh *Shard) ([]core.RepairResult, error) {
		return sh.sess.FailHostAndRepair(node)
	})
}

// FailLink fails a physical link on shard k; see FailHost.
func (f *Federation) FailLink(k, edgeID int) ([]core.RepairResult, error) {
	return f.failTarget(k, func(sh *Shard) ([]core.RepairResult, error) {
		return sh.sess.FailLinkAndRepair(edgeID)
	})
}

// failTarget runs one fail-and-repair on the shard worker, then
// reconciles and re-centers the router.
func (f *Federation) failTarget(k int, op func(*Shard) ([]core.RepairResult, error)) ([]core.RepairResult, error) {
	if k < 0 || k >= len(f.shards) {
		return nil, ErrBadShard
	}
	sh := f.shards[k]
	var (
		results []core.RepairResult
		opErr   error
	)
	sh.run(func() {
		results, opErr = op(sh)
		if opErr == nil {
			opErr = sh.barrier()
		}
	})
	if opErr != nil {
		return nil, opErr
	}
	f.reconcileRepairs(k, results)
	f.router.resync(k, sh.sess.ResidualSummary())
	return results, nil
}

// RestoreHost readmits a failed host on shard k.
func (f *Federation) RestoreHost(k int, node graph.NodeID) error {
	return f.restoreTarget(k, func(sh *Shard) error { return sh.sess.RestoreHost(node) })
}

// RestoreLink readmits a cut link on shard k.
func (f *Federation) RestoreLink(k, edgeID int) error {
	return f.restoreTarget(k, func(sh *Shard) error { return sh.sess.RestoreLink(edgeID) })
}

func (f *Federation) restoreTarget(k int, op func(*Shard) error) error {
	if k < 0 || k >= len(f.shards) {
		return ErrBadShard
	}
	sh := f.shards[k]
	var opErr error
	sh.run(func() {
		opErr = op(sh)
		if opErr == nil {
			opErr = sh.barrier()
		}
	})
	if opErr != nil {
		return opErr
	}
	f.router.resync(k, sh.sess.ResidualSummary())
	return nil
}

// RebalanceOnce runs one planning round on shard k and returns the
// units committed with the objective before/after.
func (f *Federation) RebalanceOnce(k int) (moves int, before, after float64, err error) {
	if k < 0 || k >= len(f.shards) {
		return 0, 0, 0, ErrBadShard
	}
	sh := f.shards[k]
	sh.run(func() {
		before = sh.sess.ObjectiveStdDev()
		moves = sh.reb.RunOnce()
		after = sh.sess.ObjectiveStdDev()
		err = sh.barrier()
	})
	return moves, before, after, err
}

// reconcileRepairs applies one shard's repair outcomes to the registry.
func (f *Federation) reconcileRepairs(k int, results []core.RepairResult) {
	if len(results) == 0 {
		return
	}
	f.mu.Lock()
	// Locate each repaired mapping's fragment by pointer; iteration is
	// over sorted IDs so the (rare) diagnostic order is stable.
	type victim struct {
		sid, eid string
		rec      *envRec
	}
	var dead []victim
	for _, sid := range sortedTenantIDsLocked(f.tenants) {
		t := f.tenants[sid]
		for _, eid := range sortedEnvIDs(t) {
			rec := t.envs[eid]
			for _, fr := range rec.frags {
				if fr.shard != k {
					continue
				}
				for i := range results {
					res := &results[i]
					if res.Old != fr.m && (res.New == nil || res.New != fr.m) {
						continue
					}
					if res.Outcome == core.RepairUnrecoverable {
						dead = append(dead, victim{sid: sid, eid: eid, rec: rec})
					} else if fr.m == res.Old {
						fr.m = res.New
					}
					break
				}
			}
		}
	}
	for _, v := range dead {
		t := f.tenants[v.sid]
		delete(t.envs, v.eid)
	}
	f.mu.Unlock()

	for _, v := range dead {
		lost := 0
		for _, fr := range v.rec.frags {
			if fr.shard == k && fragIsGone(f.shards[k].sess, fr.tag) {
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

// fragIsGone reports that no active mapping carries tag anymore.
func fragIsGone(sess *core.Session, tag string) bool {
	return findByTag(sess, tag) == nil
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
	Tenants         int
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
	f.mu.Unlock()
	return st
}

// Close stops the workers (draining their queues), the rebalancers and
// the snapshot loop, takes a final snapshot of every shard, and closes
// the WALs.
func (f *Federation) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	if f.snapStop != nil {
		close(f.snapStop)
		<-f.snapDone
	}
	var firstErr error
	for _, sh := range f.shards {
		sh.stop()
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

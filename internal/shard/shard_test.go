package shard

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/topology"
	"repro/internal/virtual"
	"repro/internal/wal"
	"repro/internal/workload"
)

// uniformSpecs builds n identical hosts.
func uniformSpecs(n int, proc float64, mem int64, stor float64) []topology.HostSpec {
	out := make([]topology.HostSpec, n)
	for i := range out {
		out[i] = topology.HostSpec{Proc: proc, Mem: mem, Stor: stor}
	}
	return out
}

// testClusters builds shards equal 2x2 torus clusters with generous
// links, memory and storage (each host 2000 MIPS): CPU is the binding
// resource, matching what the router's headroom view tracks.
func testClusters(t *testing.T, shards int) []*cluster.Cluster {
	t.Helper()
	out := make([]*cluster.Cluster, shards)
	for k := range out {
		c, err := topology.Torus2D(uniformSpecs(4, 2000, 65536, 100000), 2, 2, 10000, 1)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = c
	}
	return out
}

func newTestFederation(t *testing.T, shards int, cfg Config) *Federation {
	t.Helper()
	f, err := New(testClusters(t, shards), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// genEnv draws a seeded workload environment.
func genEnv(seed int64, guests int) *virtual.Env {
	rng := rand.New(rand.NewSource(seed))
	return workload.GenerateEnv(workload.HighLevelParams(guests, 0.03), rng)
}

func TestFederationAdmitRelease(t *testing.T) {
	f := newTestFederation(t, 2, Config{})
	sid, err := f.OpenTenant()
	if err != nil {
		t.Fatal(err)
	}
	if sid != "s1" {
		t.Fatalf("tenant ID = %q, want s1", sid)
	}
	v := genEnv(1, 12)
	eid, pl, err := f.Admit(sid, v)
	if err != nil {
		t.Fatal(err)
	}
	if eid != "e1" {
		t.Fatalf("env ID = %q, want e1", eid)
	}
	if len(pl.Fragments) != 1 || pl.Split {
		t.Fatalf("whole-env admission produced %d fragments (split=%v)", len(pl.Fragments), pl.Split)
	}
	k := pl.Fragments[0].Shard
	sh, _ := f.Shard(k)
	if sh.Session().Active() != 1 {
		t.Fatalf("shard %d active = %d, want 1", k, sh.Session().Active())
	}
	st := f.Stats()
	if st.Shards[k].Admissions != 1 || st.Shards[k].ActiveEnvs != 1 {
		t.Fatalf("shard %d stats = %+v", k, st.Shards[k])
	}
	if err := f.Release(sid, eid); err != nil {
		t.Fatal(err)
	}
	if err := f.Release(sid, eid); !errors.Is(err, ErrUnknownEnv) {
		t.Fatalf("double release = %v, want ErrUnknownEnv", err)
	}
	// The release has run by the time it returns: the ledger is restored.
	if sh.Session().Active() != 0 {
		t.Fatalf("shard %d still has %d active envs after release", k, sh.Session().Active())
	}
}

func TestFederationUnknownTenant(t *testing.T) {
	f := newTestFederation(t, 2, Config{})
	if _, _, err := f.Admit("s99", genEnv(1, 8)); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("admit on unknown tenant = %v", err)
	}
	if err := f.Release("s99", "e1"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("release on unknown tenant = %v", err)
	}
	if err := f.CloseTenant("s99"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("close on unknown tenant = %v", err)
	}
}

// placementSignature digests a submission sequence's outcome: every
// fragment's shard and tag plus each shard's residual CPU vector.
func placementSignature(t *testing.T, f *Federation, placements []Placement) string {
	t.Helper()
	sig := ""
	for _, pl := range placements {
		for _, fr := range pl.Fragments {
			sig += fmt.Sprintf("%s@%d;", fr.Tag, fr.Shard)
		}
	}
	for k := 0; k < f.Shards(); k++ {
		sh, _ := f.Shard(k)
		for _, p := range sh.Session().ResidualProc() {
			sig += fmt.Sprintf("%.9f,", p)
		}
		sig += "|"
	}
	return sig
}

func TestPlacementDeterministic(t *testing.T) {
	run := func() string {
		f := newTestFederation(t, 4, Config{GatewayBW: 1000})
		sid, err := f.OpenTenant()
		if err != nil {
			t.Fatal(err)
		}
		var placements []Placement
		for i := int64(0); i < 24; i++ {
			v := genEnv(100+i, 10)
			_, pl, err := f.Admit(sid, v)
			if err != nil {
				t.Fatalf("admit %d: %v", i, err)
			}
			placements = append(placements, pl)
			if i >= 8 {
				if err := f.Release(sid, fmt.Sprintf("e%d", i-7)); err != nil {
					t.Fatalf("release after %d: %v", i, err)
				}
			}
		}
		return placementSignature(t, f, placements)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("placement differs across identical runs:\n%s\nvs\n%s", a, b)
	}
}

// splitEnv is two CPU-heavy guest communities joined by one thin link:
// neither community alone exceeds a shard, together they do, and the
// thin link is the natural cut.
func splitEnv(commBW float64) *virtual.Env {
	v := virtual.NewEnv()
	for i := 0; i < 6; i++ {
		v.AddGuest(fmt.Sprintf("g%d", i), 1600, 256, 100)
	}
	v.AddLink(0, 1, commBW, 1000)
	v.AddLink(1, 2, commBW, 1000)
	v.AddLink(3, 4, commBW, 1000)
	v.AddLink(4, 5, commBW, 1000)
	v.AddLink(0, 3, 1, 1000) // the cut
	return v
}

// rollbackEnv is a split whose second fragment fails in the Networking
// stage: its community links exceed every physical trunk, so the
// committed sibling is rolled back.
func rollbackEnv() *virtual.Env {
	v := virtual.NewEnv()
	for i := 0; i < 6; i++ {
		v.AddGuest(fmt.Sprintf("g%d", i), 1600, 256, 100)
	}
	v.AddLink(0, 1, 50, 1000)
	v.AddLink(1, 2, 50, 1000)
	v.AddLink(3, 4, 50000, 1000)
	v.AddLink(4, 5, 50000, 1000)
	v.AddLink(0, 3, 1, 1000)
	return v
}

func TestSplitAdmission(t *testing.T) {
	f := newTestFederation(t, 2, Config{GatewayBW: 10})
	sid, _ := f.OpenTenant()
	eid, pl, err := f.Admit(sid, splitEnv(50))
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Split || len(pl.Fragments) != 2 {
		t.Fatalf("expected a 2-way split, got %+v", pl)
	}
	if pl.CutBW != 1 {
		t.Fatalf("cut = %g Mbps, want 1 (the thin link)", pl.CutBW)
	}
	if f.Gateway().InUse() != 1 {
		t.Fatalf("gateway in use = %g, want 1", f.Gateway().InUse())
	}
	shards := map[int]bool{}
	for _, fr := range pl.Fragments {
		if len(fr.Guests) != 3 {
			t.Fatalf("fragment carries %d guests, want 3", len(fr.Guests))
		}
		shards[fr.Shard] = true
	}
	if len(shards) != 2 {
		t.Fatalf("fragments share a shard: %+v", pl.Fragments)
	}
	if err := f.Release(sid, eid); err != nil {
		t.Fatal(err)
	}
	if got := f.Gateway().InUse(); got != 0 {
		t.Fatalf("gateway in use after release = %g, want 0", got)
	}
}

func TestSplitGatewayExhausted(t *testing.T) {
	f := newTestFederation(t, 2, Config{GatewayBW: 0.5})
	sid, _ := f.OpenTenant()
	if _, _, err := f.Admit(sid, splitEnv(50)); !errors.Is(err, ErrGatewayExhausted) {
		t.Fatalf("admit = %v, want ErrGatewayExhausted", err)
	}
}

func TestSplitDisabledWithoutGateway(t *testing.T) {
	f := newTestFederation(t, 2, Config{})
	sid, _ := f.OpenTenant()
	if _, _, err := f.Admit(sid, splitEnv(50)); !errors.Is(err, ErrNoShardFits) {
		t.Fatalf("admit = %v, want ErrNoShardFits", err)
	}
}

// TestSplitRollback forces one fragment of a split to fail in the
// Networking stage (its community links exceed every physical trunk)
// and checks the all-or-nothing contract: the sibling fragment is
// released, the gateway refunded, nothing stays deployed.
func TestSplitRollback(t *testing.T) {
	f := newTestFederation(t, 2, Config{GatewayBW: 100})
	sid, _ := f.OpenTenant()
	_, _, err := f.Admit(sid, rollbackEnv())
	if err == nil {
		t.Fatal("admit of an infeasible fragment succeeded")
	}
	for k := 0; k < 2; k++ {
		sh, _ := f.Shard(k)
		if sh.Session().Active() != 0 {
			t.Fatalf("shard %d keeps %d fragments after rollback", k, sh.Session().Active())
		}
	}
	if got := f.Gateway().InUse(); got != 0 {
		t.Fatalf("gateway in use after rollback = %g, want 0", got)
	}
	ids, err := f.EnvIDs(sid)
	if err != nil || len(ids) != 0 {
		t.Fatalf("registry after rollback: ids=%v err=%v", ids, err)
	}
}

func TestCloseTenantReleasesEverything(t *testing.T) {
	f := newTestFederation(t, 2, Config{GatewayBW: 10})
	sid, _ := f.OpenTenant()
	for i := int64(0); i < 4; i++ {
		if _, _, err := f.Admit(sid, genEnv(40+i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := f.Admit(sid, splitEnv(50)); err != nil {
		t.Fatal(err)
	}
	if err := f.CloseTenant(sid); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		sh, _ := f.Shard(k)
		if sh.Session().Active() != 0 {
			t.Fatalf("shard %d keeps %d envs after tenant close", k, sh.Session().Active())
		}
	}
	if got := f.Gateway().InUse(); got != 0 {
		t.Fatalf("gateway in use after tenant close = %g", got)
	}
	if f.HasTenant(sid) {
		t.Fatal("tenant still open after close")
	}
	// The next tenant gets a fresh ID.
	sid2, _ := f.OpenTenant()
	if sid2 != "s2" {
		t.Fatalf("next tenant = %q, want s2", sid2)
	}
}

// failHost fails node on shard k the way the daemon's fail endpoint does.
func failHost(f *Federation, k int, node graph.NodeID) ([]core.RepairResult, error) {
	return f.Mutate(k, func(cs *core.Session) ([]core.RepairResult, error) { return cs.FailHostAndRepair(node) })
}

func TestFailHostRepairsAndResyncs(t *testing.T) {
	f := newTestFederation(t, 2, Config{})
	sid, _ := f.OpenTenant()
	eid, pl, err := f.Admit(sid, genEnv(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	k := pl.Fragments[0].Shard
	sh, _ := f.Shard(k)
	node := sh.Cluster().HostNodes()[pl.Fragments[0].M.GuestHost[0]]
	results, err := failHost(f, k, node)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no repair result for a host that carried guests")
	}
	for _, res := range results {
		if res.Outcome == core.RepairUnrecoverable {
			t.Skip("repair unrecoverable on this draw; registry teardown covered elsewhere")
		}
	}
	// The registry must track the repaired mapping: release must work.
	if err := f.Release(sid, eid); err != nil {
		t.Fatalf("release after repair: %v", err)
	}
	if _, err := f.Mutate(k, func(cs *core.Session) ([]core.RepairResult, error) { return nil, cs.RestoreHost(node) }); err != nil {
		t.Fatal(err)
	}
	if sh.Session().Active() != 0 {
		t.Fatalf("shard %d active = %d after release", k, sh.Session().Active())
	}
}

// TestFailOvertakenByMigrateCommit is the shard twin of the server test
// of the same name: a rebalance commit replaces the mapping of a
// deployed fragment inside core, then the host one of its guests still
// sits on fails. The registry holds the fragment's tag, not the mapping
// it was admitted under, so the repair result finds its environment, the
// router's census and the gateway stay as they were, and the environment
// releases cleanly afterwards.
func TestFailOvertakenByMigrateCommit(t *testing.T) {
	// The server test's fixture: h0..h2 hold 1024 MB, h3 only 256, so the
	// pins fill h0 and h1, both pair guests land on h2, and releasing the
	// pins leaves exactly one improving migration (a pair guest to h0).
	clusters := make([]*cluster.Cluster, 2)
	for k := range clusters {
		c, err := topology.Torus2D([]topology.HostSpec{
			{Proc: 1000, Mem: 1024, Stor: 1000},
			{Proc: 1000, Mem: 1024, Stor: 1000},
			{Proc: 1000, Mem: 1024, Stor: 1000},
			{Proc: 1000, Mem: 256, Stor: 1000},
		}, 2, 2, 1000, 5)
		if err != nil {
			t.Fatal(err)
		}
		clusters[k] = c
	}
	f, err := New(clusters, Config{GatewayBW: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	sid, _ := f.OpenTenant()
	pins, pair := virtual.NewEnv(), virtual.NewEnv()
	pins.AddGuest("pin0", 50, 1024, 10)
	pins.AddGuest("pin1", 50, 1024, 10)
	pair.AddGuest("b0", 400, 512, 10)
	pair.AddGuest("b1", 400, 512, 10)
	pinned, _, err := f.Admit(sid, pins)
	if err != nil {
		t.Fatal(err)
	}
	eid, pl, err := f.Admit(sid, pair)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Release(sid, pinned); err != nil {
		t.Fatal(err)
	}
	k := pl.Fragments[0].Shard
	sh, _ := f.Shard(k)

	// Run a round straight on the core session, past the federation:
	// nothing tells its registry.
	res := sh.sess.Rebalance(0)
	if res.Moves != 1 {
		t.Fatalf("a round on the unbalanced fixture committed %d moves, want 1: %+v", res.Moves, res)
	}

	results, err := failHost(f, k, sh.Cluster().HostNodes()[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Tag != pl.Fragments[0].Tag || results[0].New == nil {
		t.Fatalf("repair results %+v, want fragment %s repaired", results, pl.Fragments[0].Tag)
	}
	if ids, _ := f.EnvIDs(sid); len(ids) != 1 || ids[0] != eid {
		t.Fatalf("registry holds %v after the repair, want [%s]", ids, eid)
	}
	if st := f.Stats(); st.Shards[k].ActiveEnvs != 1 || st.Envs != 1 || st.GatewayInUse != 0 {
		t.Fatalf("census after the repair: %+v", st)
	}
	if err := f.Release(sid, eid); err != nil {
		t.Fatalf("release of the migrated, repaired environment: %v", err)
	}
	if st := f.Stats(); sh.Session().Active() != 0 || st.Shards[k].ActiveEnvs != 0 || st.Envs != 0 {
		t.Fatalf("shard %d keeps %d fragments after the release (census %+v)", k, sh.Session().Active(), st)
	}
}

func TestConcurrentTenants(t *testing.T) {
	f := newTestFederation(t, 4, Config{GatewayBW: 100})
	const tenants = 4
	sids := make([]string, tenants)
	for i := range sids {
		sid, err := f.OpenTenant()
		if err != nil {
			t.Fatal(err)
		}
		sids[i] = sid
	}
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for ti, sid := range sids {
		wg.Add(1)
		go func(ti int, sid string) {
			defer wg.Done()
			var eids []string
			for i := int64(0); i < 6; i++ {
				eid, _, err := f.Admit(sid, genEnv(int64(ti)*100+i, 8))
				if err != nil {
					errs <- fmt.Errorf("tenant %s admit %d: %w", sid, i, err)
					return
				}
				eids = append(eids, eid)
			}
			for _, eid := range eids {
				if err := f.Release(sid, eid); err != nil {
					errs <- fmt.Errorf("tenant %s release %s: %w", sid, eid, err)
					return
				}
			}
			errs <- nil
		}(ti, sid)
	}
	wg.Wait()
	for range sids {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < f.Shards(); k++ {
		sh, _ := f.Shard(k)
		if sh.Session().Active() != 0 {
			t.Fatalf("shard %d keeps %d envs", k, sh.Session().Active())
		}
	}
}

// TestCloseRacingOperations: admissions, releases and rebalancing rounds
// racing Close either finish or are refused with ErrClosed. A call that
// passed the closed check and then sent to a worker queue Close had just
// closed used to panic.
func TestCloseRacingOperations(t *testing.T) {
	for round := 0; round < 300; round++ {
		f, err := New(testClusters(t, 2), Config{})
		if err != nil {
			t.Fatal(err)
		}
		sid, err := f.OpenTenant()
		if err != nil {
			t.Fatal(err)
		}
		// Close once every goroutine is looping, so calls are in flight.
		var wg, looping sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			looping.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					eid, _, err := f.Admit(sid, genEnv(int64(g*1000+i), 4))
					if err == nil {
						err = f.Release(sid, eid)
					}
					if err == nil {
						_, err = f.RebalanceOnce(g % 2)
					}
					if i == 0 {
						looping.Done()
					}
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("round %d, goroutine %d: %v", round, g, err)
						return
					}
				}
			}(g)
		}
		looping.Wait()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

// TestCloseRacingDurableOperations races Close against every kind of
// operation on a durable federation: admissions (splits included),
// releases, rebalancing rounds, a host failure and its restore, tenant
// opens and closes. Every call finishes or is refused with ErrClosed;
// none appends once Close has sealed the logs; and the directory
// recovers with every shard's objective matching a recompute and no
// orphan fragment to sweep.
func TestCloseRacingDurableOperations(t *testing.T) {
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		var sealed atomic.Bool
		logf := func(format string, args ...interface{}) {
			if sealed.Load() {
				t.Errorf("round %d: logged after Close: %s", round, fmt.Sprintf(format, args...))
			}
		}
		f, err := New(testClusters(t, 2), Config{
			DataDir: dir, GatewayBW: 100, Logf: logf,
			Hooks: Hooks{OnWALRecord: func() {
				if sealed.Load() {
					t.Errorf("round %d: record appended after Close", round)
				}
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg, looping sync.WaitGroup
		loop := func(g int, step func(i int) error) {
			wg.Add(1)
			looping.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					err := step(i)
					if i == 0 {
						looping.Done()
					}
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("round %d, goroutine %d, step %d: %v", round, g, i, err)
						return
					}
				}
			}()
		}
		for g := 0; g < 3; g++ {
			sid, err := f.OpenTenant()
			if err != nil {
				t.Fatal(err)
			}
			loop(g, func(i int) error {
				v := genEnv(int64(g*1000+i), 4)
				if i%4 == 3 {
					v = splitEnv(50)
				}
				eid, _, err := f.Admit(sid, v)
				if err == nil {
					err = f.Release(sid, eid)
				} else if i%4 == 3 && errors.Is(err, ErrNoShardFits) {
					// Two splits in flight, or one beside the failed host,
					// can leave no pair of shards with room: a refusal.
					err = nil
				}
				if err == nil {
					_, err = f.RebalanceOnce(g % 2)
				}
				return err
			})
		}
		node := f.shards[1].Cluster().HostNodes()[1]
		loop(3, func(int) error {
			if _, err := failHost(f, 1, node); err != nil {
				return err
			}
			_, err := f.Mutate(1, func(cs *core.Session) ([]core.RepairResult, error) { return nil, cs.RestoreHost(node) })
			return err
		})
		loop(4, func(i int) error {
			sid, err := f.OpenTenant()
			if err != nil {
				return err
			}
			if _, _, err := f.Admit(sid, genEnv(int64(5000+i), 4)); err != nil {
				return err
			}
			return f.CloseTenant(sid)
		})
		looping.Wait()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		sealed.Store(true)
		wg.Wait()
		sealed.Store(false)
		if t.Failed() {
			return
		}

		r, err := Recover(Config{DataDir: dir, Logf: func(format string, args ...interface{}) {
			if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "orphan") {
				t.Errorf("round %d: recovery: %s", round, msg)
			}
		}})
		if err != nil {
			t.Fatalf("round %d: recover: %v", round, err)
		}
		for k := 0; k < r.Shards(); k++ {
			sh, _ := r.Shard(k)
			if err := wal.VerifyObjective(sh.Session()); err != nil {
				t.Errorf("round %d: shard %d: %v", round, k, err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRouterBestFitFallback(t *testing.T) {
	r := newRouter([]float64{100, 50, 80}, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if k, fb := r.pickLocked(0, 90); k != 0 || fb {
		t.Fatalf("fast path: pick=%d fallback=%v", k, fb)
	}
	// Hashed shard 1 lacks room: tightest fit wins (shard 2: 80-60=20
	// beats shard 0: 100-60=40).
	if k, fb := r.pickLocked(1, 60); k != 2 || !fb {
		t.Fatalf("best fit: pick=%d fallback=%v", k, fb)
	}
	if k, _ := r.pickLocked(1, 200); k != -1 {
		t.Fatalf("oversized pick = %d, want -1", k)
	}
}

// TestRouterAllocsBudget holds the shard pick and its reservation, both
// under the router lock on every federation admission, to zero
// allocations.
func TestRouterAllocsBudget(t *testing.T) {
	r := newRouter([]float64{100, 50, 80}, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	allocs := testing.AllocsPerRun(200, func() {
		for _, hashed := range []int{0, 1, 2} {
			// Shard 1 lacks room for 60: its pick takes the best-fit scan.
			if k, _ := r.pickLocked(hashed, 60); k >= 0 {
				r.reserveLocked(k, 60)
				r.reserveLocked(k, -60)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("pick and reserve allocate %.1f times per run, want 0", allocs)
	}
}

func TestRingDeterministicAndStable(t *testing.T) {
	a, b := buildRing(8), buildRing(8)
	if len(a.points) != len(b.points) || len(a.points) != 8*ringVnodes {
		t.Fatalf("ring sizes %d/%d", len(a.points), len(b.points))
	}
	for i := range a.points {
		if a.points[i] != b.points[i] {
			t.Fatal("ring construction is not deterministic")
		}
	}
	counts := make([]int, 8)
	for i := 0; i < 10000; i++ {
		counts[a.pick(fmt.Sprintf("s%d", i))]++
	}
	for k, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d owns no keys", k)
		}
	}
	// Real tenant IDs are small and sequential; without the mix64
	// finalizer they cluster within one ring arc and the fast path
	// funnels every tenant to a single shard. The first handful must
	// already spread: no shard may own more than half of s1..s16.
	early := make([]int, 8)
	for i := 1; i <= 16; i++ {
		early[a.pick(fmt.Sprintf("s%d", i))]++
	}
	for k, n := range early {
		if n > 8 {
			t.Fatalf("shard %d owns %d of the first 16 tenants — sequential IDs cluster on the ring", k, n)
		}
	}
}

func TestGatewayBudget(t *testing.T) {
	g := NewGateway(10)
	if err := g.Reserve(7); err != nil {
		t.Fatal(err)
	}
	if err := g.Reserve(4); !errors.Is(err, ErrGatewayExhausted) {
		t.Fatalf("over-budget reserve = %v", err)
	}
	if err := g.Reserve(3); err != nil {
		t.Fatal(err)
	}
	g.Release(5)
	if got := g.InUse(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("in use = %g, want 5", got)
	}
	g.Release(100)
	if got := g.InUse(); got != 0 {
		t.Fatalf("in use clamps at 0, got %g", got)
	}
}

func TestParseTagRoundTrip(t *testing.T) {
	cases := []struct {
		tag          string
		sid, eid     string
		fragI, fragN int
		cut          float64
		ok           bool
	}{
		{envTag("s1", "e7"), "s1", "e7", 1, 1, 0, true},
		{fragTag("s2", "e12", 2, 3, 4.5), "s2", "e12", 2, 3, 4.5, true},
		{"garbage", "", "", 0, 0, 0, false},
		{"s1/", "", "", 0, 0, 0, false},
		{"s1/e1#2of1@3", "", "", 0, 0, 0, false},
	}
	for _, c := range cases {
		sid, eid, fragI, fragN, cut, ok := parseTag(c.tag)
		if ok != c.ok || sid != c.sid || eid != c.eid || fragI != c.fragI || fragN != c.fragN || cut != c.cut {
			t.Fatalf("parseTag(%q) = %q %q %d %d %g %v", c.tag, sid, eid, fragI, fragN, cut, ok)
		}
	}
}

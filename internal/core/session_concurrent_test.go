package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapping"
	"repro/internal/topology"
	"repro/internal/workload"
)

// equalMappings reports whether two mappings of the same environment
// place every guest on the same host and route every link over the same
// path.
func equalMappings(a, b *mapping.Mapping) bool {
	if len(a.GuestHost) != len(b.GuestHost) || len(a.LinkPath) != len(b.LinkPath) {
		return false
	}
	for g := range a.GuestHost {
		if a.GuestHost[g] != b.GuestHost[g] {
			return false
		}
	}
	for l := range a.LinkPath {
		pa, pb := a.LinkPath[l], b.LinkPath[l]
		if len(pa.Edges) != len(pb.Edges) || len(pa.Nodes) != len(pb.Nodes) {
			return false
		}
		for i := range pa.Edges {
			if pa.Edges[i] != pb.Edges[i] {
				return false
			}
		}
		for i := range pa.Nodes {
			if pa.Nodes[i] != pb.Nodes[i] {
				return false
			}
		}
	}
	return true
}

// TestSessionConcurrentNoSpuriousRejection hammers one session from many
// goroutines with environments the cluster can comfortably co-host. No
// admission may fail — contention never rejects what the residuals can
// hold — and every committed mapping must satisfy the paper's
// Eq. (1)-(9) (mapping.Validate) plus the session-level bandwidth
// conservation across all tenants. Run with -race.
func TestSessionConcurrentNoSpuriousRejection(t *testing.T) {
	_, s := sessionFixture(t)
	const workers = 8
	const perWorker = 4

	var mu sync.Mutex
	var admitted []*mapping.Mapping
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Small environments: all workers*perWorker fit at once.
				v := smallEnv(int64(w*1000+i), 8)
				m, err := s.Map(v)
				if err != nil {
					errs <- fmt.Errorf("worker %d env %d: spurious rejection: %w", w, i, err)
					return
				}
				if err := m.Validate(cluster.VMMOverhead{}); err != nil {
					errs <- fmt.Errorf("worker %d env %d: committed mapping violates Eq. (1)-(9): %w", w, i, err)
					return
				}
				mu.Lock()
				admitted = append(admitted, m)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(admitted) != workers*perWorker {
		t.Fatalf("admitted %d environments, want %d", len(admitted), workers*perWorker)
	}

	// Session-level conservation: summing every tenant's bandwidth
	// demand per edge must match what the ledger handed out, and no
	// residual may be negative.
	s.mu.Lock()
	net := s.c.Net()
	demand := make([]float64, net.NumEdges())
	for m := range s.active {
		for l, p := range m.LinkPath {
			for _, eid := range p.Edges {
				demand[eid] += m.Env.Link(l).BW
			}
		}
	}
	for e := 0; e < net.NumEdges(); e++ {
		res := s.led.ResidualBandwidth(e)
		if res < 0 {
			s.mu.Unlock()
			t.Fatalf("edge %d: negative residual bandwidth %v", e, res)
		}
		if got, want := res+demand[e], net.Edge(e).Bandwidth; got < want-1e-6 || got > want+1e-6 {
			s.mu.Unlock()
			t.Fatalf("edge %d: residual %v + demand %v != installed %v", e, res, demand[e], want)
		}
	}
	s.mu.Unlock()

	// Releasing everything must restore the pristine residuals.
	before, err := cluster.NewLedger(s.c, cluster.VMMOverhead{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range admitted {
		if err := s.Release(m); err != nil {
			t.Fatal(err)
		}
	}
	got := s.ResidualProc()
	want := before.ResidualProcAll()
	for i := range got {
		// Concurrent admissions commit in nondeterministic order, so the
		// float64 sums may differ in the last ulps; only the value matters.
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("host %d: residual CPU %v after full release, want %v", i, got[i], want[i])
		}
	}
}

// TestConcurrentHistoryEqualsItsCommitOrder is the determinism claim as
// a theorem with a test: whatever N goroutines do to one session, the
// outcome is the serial execution of the order their operations
// committed in. Admitters churn environments on a small switched
// cluster and a rebalancer runs round after round beside them, while a
// commit hook records the event order; a fresh session then replays that
// order one operation at a time — plain Map and Release, and the
// recorded effect of every migrate — and must place every guest on the
// same host, route every link over the same path and end on
// bit-identical residual CPU. An admission that commits a placement
// computed on residuals another commit has since changed breaks the
// first equality; so does a migration scored under one lock-hold and
// committed under another.
func TestConcurrentHistoryEqualsItsCommitOrder(t *testing.T) {
	params := workload.PaperClusterParams()
	params.Hosts = 24
	specs := workload.GenerateHosts(params, rand.New(rand.NewSource(5)))
	c, err := topology.Switched(specs, workload.SwitchPorts, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		t.Fatal(err)
	}
	for _, admitters := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("admitters_%d", admitters), func(t *testing.T) {
			live, err := NewSession(c, cluster.VMMOverhead{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var history []Event
			live.SetCommitHook(func(ev Event) { history = append(history, ev) })

			const perAdmitter = 40
			var wg sync.WaitGroup
			for w := 0; w < admitters; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// By tag: a migrate replaces the mapping an admission
					// returned.
					var held []string
					for i := 0; i < perAdmitter; i++ {
						// A full cluster rejects; the history then simply
						// has no admit for this environment.
						tag := fmt.Sprintf("w%d-%d", w, i)
						if _, _, err := live.MapTagged(smallEnv(int64(w*1000+i), 6+i%5), tag); err == nil {
							held = append(held, tag)
						}
						if len(held) > 1 {
							if err := live.ReleaseTagged(held[0]); err != nil {
								t.Error(err)
							}
							held = held[1:]
						}
					}
				}(w)
			}
			admitting := make(chan struct{})
			rebalanced := make(chan struct{})
			go func() {
				defer close(rebalanced)
				for {
					live.Rebalance(4)
					select {
					case <-admitting:
						live.Rebalance(0) // at least one round sees the final state
						return
					default:
					}
				}
			}()
			wg.Wait()
			close(admitting)
			<-rebalanced

			serial, err := NewSession(c, cluster.VMMOverhead{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			admits, migrates := 0, 0
			for _, ev := range history {
				switch ev.Type {
				case EventAdmit:
					m, err := serial.Map(ev.Admit.Env)
					if err != nil {
						t.Fatalf("op %d: serial execution rejects admission seq %d: %v", ev.Index, ev.Admit.Seq, err)
					}
					if !equalMappings(m, ev.Admit.M) {
						t.Fatalf("op %d: admission seq %d differs from the serial execution of its commit order", ev.Index, ev.Admit.Seq)
					}
					admits++
				case EventRelease:
					// Every admit so far was replayed, so seqs coincide.
					if err := serial.Release(serial.MappingBySeq(ev.ReleaseSeq)); err != nil {
						t.Fatalf("op %d: release of seq %d: %v", ev.Index, ev.ReleaseSeq, err)
					}
				case EventMigrate:
					envs := make([]ReplayMigrateEnv, len(ev.Migrate.Envs))
					for i, e := range ev.Migrate.Envs {
						// The serial session admitted untagged.
						envs[i] = ReplayMigrateEnv{Seq: e.Seq, M: e.M}
					}
					if err := serial.ReplayMigrate(ev.Migrate.Moves, envs); err != nil {
						t.Fatalf("op %d: migrate %v: %v", ev.Index, ev.Migrate.Moves, err)
					}
					migrates++
				default:
					t.Fatalf("op %d: unexpected %v event", ev.Index, ev.Type)
				}
			}
			if admits < admitters*perAdmitter/2 {
				t.Fatalf("only %d of %d admissions committed; the cluster is too small to exercise contention", admits, admitters*perAdmitter)
			}
			if migrates == 0 {
				t.Fatal("the rebalancer committed nothing; the history exercises no migrate")
			}
			got, want := live.ResidualProc(), serial.ResidualProc()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("host %d: residual CPU %v, serial execution has %v", i, got[i], want[i])
				}
			}
		})
	}
}

package core

import (
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// BatchStats reports how one MapBatch call was admitted.
type BatchStats struct {
	// Committed counts environments whose snapshot mapping validated
	// against the live residuals and was committed as-is (the mapping ran
	// with no lock held).
	Committed int
	// Fallbacks counts environments re-mapped serially under the lock
	// after their snapshot mapping failed validation — typically because
	// an earlier batch member claimed the same residuals.
	Fallbacks int
	// CommitSeconds is the total time the batch held the session lock:
	// the snapshot clone plus the single commit pass (including any
	// serialized fallback re-maps inside it).
	CommitSeconds float64
	// Route counts the A*Prune work of every mapping the batch ran,
	// fallback re-maps included: searches, candidates popped and pushed.
	Route graph.SearchStats
}

// MapBatch deploys several environments in one admission round: one
// residual snapshot is taken under a brief lock, every environment is
// mapped concurrently against that snapshot with no lock held, and a
// single lock acquisition then commits the mappings in input order —
// validating each against the live residuals (which include the batch
// members committed before it) and atomically applying it, or, when
// validation fails, re-mapping that environment serially on the spot.
//
// The per-environment guarantee is the same as Map's: an environment is
// rejected only if the serialized path would reject it at its commit
// position, and a failed environment never changes the residuals. The
// batch amortises what per-environment admission cannot: n environments
// cost one snapshot, one lock acquisition for all commits, and fully
// parallel mapping work in between.
//
// maps[i] and errs[i] describe envs[i]; exactly one of them is non-nil.
func (s *Session) MapBatch(envs []*virtual.Env) (maps []*mapping.Mapping, errs []error, bst BatchStats) {
	return s.MapBatchTagged(envs, nil)
}

// MapBatchTagged is MapBatch with a caller tag per environment (tags may
// be nil for an untagged batch; otherwise len(tags) must equal
// len(envs)). The batch's successful admissions are emitted as one
// EventBatch — a single atomic entry in the operation log, mirroring the
// single lock acquisition that committed them.
func (s *Session) MapBatchTagged(envs []*virtual.Env, tags []string) (maps []*mapping.Mapping, errs []error, bst BatchStats) {
	n := len(envs)
	maps = make([]*mapping.Mapping, n)
	errs = make([]error, n)
	if n == 0 {
		return maps, errs, bst
	}
	tagOf := func(i int) string {
		if tags == nil {
			return ""
		}
		return tags[i]
	}

	start := time.Now() //hmn:wallclock
	s.mu.Lock()
	snap := s.snapshotLocked()
	ver := s.version
	s.mu.Unlock()
	bst.CommitSeconds += time.Since(start).Seconds() //hmn:wallclock

	// Every environment maps off-lock on its own private ledger; the
	// first reuses the snapshot itself (it is discarded afterwards — the
	// commit pass below replays net effects onto the live ledger, never
	// swaps a snapshot in). Clones are taken before any mapping starts,
	// so the goroutines share nothing.
	leds := make([]*cluster.Ledger, n)
	leds[0] = snap
	for i := 1; i < n; i++ {
		leds[i] = snap.Clone()
	}
	attempts := make([]*mapping.Mapping, n)
	attemptErr := make([]error, n)
	routes := make([]graph.SearchStats, n)
	var wg sync.WaitGroup
	for i := range envs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := mapping.New(s.c, envs[i])
			ms := getMapScratch()
			err := s.mapper.mapOnLedger(leds[i], envs[i], m, s.ar, ms)
			routes[i] = ms.route
			putMapScratch(ms)
			if err != nil {
				attemptErr[i] = err
				return
			}
			attempts[i] = m
		}(i)
	}
	wg.Wait()
	for _, r := range routes {
		bst.Route.Add(r)
	}

	start = time.Now() //hmn:wallclock
	s.mu.Lock()
	s.freeSnapshotLocked(snap)
	// While nothing has committed since the snapshot — no concurrent
	// admission and no earlier batch member — the snapshot residuals ARE
	// the live residuals, so a mapping failure against them is exactly
	// the failure the serialized path would report. Once anything
	// commits, failures are stale and must be retried serially.
	live := s.version == ver
	var admits []AdmitInfo
	for i := range envs {
		if attemptErr[i] == nil {
			if seq, err := s.commitTxnLocked(envs[i], attempts[i], tagOf(i)); err == nil {
				maps[i] = attempts[i]
				admits = append(admits, AdmitInfo{Seq: seq, Tag: tagOf(i), Env: envs[i], M: attempts[i]})
				bst.Committed++
				live = false
				s.optimisticCommits.Add(1)
				continue
			}
		} else if live {
			errs[i] = attemptErr[i]
			continue
		}
		// Validation lost to an earlier commit, or the snapshot failure
		// may be stale: re-map serially against the live residuals, under
		// the lock we already hold.
		bst.Fallbacks++
		s.fallbacks.Add(1)
		attempt := s.snapshotLocked()
		m := mapping.New(s.c, envs[i])
		ms := getMapScratch()
		err := s.mapper.mapOnLedger(attempt, envs[i], m, s.ar, ms)
		bst.Route.Add(ms.route)
		putMapScratch(ms)
		s.freeSnapshotLocked(attempt)
		if err != nil {
			errs[i] = err
			continue
		}
		if seq, err := s.commitTxnLocked(envs[i], m, tagOf(i)); err == nil {
			maps[i] = m
			admits = append(admits, AdmitInfo{Seq: seq, Tag: tagOf(i), Env: envs[i], M: m})
			live = false
		} else {
			errs[i] = err
		}
	}
	if len(admits) > 0 {
		s.emitLocked(Event{Type: EventBatch, Batch: admits})
	}
	s.mu.Unlock()
	bst.CommitSeconds += time.Since(start).Seconds() //hmn:wallclock
	return maps, errs, bst
}

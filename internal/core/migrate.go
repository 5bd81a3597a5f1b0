package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// This file is post-admission guest migration: Rebalance, the §4.2
// descent (migration.go) run over every deployed environment against
// the live residuals, one committed move per lock-hold, and
// ReplayMigrate, which re-applies a logged plan of one move or several.
// A scored move commits in the same one lock-hold as MapTagged: re-route
// the affected paths on the session's scratch snapshot, then apply the
// plan's net effect to the live ledger through cluster.Txn or reject it
// untouched.
//
// Committed mappings are immutable repo-wide (the HTTP layer and the
// snapshot writer read them off-lock), so a migration never mutates the
// deployed *mapping.Mapping: it builds a replacement, swaps the pointer
// in the active set, and keeps the admission seq and caller tag — the
// environment's identity survives its guests moving.

// ErrMigrateConflict is returned when the live state does not match a
// migrate plan — a named guest is not on its From host, or a destination
// lacks the resources the plan counts on.
var ErrMigrateConflict = errors.New("core: migrate plan conflicts with the live state")

// GuestMove is one guest relocation in a migrate plan: move Guest of the
// environment admitted under Seq from host From to host To.
type GuestMove struct {
	Seq   uint64
	Guest virtual.GuestID
	From  graph.NodeID
	To    graph.NodeID
}

// migrateEnvState is the per-environment working state of one plan.
type migrateEnvState struct {
	seq   uint64
	tag   string
	old   *mapping.Mapping
	nm    *mapping.Mapping
	moves []GuestMove
	links []int // link IDs whose endpoints move, ascending
}

// commitMigrateLocked routes and commits a plan migrateEnvsLocked has
// resolved against the live state: on the scratch snapshot, free the
// moving guests and the affected links' bandwidth, re-reserve at the
// destinations and re-route the affected links; then commit the net
// effect to the live ledger, swap the mapping pointers and emit one
// EventMigrate, and return the drop in the Eq. (10) objective. A re-route
// that fails returns its error with the live ledger untouched. The
// A*Prune work is added to ms.route either way. Callers hold s.mu.
//
//hmn:locked mu
func (s *Session) commitMigrateLocked(norm []GuestMove, envs []*migrateEnvState, ms *mapScratch) (float64, error) {
	cur := s.led.ObjectiveStdDev()
	snap := s.scratchLocked()
	for _, es := range envs {
		env := es.old.Env
		nm := es.old.Clone()
		for _, l := range es.links {
			snap.ReleaseBandwidth(es.old.LinkPath[l], env.Link(l).BW)
			nm.LinkPath[l] = graph.Path{}
		}
		for _, mv := range es.moves {
			g := env.Guest(mv.Guest)
			snap.ReleaseGuest(mv.From, g.Proc, g.Mem, g.Stor)
			if rerr := snap.ReserveGuest(mv.To, g.Proc, g.Mem, g.Stor); rerr != nil {
				return 0, fmt.Errorf("%w: destination %d rejected guest %d of seq %d: %v",
					ErrMigrateConflict, mv.To, mv.Guest, mv.Seq, rerr)
			}
			nm.GuestHost[mv.Guest] = mv.To
		}
		if rerr := reroute(snap, env, nm.GuestHost, nm.LinkPath, es.links, &s.ar, ms); rerr != nil {
			return 0, fmt.Errorf("core: migrate re-route for seq %d: %w", es.seq, rerr)
		}
		es.nm = nm
	}

	if cerr := s.led.Commit(migrateTxn(s.led, envs)); cerr != nil {
		// Cannot happen — the plan was routed on a copy of the ledger
		// taken under the lock we still hold — but a refusal must not
		// commit silently.
		return 0, fmt.Errorf("%w: %v", ErrMigrateConflict, cerr)
	}
	after := s.led.ObjectiveStdDev()
	info := &MigrateInfo{Moves: norm, Delta: after - cur}
	for _, es := range envs {
		delete(s.active, es.old)
		s.active[es.nm] = activeEntry{seq: es.seq, tag: es.tag}
		info.Envs = append(info.Envs, MigrateEnvInfo{Seq: es.seq, Tag: es.tag, Env: es.old.Env, M: es.nm})
	}
	s.emitLocked(Event{Type: EventMigrate, Migrate: info})
	return cur - after, nil
}

// RebalanceResult reports one Rebalance round.
type RebalanceResult struct {
	// Scored counts the moves the descent scored improving and tried:
	// Moves of them committed, Skipped of them could not be re-routed and
	// left the ledger as it was.
	Scored, Moves, Skipped int
	// ObjectiveBefore and ObjectiveAfter are the Eq. (10) objective as the
	// round's first lock-hold found it and as its last one left it. Gain
	// sums the drop of the round's own commits; the two differ when other
	// operations commit between the round's lock-holds.
	ObjectiveBefore float64
	ObjectiveAfter  float64
	Gain            float64
	// Route counts the A*Prune work of the round's re-routes, skipped
	// moves' included.
	Route graph.SearchStats
	// Seconds is the time the round held the session lock, all its
	// lock-holds together.
	Seconds float64
}

// Rebalance runs one round of the §4.2 descent over every deployed
// environment, against the live residuals: cheapest victim off the most
// loaded host, least loaded destination first, accepted only if Eq. (10)
// drops by more than ImprovementEps — and, when the most loaded host has
// no such move, the next most loaded (ScopeAllHosts). It ends when no
// host has one, or after maxMoves commits (<= 0: unbounded).
//
// The round takes the session lock once per move: rebuild the roster
// from the active set, score the next improving move, re-route its links
// and commit it as a plan of one, unlock. Nothing scored
// under one lock-hold is used under another, so no move can be stale;
// every intermediate state is a committed, Txn-validated ledger; and an
// admission never waits behind more than one move. A scored move whose
// re-route fails is skipped with the ledger untouched — the scan goes on
// to the next destination, then the next donor, within the lock-hold —
// and is not proposed again this round. A closed session's round commits
// nothing.
func (s *Session) Rebalance(maxMoves int) RebalanceResult {
	var res RebalanceResult
	skipped := make(map[skippedMove]bool)
	for first := true; maxMoves <= 0 || res.Moves < maxMoves; first = false {
		if !s.rebalanceStep(&res, skipped, first) {
			break
		}
	}
	return res
}

// skippedMove names a (guest, destination) a round could not route.
type skippedMove struct {
	seq   uint64
	guest virtual.GuestID
	to    graph.NodeID
}

// rebalanceStep is one lock-hold of a Rebalance round; it reports
// whether it committed a move.
func (s *Session) rebalanceStep(res *RebalanceResult, skipped map[skippedMove]bool, first bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	start := time.Now() //hmn:wallclock
	if first {
		res.ObjectiveBefore = s.led.ObjectiveStdDev()
	}
	ms := getMapScratch()
	d := &ms.mig
	d.envs = d.envs[:0]
	//hmn:orderinvariant
	for m, e := range s.active {
		d.envs = append(d.envs, descentEnv{seq: e.seq, v: m.Env, assign: m.GuestHost})
	}
	sort.Slice(d.envs, func(i, j int) bool { return d.envs[i].seq < d.envs[j].seq })
	d.begin(s.led, ScopeAllHosts, nil)
	moved := d.step(func(c candidate) bool {
		// The roster aliases the committed mappings' placements, which are
		// immutable: the move is committed as a replacement mapping, and
		// the next lock-hold rebuilds the roster from it.
		norm := []GuestMove{{Seq: d.envs[c.ref.env].seq, Guest: c.ref.guest, From: c.from, To: c.to}}
		key := skippedMove{seq: norm[0].Seq, guest: c.ref.guest, to: c.to}
		if skipped[key] {
			return false
		}
		res.Scored++
		envs, err := s.migrateEnvsLocked(norm)
		var gain float64
		if err == nil {
			gain, err = s.commitMigrateLocked(norm, envs, ms)
		}
		if err != nil {
			skipped[key] = true
			res.Skipped++
			return false
		}
		res.Moves++
		res.Gain += gain
		return true
	})
	d.end()
	res.Route.Add(ms.route)
	putMapScratch(ms)
	res.ObjectiveAfter = s.led.ObjectiveStdDev()
	res.Seconds += time.Since(start).Seconds() //hmn:wallclock
	return moved
}

// migrateEnvsLocked resolves a normalized plan against the live active
// set: moves group into per-environment states (seq ascending, guests
// ascending — the canonical commit order), and every assumption the plan
// makes is checked. Callers hold s.mu.
//
//hmn:locked mu
func (s *Session) migrateEnvsLocked(norm []GuestMove) ([]*migrateEnvState, error) {
	var envs []*migrateEnvState
	for _, mv := range norm {
		if !s.c.IsHost(mv.To) {
			return nil, fmt.Errorf("%w: node %d is not a host", ErrUnknownTarget, mv.To)
		}
		var es *migrateEnvState
		if n := len(envs); n > 0 && envs[n-1].seq == mv.Seq {
			es = envs[n-1]
		} else {
			old := s.bySeqLocked(mv.Seq)
			if old == nil {
				return nil, fmt.Errorf("%w: seq %d", ErrNotActive, mv.Seq)
			}
			es = &migrateEnvState{seq: mv.Seq, tag: s.active[old].tag, old: old}
			envs = append(envs, es)
		}
		if int(mv.Guest) < 0 || int(mv.Guest) >= len(es.old.GuestHost) {
			return nil, fmt.Errorf("core: migrate plan names guest %d of seq %d, which has %d guests",
				mv.Guest, mv.Seq, len(es.old.GuestHost))
		}
		if es.old.GuestHost[mv.Guest] != mv.From {
			return nil, fmt.Errorf("%w: guest %d of seq %d is on host %d, plan expected %d",
				ErrMigrateConflict, mv.Guest, mv.Seq, es.old.GuestHost[mv.Guest], mv.From)
		}
		es.moves = append(es.moves, mv)
	}
	for _, es := range envs {
		es.links = affectedLinks(es.old.Env, es.moves)
	}
	return envs, nil
}

// affectedLinks returns the IDs of the virtual links with at least one
// moved endpoint, ascending and deduplicated — the canonical link order
// both the live commit and replay iterate.
func affectedLinks(env *virtual.Env, moves []GuestMove) []int {
	var links []int
	for _, mv := range moves {
		links = append(links, env.LinksOf(mv.Guest)...)
	}
	sort.Ints(links)
	out := links[:0]
	for i, l := range links {
		if i == 0 || l != links[i-1] {
			out = append(out, l)
		}
	}
	return out
}

// migrateTxn collapses a migrate plan into its net effect on the ledger:
// each moved guest's demands added at the destination and subtracted at
// the origin, each affected link's bandwidth added along the new path
// and subtracted along the old. Environments are visited seq-ascending,
// guests and links ascending within each — the same canonical order live
// and in replay, so cluster.Ledger.Commit applies bit-identical per-host
// and per-edge aggregates both times.
func migrateTxn(led *cluster.Ledger, envs []*migrateEnvState) *cluster.Txn {
	txn := led.NewTxn()
	for _, es := range envs {
		env := es.old.Env
		for _, mv := range es.moves {
			g := env.Guest(mv.Guest)
			txn.AddGuest(mv.To, g.Proc, g.Mem, g.Stor)
			txn.AddGuest(mv.From, -g.Proc, -g.Mem, -g.Stor)
		}
		for _, l := range es.links {
			bw := env.Link(l).BW
			txn.AddEdges(es.nm.LinkPath[l].Edges, bw)
			txn.AddEdges(es.old.LinkPath[l].Edges, -bw)
		}
	}
	return txn
}

// ReplayMigrateEnv is one environment of a logged migrate record: the
// replacement mapping rebuilt from the log, to be registered under the
// environment's unchanged seq and tag.
type ReplayMigrateEnv struct {
	Seq uint64
	Tag string
	M   *mapping.Mapping
}

// ReplayMigrate re-applies one logged migrate plan: the recorded
// replacement mappings — not a re-run of the descent or the router — are
// committed through the same canonical transaction the live run built,
// so the residual vectors replay bit-for-bit. moves and envs must be in
// the canonical order the event recorded (seq ascending, guests
// ascending); every recorded assumption is verified against the restored
// state and a mismatch returns ErrReplayDiverged.
func (s *Session) ReplayMigrate(moves []GuestMove, envs []ReplayMigrateEnv) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	states := make([]*migrateEnvState, 0, len(envs))
	mi := 0
	for _, re := range envs {
		old := s.bySeqLocked(re.Seq)
		if old == nil {
			return fmt.Errorf("%w: migrate of seq %d, which is not active", ErrReplayDiverged, re.Seq)
		}
		if got := s.active[old].tag; got != re.Tag {
			return fmt.Errorf("%w: migrate of seq %d carries tag %q, log recorded %q", ErrReplayDiverged, re.Seq, got, re.Tag)
		}
		if re.M == nil || len(re.M.GuestHost) != len(old.GuestHost) {
			return fmt.Errorf("%w: migrate of seq %d has a malformed replacement mapping", ErrReplayDiverged, re.Seq)
		}
		es := &migrateEnvState{seq: re.Seq, tag: re.Tag, old: old, nm: re.M}
		for mi < len(moves) && moves[mi].Seq == re.Seq {
			mv := moves[mi]
			if int(mv.Guest) < 0 || int(mv.Guest) >= len(old.GuestHost) {
				return fmt.Errorf("%w: migrate names guest %d of seq %d, which has %d guests",
					ErrReplayDiverged, mv.Guest, mv.Seq, len(old.GuestHost))
			}
			if old.GuestHost[mv.Guest] != mv.From || re.M.GuestHost[mv.Guest] != mv.To {
				return fmt.Errorf("%w: guest %d of seq %d moves %d→%d, log recorded %d→%d",
					ErrReplayDiverged, mv.Guest, mv.Seq, old.GuestHost[mv.Guest], re.M.GuestHost[mv.Guest], mv.From, mv.To)
			}
			es.moves = append(es.moves, mv)
			mi++
		}
		if len(es.moves) == 0 {
			return fmt.Errorf("%w: migrate record names seq %d with no moves", ErrReplayDiverged, re.Seq)
		}
		moved := make(map[virtual.GuestID]bool, len(es.moves))
		for _, mv := range es.moves {
			moved[mv.Guest] = true
		}
		for g := range old.GuestHost {
			if !moved[virtual.GuestID(g)] && re.M.GuestHost[g] != old.GuestHost[g] {
				return fmt.Errorf("%w: migrate of seq %d relocated guest %d without a move record", ErrReplayDiverged, re.Seq, g)
			}
		}
		es.links = affectedLinks(old.Env, es.moves)
		states = append(states, es)
	}
	if mi != len(moves) {
		return fmt.Errorf("%w: migrate record has %d moves outside its environments", ErrReplayDiverged, len(moves)-mi)
	}
	before := s.led.ObjectiveStdDev()
	if err := s.led.Commit(migrateTxn(s.led, states)); err != nil {
		return fmt.Errorf("%w: logged migrate no longer fits: %v", ErrReplayDiverged, err)
	}
	info := &MigrateInfo{Moves: moves, Delta: s.led.ObjectiveStdDev() - before}
	for _, es := range states {
		delete(s.active, es.old)
		s.active[es.nm] = activeEntry{seq: es.seq, tag: es.tag}
		info.Envs = append(info.Envs, MigrateEnvInfo{Seq: es.seq, Tag: es.tag, Env: es.old.Env, M: es.nm})
	}
	s.emitLocked(Event{Type: EventMigrate, Migrate: info})
	return nil
}

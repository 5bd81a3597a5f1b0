package core

import (
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// This file is the session's self-healing layer: FailHostAndRepair and
// FailLinkAndRepair evict the environments a failure touched and re-map
// them against the degraded cluster in deterministic admission order.
// For each environment the engine first tries the cheap path — keep
// every guest placement and re-run only the Networking stage for the
// paths the failure broke — and falls back to a full re-map (Hosting,
// Migration, Networking from scratch) when the placements themselves are
// no longer tenable. Environments the degraded cluster cannot hold stay
// evicted and are reported as unrecoverable.
//
// Every attempt runs on the session's scratch snapshot and commits
// atomically, exactly like Map — the full re-map IS Map's attempt,
// mapLocked — so a failed repair leaves the session untouched.

// RepairOutcome classifies what the repair engine did with one evicted
// environment.
type RepairOutcome int

const (
	// RepairRepaired means every guest kept its host; only the paths
	// the failure broke were re-routed around it.
	RepairRepaired RepairOutcome = iota
	// RepairReplaced means re-routing was impossible and a full re-map
	// placed the environment afresh on the degraded cluster.
	RepairReplaced
	// RepairUnrecoverable means the degraded cluster cannot hold the
	// environment at all; it stays evicted and Err says why.
	RepairUnrecoverable
)

// String returns the operator-facing name of the outcome.
func (o RepairOutcome) String() string {
	switch o {
	case RepairRepaired:
		return "repaired"
	case RepairReplaced:
		return "replaced"
	default:
		return "unrecoverable"
	}
}

// RepairResult reports the fate of one evicted environment.
type RepairResult struct {
	// Env is the environment the repair concerned.
	Env *virtual.Env
	// Tag is the tag the environment was admitted under and, unless
	// unrecoverable, stays active under.
	Tag string
	// Old is the evicted mapping (no longer active).
	Old *mapping.Mapping
	// New is the active replacement mapping; nil when unrecoverable.
	New *mapping.Mapping
	// Outcome classifies the repair.
	Outcome RepairOutcome
	// Err is the mapper's error for unrecoverable environments.
	Err error
	// Route counts the repair's A*Prune work — the reroute attempt's and,
	// when that failed, the full re-map's as well — in the terms
	// AdmitStats.Route counts an admission's.
	Route graph.SearchStats
	// Stages is the full re-map's stage times, as AdmitStats.Stages; zero
	// when re-routing sufficed.
	Stages StageStats
}

// FailHostAndRepair fails the host and repairs the evicted environments
// in one atomic step: no concurrent Map can consume the resources the
// eviction freed before the repair engine has first claim on them.
func (s *Session) FailHostAndRepair(node graph.NodeID) ([]RepairResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	evicted, entries, err := s.failHostLocked(node)
	if err != nil {
		return nil, err
	}
	results := s.repairLocked(evicted, entries)
	s.emitLocked(Event{Type: EventFail, Fail: &FailInfo{
		Kind: "host", Target: int(node), Evicted: seqsOf(entries), Repairs: s.repairInfosLocked(entries, results),
	}})
	return results, nil
}

// FailLinkAndRepair cuts the link and repairs the evicted environments
// in one atomic step.
func (s *Session) FailLinkAndRepair(edgeID int) ([]RepairResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	evicted, entries, err := s.failLinkLocked(edgeID)
	if err != nil {
		return nil, err
	}
	results := s.repairLocked(evicted, entries)
	s.emitLocked(Event{Type: EventFail, Fail: &FailInfo{
		Kind: "link", Target: edgeID, Evicted: seqsOf(entries), Repairs: s.repairInfosLocked(entries, results),
	}})
	return results, nil
}

// repairInfosLocked pairs each eviction with its repair outcome for the
// commit event. Callers hold s.mu.
//
//hmn:locked mu
func (s *Session) repairInfosLocked(entries []activeEntry, results []RepairResult) []RepairInfo {
	infos := make([]RepairInfo, len(results))
	for i, res := range results {
		infos[i] = RepairInfo{OldSeq: entries[i].seq, Outcome: res.Outcome}
		if res.New != nil {
			infos[i].NewSeq = s.active[res.New].seq
			infos[i].Tag = entries[i].tag
			infos[i].M = res.New
		}
	}
	return infos
}

// repairLocked repairs the evicted mappings in order. evicted holds the
// admission entries the mappings had before eviction, captured by the
// fail paths; their tags carry over to the replacement mappings so a
// recovered daemon keeps its environment IDs. Callers hold s.mu.
//
//hmn:locked mu
func (s *Session) repairLocked(ms []*mapping.Mapping, evicted []activeEntry) []RepairResult {
	results := make([]RepairResult, 0, len(ms))
	for i, old := range ms {
		results = append(results, s.repairOne(old, evicted[i].tag))
	}
	return results
}

// repairOne attempts the cheap path first, then the full re-map.
// Callers hold s.mu.
//
//hmn:locked mu
func (s *Session) repairOne(old *mapping.Mapping, tag string) RepairResult {
	res := RepairResult{Env: old.Env, Tag: tag, Old: old}
	if nm, ok := s.tryReroute(old, tag, &res.Route); ok {
		res.New, res.Outcome = nm, RepairRepaired
		return res
	}
	var st AdmitStats
	nm, _, err := s.mapLocked(old.Env, tag, &st)
	res.Route.Add(st.Route)
	res.Stages = st.Stages
	if err != nil {
		res.Outcome, res.Err = RepairUnrecoverable, err
		return res
	}
	res.New, res.Outcome = nm, RepairReplaced
	return res
}

// tryReroute rebuilds old with every guest placement kept: it reserves
// the guests on their original hosts, re-reserves every path the failure
// left intact, and re-runs the Networking stage for only the broken
// ones. It fails — without touching the session — when some original
// host no longer accepts its guests (quarantined, or its resources went
// to another tenant) or some broken path cannot be routed around the
// failure. The A*Prune work it did, either way, is added to route.
// Callers hold s.mu.
//
//hmn:locked mu
func (s *Session) tryReroute(old *mapping.Mapping, tag string, route *graph.SearchStats) (*mapping.Mapping, bool) {
	env := old.Env
	attempt := s.scratchLocked()
	nm := mapping.New(s.led.Cluster(), env)
	copy(nm.GuestHost, old.GuestHost)

	for g, node := range nm.GuestHost {
		guest := env.Guest(virtual.GuestID(g))
		if err := attempt.ReserveGuest(node, guest.Proc, guest.Mem, guest.Stor); err != nil {
			return nil, false
		}
	}
	var broken []int
	for l, p := range old.LinkPath {
		if err := attempt.ReserveBandwidth(p, env.Link(l).BW); err != nil {
			// The path crosses the cut edge (or its bandwidth went to
			// another tenant meanwhile): route it afresh below.
			broken = append(broken, l)
			continue
		}
		nm.LinkPath[l] = p.Clone()
	}
	if len(broken) > 0 {
		ms := getMapScratch()
		err := reroute(attempt, env, nm.GuestHost, nm.LinkPath, broken, &s.ar, ms)
		route.Add(ms.route)
		putMapScratch(ms)
		if err != nil {
			return nil, false
		}
	}
	if _, err := s.commitTxnLocked(env, nm, tag); err != nil {
		return nil, false
	}
	return nm, true
}

package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/wal"
)

// This file is the federation's durability layer beyond the WAL itself:
// the tenant registry's meta file and Recover — the crash-restart path
// that rebuilds every shard from the data directory's one snapshot plus
// log suffix and the registry from the fragment tags the shards' active
// sets carry.

// metaName is the tenant registry file inside the data directory.
const metaName = "federation.json"

// fedMeta is the durable tenant registry. It changes only on tenant
// open and close — environment membership is recovered from the
// fragment tags the shards' sessions carry, never duplicated here.
type fedMeta struct {
	Shards      int      `json:"shards"`
	GatewayBW   float64  `json:"gateway_bw"`
	Mapper      string   `json:"mapper"`
	Proc        float64  `json:"proc"`
	Mem         int64    `json:"mem"`
	Stor        float64  `json:"stor"`
	NextSession int      `json:"next_session"`
	Tenants     []string `json:"tenants"`
}

// HasState reports whether dir already holds federation state — the
// registry file New writes before serving. Front ends branch on it to
// decide between a fresh New and a Recover.
func HasState(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, metaName))
	return err == nil
}

// writeMetaLocked lands the tenant registry atomically — a crash leaves
// the old registry or the new one, never a torn file. Caller holds
// f.mu; a federation without a data directory is a no-op.
//
//hmn:locked mu
func (f *Federation) writeMetaLocked() error {
	if f.cfg.DataDir == "" {
		return nil
	}
	meta := fedMeta{
		Shards:      len(f.shards),
		GatewayBW:   f.cfg.GatewayBW,
		Mapper:      f.cfg.Mapper,
		Proc:        f.cfg.Overhead.Proc,
		Mem:         f.cfg.Overhead.Mem,
		Stor:        f.cfg.Overhead.Stor,
		NextSession: f.nextSID,
		Tenants:     sortedTenantIDsLocked(f.tenants),
	}
	buf, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encode federation meta: %w", err)
	}
	return wal.PublishFile(f.cfg.DataDir, metaName, buf)
}

// readMeta loads the registry file.
func readMeta(dataDir string) (*fedMeta, error) {
	buf, err := os.ReadFile(filepath.Join(dataDir, metaName))
	if err != nil {
		return nil, err
	}
	var meta fedMeta
	if err := json.Unmarshal(buf, &meta); err != nil {
		return nil, fmt.Errorf("shard: decode federation meta: %w", err)
	}
	if meta.Shards <= 0 {
		return nil, fmt.Errorf("shard: federation meta names %d shards", meta.Shards)
	}
	return &meta, nil
}

// pendingEnv accumulates one environment's fragments during recovery
// until the set is known complete or orphaned.
type pendingEnv struct {
	frags map[int]frag // by fragment ordinal (1-based)
	fragN int
	cutBW float64
}

// Recover rebuilds a federation from cfg.DataDir: the tenant registry
// from the meta file, every shard from the one WAL's snapshot plus log
// suffix (Replay), and every deployed environment from the fragment
// tags the recovered active sets carry. Fragment sets a crash left
// incomplete — a split admission that never finished committing — are
// released shard-side (logged, so the cleanup is itself durable),
// preserving the all-or-nothing contract across restarts. Shard count,
// mapper and overhead come from the meta file; cfg's values for those
// fields are ignored.
func Recover(cfg Config) (*Federation, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("shard: recover needs a data directory")
	}
	meta, err := readMeta(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	if err := checkLog(cfg.DataDir); err != nil {
		return nil, err
	}
	cfg.Mapper = meta.Mapper
	cfg.Overhead.Proc, cfg.Overhead.Mem, cfg.Overhead.Stor = meta.Proc, meta.Mem, meta.Stor
	cfg.GatewayBW = meta.GatewayBW

	f := &Federation{cfg: cfg, tenants: make(map[string]*tenant)}
	if cfg.GatewayBW > 0 {
		f.gw = NewGateway(cfg.GatewayBW)
	}
	f.nextSID = meta.NextSession
	for _, sid := range meta.Tenants {
		f.tenants[sid] = &tenant{id: sid, envs: make(map[string]*envRec)}
		if n, ok := wal.SessionOrdinal(sid); ok && n > f.nextSID {
			f.nextSID = n
		}
	}

	w, found, _, err := Replay(cfg, cfg.DataDir)
	if err != nil {
		return nil, err
	}
	f.w = w
	// The log must recover to exactly the sessions shard-0 … shard-N-1.
	for k := 0; k < meta.Shards && len(found) == meta.Shards; k++ {
		i := slices.IndexFunc(found, func(sh *Shard) bool { return sh.sid == shardSID(k) })
		if i < 0 {
			break
		}
		f.add(found[i])
		f.nextEnv = max(f.nextEnv, found[i].EnvHigh)
	}
	if len(f.shards) != meta.Shards {
		f.abortBuild()
		return nil, fmt.Errorf("shard: %s recovers %d sessions, want exactly shard-0 … %s", cfg.DataDir, len(found), shardSID(meta.Shards-1))
	}
	released, err := f.rebuildRegistry()
	if err == nil && released {
		// The orphan releases go to the log; make them durable.
		err = f.barrier()
	}
	if err != nil {
		f.abortBuild()
		return nil, err
	}
	f.start()
	return f, nil
}

// checkLog refuses a data directory whose tenant registry has no log
// beside it. A federation written before its shards shared one log is
// such a directory, with a WAL in each shard-k subdirectory instead:
// recovered as it stands it would start every shard empty over them.
func checkLog(dir string) error {
	ok, err := wal.HasState(dir)
	if err != nil || ok {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, shardSID(0))); err == nil {
		return fmt.Errorf("shard: %s is a federation in the per-shard layout (a WAL in each shard-k directory, none at the root), which this build does not recover: serve it with the hmnd that wrote it, or start this one on a fresh data directory", dir)
	}
	return fmt.Errorf("shard: %s holds %s but no log", dir, metaName)
}

// rebuildRegistry reconstructs every tenant's environment records from
// the fragment tags in the recovered shards' active sets, releasing
// the fragments of any set the crash left incomplete and re-charging
// the gateway for the complete splits. released reports whether it
// released any fragment: the log holds records to make durable.
func (f *Federation) rebuildRegistry() (released bool, err error) {
	// Recovery is single-threaded — the federation is unpublished — but
	// the registry fields carry the lock discipline regardless.
	f.mu.Lock()
	defer f.mu.Unlock()
	type envKey struct{ sid, eid string }
	pending := make(map[envKey]*pendingEnv)
	var order []envKey
	for k, sh := range f.shards {
		for _, a := range sh.sess.Export().Active {
			sid, eid, fragI, fragN, cut, ok := parseTag(a.Tag)
			if !ok {
				return false, fmt.Errorf("shard: shard %d active mapping carries unparseable tag %q", k, a.Tag)
			}
			if f.tenants[sid] == nil {
				return false, fmt.Errorf("shard: shard %d fragment %q names tenant %s absent from the registry", k, a.Tag, sid)
			}
			key := envKey{sid: sid, eid: eid}
			p := pending[key]
			if p == nil {
				p = &pendingEnv{frags: make(map[int]frag), fragN: fragN, cutBW: cut}
				pending[key] = p
				order = append(order, key)
			}
			if _, dup := p.frags[fragI]; dup || p.fragN != fragN {
				return false, fmt.Errorf("shard: environment %s/%s has conflicting fragment sets", sid, eid)
			}
			p.frags[fragI] = frag{shard: k, tag: a.Tag, proc: a.M.Env.TotalProc()}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].sid != order[j].sid {
			a, aok := wal.SessionOrdinal(order[i].sid)
			b, bok := wal.SessionOrdinal(order[j].sid)
			if aok && bok && a != b {
				return a < b
			}
			return order[i].sid < order[j].sid
		}
		a, _ := wal.EnvOrdinal(order[i].eid)
		b, _ := wal.EnvOrdinal(order[j].eid)
		return a < b
	})

	for _, key := range order {
		p := pending[key]
		if len(p.frags) < p.fragN {
			// The crash interrupted a split admission mid-commit: the
			// router never acknowledged it, so the committed fragments are
			// orphans. Release them through their sessions — the commit
			// hook logs each release, and Recover's barrier makes the
			// cleanup itself durable.
			f.cfg.logf("shard: releasing %d orphan fragments of %s/%s (split never completed)", len(p.frags), key.sid, key.eid)
			for _, i := range sortedFragOrdinals(p.frags) {
				fr := p.frags[i]
				if err := f.shards[fr.shard].sess.ReleaseTagged(fr.tag); err != nil {
					return false, fmt.Errorf("shard: release orphan fragment %s: %w", fr.tag, err)
				}
				released = true
			}
			continue
		}
		if p.fragN > 1 {
			if f.gw == nil {
				return false, fmt.Errorf("shard: environment %s/%s is split but the recovered gateway budget is zero", key.sid, key.eid)
			}
			if err := f.gw.Reserve(p.cutBW); err != nil {
				return false, fmt.Errorf("shard: environment %s/%s cut (%g Mbps): %w", key.sid, key.eid, p.cutBW, err)
			}
		}
		rec := &envRec{cutBW: p.cutBW}
		for _, i := range sortedFragOrdinals(p.frags) {
			rec.frags = append(rec.frags, p.frags[i])
		}
		owner := f.tenants[key.sid]
		owner.envs[key.eid] = rec
	}
	return released, nil
}

// sortedFragOrdinals lists a fragment map's keys ascending.
func sortedFragOrdinals(frags map[int]frag) []int {
	out := make([]int, 0, len(frags))
	//hmn:orderinvariant
	for i := range frags {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/wal"
)

// span is one timed interval of the traced run. Spans of one operation
// share Op; Parent is the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// It is off during prefill and warm-up.
type tracer struct {
	on    bool
	t0    time.Time
	op    int32
	spans []span
}

func (tr *tracer) begin(name string, parent int32) int32 {
	if !tr.on {
		return -1
	}
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{Name: name, ID: id, Parent: parent, Op: tr.op, Start: int64(time.Since(tr.t0))})
	return id
}

func (tr *tracer) end(id int32) {
	if id >= 0 {
		tr.spans[id].End = int64(time.Since(tr.t0))
	}
}

// selfTimes returns, per span name, every span's duration minus the
// part its children cover, in seconds.
func (tr *tracer) selfTimes() map[string][]float64 {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range tr.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e9)
	}
	return out
}

// durations returns every span's full duration per name, in seconds.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tr.spans); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

// directTarget re-enacts the daemon's handlers from their public parts,
// without HTTP, the admission queue or the worker pool, recording a
// span at each layer boundary:
//
//	op.admit → spec.decode → core.map (child wal.append, from the
//	commit hook) → wal.barrier → spec.encode
//
// and likewise op.release, op.fail and op.restore; on the federation the
// root's child is shard.admit / shard.release, because the shards own
// their sessions and logs. It must reproduce the HTTP pass's placement
// digest, which proves it did the same work.
type directTarget struct {
	tr *tracer
	g  *generated

	// classic daemon parts
	sess    *core.Session
	w       *wal.WAL
	maps    map[string]*mapping.Mapping
	ids     map[*mapping.Mapping]string
	nextEnv int
	// hookParent is the span the commit hook's wal.append belongs to.
	hookParent int32

	// federation parts
	fed  *shard.Federation
	sids []string

	requestBytes, responseBytes int64
	replies                     int
	commitSeconds               float64
	commits                     int
	gatewayPeak                 float64
}

func newDirectTarget(g *generated, dataDir string, tr *tracer) (*directTarget, error) {
	t := &directTarget{tr: tr, g: g, maps: map[string]*mapping.Mapping{}, ids: map[*mapping.Mapping]string{}}
	if g.def.fed {
		fed, err := shard.New(g.clusters, shard.Config{
			GatewayBW: g.def.gatewayBW, DataDir: dataDir,
		})
		if err != nil {
			return nil, err
		}
		t.fed = fed
		for i := 0; i < g.def.tenants; i++ {
			sid, err := fed.OpenTenant()
			if err != nil {
				_ = fed.Close()
				return nil, err
			}
			t.sids = append(t.sids, sid)
		}
		return t, nil
	}
	mapper, err := core.MapperByName("HMN", cluster.VMMOverhead{})
	if err != nil {
		return nil, err
	}
	if t.sess, err = core.NewSession(g.clusters[0], cluster.VMMOverhead{}, mapper); err != nil {
		return nil, err
	}
	if t.w, _, err = wal.Open(dataDir, wal.Hooks{}); err != nil {
		return nil, err
	}
	if err := t.w.Append(&wal.Record{Kind: wal.KindOpen, SID: "s1", Open: &wal.OpenRec{Cluster: g.specs[0], Mapper: "HMN"}}); err != nil {
		return nil, err
	}
	t.sess.SetCommitHook(func(ev core.Event) {
		s := tr.begin("wal.append", t.hookParent)
		err := t.w.Append(wal.RecordFromEvent("s1", cluster.VMMOverhead{}, ev))
		tr.end(s)
		if err != nil {
			// The fault is sticky: the next barrier reports it.
			fmt.Fprintln(os.Stderr, "hmnperf: wal append:", err)
		}
	})
	return t, t.w.Barrier()
}

func (t *directTarget) close() error {
	if t.fed != nil {
		return t.fed.Close()
	}
	return t.w.Close()
}

// root opens an operation's root span.
func (t *directTarget) root(name string) int32 {
	t.tr.op++
	return t.tr.begin(name, -1)
}

// finish closes the root span and returns the operation's service time.
func (t *directTarget) finish(root int32, start time.Time) time.Duration {
	t.tr.end(root)
	return time.Since(start)
}

func (t *directTarget) barrier(root int32) error {
	s := t.tr.begin("wal.barrier", root)
	err := t.w.Barrier()
	t.tr.end(s)
	return err
}

// encode renders a reply the way the daemon's writeJSON does.
func (t *directTarget) encode(root int32, build func() interface{}) ([]byte, error) {
	s := t.tr.begin("spec.encode", root)
	var buf bytes.Buffer
	err := spec.WriteJSON(&buf, build())
	t.tr.end(s)
	t.responseBytes += int64(buf.Len())
	t.replies++
	return buf.Bytes(), err
}

// isReject reports the errors the daemon answers with 409.
func isReject(err error) bool {
	return errors.Is(err, core.ErrNoHostFits) || errors.Is(err, core.ErrNoPath) ||
		errors.Is(err, shard.ErrNoShardFits) || errors.Is(err, shard.ErrGatewayExhausted)
}

func (t *directTarget) admit(tenant int, body []byte) ([]byte, bool, time.Duration, error) {
	start := time.Now()
	root := t.root("op.admit")
	t.requestBytes += int64(len(body))

	s := t.tr.begin("spec.decode", root)
	var req server.MapEnvRequest
	err := spec.DecodeStrict(bytes.NewReader(body), &req)
	env, envErr := req.Env.ToEnv()
	t.tr.end(s)
	if err != nil || envErr != nil {
		return nil, false, 0, fmt.Errorf("decode request: %v %v", err, envErr)
	}

	if t.fed != nil {
		s = t.tr.begin("shard.admit", root)
		eid, pl, err := t.fed.Admit(t.sids[tenant], env)
		t.tr.end(s)
		if gw := t.fed.Stats().GatewayInUse; gw > t.gatewayPeak {
			t.gatewayPeak = gw
		}
		if err != nil {
			d := t.finish(root, start)
			if isReject(err) {
				return nil, true, d, nil
			}
			return nil, false, 0, err
		}
		raw, err := t.encode(root, func() interface{} {
			resp := server.FedMapEnvResponse{ID: eid, CutBW: pl.CutBW, Split: pl.Split, Fallback: pl.Fallback}
			for _, fr := range pl.Fragments {
				rep := server.FragmentReport{Shard: fr.Shard, Mapping: spec.FromMapping(fr.M, cluster.VMMOverhead{})}
				for _, g := range fr.Guests {
					rep.Guests = append(rep.Guests, int(g))
				}
				resp.Fragments = append(resp.Fragments, rep)
			}
			return resp
		})
		return raw, false, t.finish(root, start), err
	}

	t.nextEnv++
	eid := fmt.Sprintf("e%d", t.nextEnv)
	s = t.tr.begin("core.map", root)
	t.hookParent = s
	m, st, err := t.sess.MapTagged(env, eid)
	t.tr.end(s)
	t.commitSeconds += st.CommitSeconds
	t.commits++
	if err != nil {
		d := t.finish(root, start)
		if isReject(err) {
			return nil, true, d, nil
		}
		return nil, false, 0, err
	}
	t.maps[eid], t.ids[m] = m, eid
	if err := t.barrier(root); err != nil {
		return nil, false, 0, err
	}
	raw, err := t.encode(root, func() interface{} {
		return server.MapEnvResponse{ID: eid, Mapping: spec.FromMapping(m, cluster.VMMOverhead{})}
	})
	return raw, false, t.finish(root, start), err
}

func (t *directTarget) release(tenant int, eid string) (time.Duration, error) {
	start := time.Now()
	root := t.root("op.release")
	if t.fed != nil {
		s := t.tr.begin("shard.release", root)
		err := t.fed.Release(t.sids[tenant], eid)
		t.tr.end(s)
		return t.finish(root, start), err
	}
	m := t.maps[eid]
	delete(t.maps, eid)
	delete(t.ids, m)
	s := t.tr.begin("core.release", root)
	t.hookParent = s
	err := t.sess.Release(m)
	t.tr.end(s)
	if err == nil {
		err = t.barrier(root)
	}
	return t.finish(root, start), err
}

func (t *directTarget) fail(kind string, id int) ([]byte, time.Duration, error) {
	start := time.Now()
	root := t.root("op.fail")
	s := t.tr.begin("core.repair", root)
	t.hookParent = s
	var results []core.RepairResult
	var err error
	if kind == "host" {
		results, err = t.sess.FailHostAndRepair(graph.NodeID(id))
	} else {
		results, err = t.sess.FailLinkAndRepair(id)
	}
	t.tr.end(s)
	if err == nil {
		err = t.barrier(root)
	}
	if err != nil {
		return nil, 0, err
	}
	raw, err := t.encode(root, func() interface{} {
		resp := server.FailTargetResponse{Kind: kind, Target: id, Evicted: len(results)}
		for _, res := range results {
			eid := t.ids[res.Old]
			delete(t.ids, res.Old)
			rep := server.RepairReport{Env: eid, Outcome: res.Outcome.String()}
			if res.New == nil {
				delete(t.maps, eid)
			} else {
				t.maps[eid], t.ids[res.New] = res.New, eid
				ms := spec.FromMapping(res.New, cluster.VMMOverhead{})
				rep.Mapping = &ms
			}
			resp.Results = append(resp.Results, rep)
		}
		return resp
	})
	return raw, t.finish(root, start), err
}

func (t *directTarget) restore(kind string, id int) (time.Duration, error) {
	start := time.Now()
	root := t.root("op.restore")
	s := t.tr.begin("core.restore", root)
	t.hookParent = s
	var err error
	if kind == "host" {
		err = t.sess.RestoreHost(graph.NodeID(id))
	} else {
		err = t.sess.RestoreLink(id)
	}
	t.tr.end(s)
	if err == nil {
		err = t.barrier(root)
	}
	return t.finish(root, start), err
}

func (t *directTarget) sessionOf(k int) *core.Session {
	if t.fed == nil {
		return t.sess
	}
	sh, err := t.fed.Shard(k)
	if err != nil {
		panic(err) // k ranges over the shards the benchmark built
	}
	return sh.Session()
}

func (t *directTarget) residuals(k int) ([]byte, error) {
	sess := t.sessionOf(k)
	res := sess.ResidualProc()
	var buf bytes.Buffer
	err := spec.WriteJSON(&buf, server.ResidualsResponse{
		ResidualProcMIPS: res, StdDev: mapping.Objective(res), ActiveEnvs: sess.Active(),
	})
	return buf.Bytes(), err
}

// admissionStats totals the sessions' monotonic counters.
func (t *directTarget) admissionStats() core.SessionStats {
	var sum core.SessionStats
	for k := range t.g.clusters {
		st := t.sessionOf(k).AdmissionStats()
		sum.Conflicts += st.Conflicts
		sum.Fallbacks += st.Fallbacks
		sum.ARCacheHits += st.ARCacheHits
		sum.ARCacheMisses += st.ARCacheMisses
	}
	return sum
}

package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/virtual"
)

// segments is the number of equal-op slices of the window; ops_per_s is
// the median of their rates, so one machine stall moves one slice, not
// the metric.
const segments = 10

// fragment is one placed piece of a live environment: the whole
// environment on the classic daemon, one shard's share on the
// federation.
type fragment struct {
	shard   int
	guests  []int // original guest IDs, nil = all
	mapping spec.MappingSpec
}

type liveEnv struct {
	tenant int
	id     string
	env    *virtual.Env
	frags  []fragment
}

// recorder collects what the measured window reports.
type recorder struct {
	total    int // operations the window will run
	ops      int
	admitMS  []float64 // accepted admissions only
	segOps   [segments]int
	segBusy  [segments]time.Duration
	busy     map[string]time.Duration // per operation kind
	kindOps  map[string]int
	admits   int // admissions attempted
	rejected int
	objSum   float64
	repairs  map[string]int // repair outcomes
	evicted  int
	splits   int
	fallback int
}

func newRecorder(total int) *recorder {
	return &recorder{total: total, busy: map[string]time.Duration{}, kindOps: map[string]int{}, repairs: map[string]int{}}
}

func (r *recorder) observe(kind string, d time.Duration) {
	seg := r.ops * segments / r.total
	r.segOps[seg]++
	r.segBusy[seg] += d
	r.busy[kind] += d
	r.kindOps[kind]++
	r.ops++
}

// opsPerSecond is the median over the window's segments of operations
// per second of service time. The client's own work between requests
// (decoding, the shadow ledger, validation) is not service time.
func (r *recorder) opsPerSecond() float64 {
	var rates []float64
	for i := range r.segOps {
		if r.segBusy[i] > 0 {
			rates = append(rates, float64(r.segOps[i])/r.segBusy[i].Seconds())
		}
	}
	return stats.Percentile(rates, 50)
}

func (r *recorder) busyTotal() time.Duration {
	var t time.Duration
	for _, d := range r.busy {
		t += d
	}
	return t
}

// pass plays a workload's operation sequence against one target and
// keeps the oracle state: the shadow ledger of residual CPU, the FIFO
// of live environments and the placement digest. The sequence is a pure
// function of the generated workload and the daemon's answers, so two
// targets that do the same work produce the same digest.
type pass struct {
	g      *generated
	t      target
	shadow [][]float64 // [shard][host index] residual CPU
	pool   []float64   // scratch: every shard's row, for the objective
	live   []*liveEnv  // oldest first
	next   int         // admissions issued so far
	pairs  int         // admit/release pairs since the last failure
	// failed is the target currently failed and awaiting restore.
	failedKind string
	failedID   int
	failLink   bool // alternates host and link failures
	digest     hash.Hash64

	rec *recorder // nil outside the measured window
	// speed takes a slice of the reference kernel after every sliceEvery
	// operations, while the client is idle.
	speed      *speedometer
	sliceEvery int

	// Output checks. failures counts operations whose answer was wrong;
	// firstErr keeps the first for the report.
	failures   int
	firstErr   error
	validated  int
	validateNS time.Duration
}

func newPass(g *generated, t target) *pass {
	p := &pass{g: g, t: t, digest: fnv.New64a()}
	for _, c := range g.clusters {
		row := make([]float64, c.NumHosts())
		for i, h := range c.Hosts() {
			row[i] = h.Proc
		}
		p.shadow = append(p.shadow, row)
	}
	return p
}

func (p *pass) fault(err error) {
	p.failures++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// run plays n operations. A transport error or a 5xx leaves the
// daemon's state unknown and aborts; a wrong answer is counted and the
// run goes on.
func (p *pass) run(n int) error {
	for i := 0; i < n; i++ {
		var err error
		switch {
		case p.failedKind != "":
			err = p.restore()
		case p.g.def.failEvery > 0 && p.pairs >= p.g.def.failEvery:
			err = p.fail()
		case len(p.live) > p.g.def.live:
			err = p.release()
		default:
			err = p.admit()
		}
		if err != nil {
			p.fault(err)
			return err
		}
		if p.rec != nil {
			p.rec.objSum += p.objective()
		}
		if p.sliceEvery > 0 && (i+1)%p.sliceEvery == 0 {
			p.speed.slice()
		}
	}
	return nil
}

// objective is Eq. (10) over every host of the pool.
func (p *pass) objective() float64 {
	if len(p.shadow) == 1 {
		return stats.PopStdDev(p.shadow[0])
	}
	p.pool = p.pool[:0]
	for _, row := range p.shadow {
		p.pool = append(p.pool, row...)
	}
	return stats.PopStdDev(p.pool)
}

// apply adds (sign -1) or returns (sign +1) a fragment's CPU on the
// shadow ledger.
func (p *pass) apply(le *liveEnv, f fragment, sign float64) {
	c := p.g.clusters[f.shard]
	for i, node := range f.mapping.GuestHost {
		g := i
		if f.guests != nil {
			g = f.guests[i]
		}
		p.shadow[f.shard][c.HostIdx(graph.NodeID(node))] += sign * le.env.Guest(virtual.GuestID(g)).Proc
	}
}

func (p *pass) hashFragment(f fragment) {
	fmt.Fprintf(p.digest, "|s%d", f.shard)
	for _, node := range f.mapping.GuestHost {
		fmt.Fprintf(p.digest, " %d", node)
	}
}

// admitWire is the union of the classic and the federation admit
// replies.
type admitWire struct {
	ID        string                  `json:"id"`
	Mapping   *spec.MappingSpec       `json:"mapping"`
	Fragments []server.FragmentReport `json:"fragments"`
	Split     bool                    `json:"split"`
	Fallback  bool                    `json:"fallback"`
}

func (p *pass) admit() error {
	idx := p.next
	pe := p.g.pool[idx%len(p.g.pool)]
	tenant := idx % p.g.def.tenants
	p.next++
	raw, rejected, d, err := p.t.admit(tenant, pe.body)
	if err != nil {
		return err
	}
	if p.rec != nil {
		p.rec.observe("admit", d)
		p.rec.admits++
	}
	if rejected {
		if p.rec != nil {
			p.rec.rejected++
		}
		fmt.Fprintf(p.digest, "a%d:reject;", idx)
		return nil
	}
	var w admitWire
	if err := json.Unmarshal(raw, &w); err != nil {
		return fmt.Errorf("admit %d: decode reply: %w", idx, err)
	}
	le := &liveEnv{tenant: tenant, id: w.ID, env: pe.env}
	if w.Mapping != nil {
		le.frags = []fragment{{mapping: *w.Mapping}}
	}
	for _, fr := range w.Fragments {
		le.frags = append(le.frags, fragment{shard: fr.Shard, guests: fr.Guests, mapping: fr.Mapping})
	}
	if len(le.frags) == 0 {
		return fmt.Errorf("admit %d: reply carries no mapping", idx)
	}
	fmt.Fprintf(p.digest, "a%d:%s", idx, le.id)
	for _, f := range le.frags {
		p.apply(le, f, -1)
		p.hashFragment(f)
	}
	p.digest.Write([]byte{';'})
	if p.rec != nil {
		p.rec.admitMS = append(p.rec.admitMS, 1e3*d.Seconds())
		if w.Split {
			p.rec.splits++
		}
		if w.Fallback {
			p.rec.fallback++
		}
	}
	if idx%p.g.def.sampleEvery == 0 {
		for _, f := range le.frags {
			p.validate(le, f)
		}
	}
	p.live = append(p.live, le)
	return nil
}

func (p *pass) release() error {
	le := p.live[0]
	p.live = p.live[1:]
	d, err := p.t.release(le.tenant, le.id)
	if err != nil {
		return err
	}
	if p.rec != nil {
		p.rec.observe("release", d)
	}
	for _, f := range le.frags {
		p.apply(le, f, +1)
	}
	fmt.Fprintf(p.digest, "r%s;", le.id)
	p.pairs++
	return nil
}

// pickTarget chooses what fails next from the shadow state alone: the
// host carrying the most live guests, or the physical link carrying the
// most live virtual links; ties go to the lowest ID.
func (p *pass) pickTarget(link bool) int {
	c := p.g.clusters[0]
	load := make([]int, c.Net().NumNodes())
	if link {
		load = make([]int, c.Net().NumEdges())
	}
	for _, le := range p.live {
		for _, f := range le.frags {
			if !link {
				for _, node := range f.mapping.GuestHost {
					load[node]++
				}
				continue
			}
			for _, edges := range f.mapping.LinkEdges {
				for _, e := range edges {
					load[e]++
				}
			}
		}
	}
	best := 0
	for id, n := range load {
		if n > load[best] {
			best = id
		}
	}
	return best
}

func (p *pass) fail() error {
	kind := "host"
	if p.failLink {
		kind = "link"
	}
	id := p.pickTarget(p.failLink)
	p.failLink = !p.failLink
	p.pairs = 0
	raw, d, err := p.t.fail(kind, id)
	if err != nil {
		return err
	}
	if p.rec != nil {
		p.rec.observe("fail", d)
	}
	p.failedKind, p.failedID = kind, id
	var resp server.FailTargetResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("fail %s %d: decode reply: %w", kind, id, err)
	}
	fmt.Fprintf(p.digest, "f%s%d", kind, id)
	for _, rep := range resp.Results {
		at := -1
		for i, le := range p.live {
			if le.id == rep.Env {
				at = i
			}
		}
		if at < 0 {
			return fmt.Errorf("fail %s %d: repair names unknown environment %q", kind, id, rep.Env)
		}
		le := p.live[at]
		p.apply(le, le.frags[0], +1)
		fmt.Fprintf(p.digest, "|%s=%s", rep.Env, rep.Outcome)
		if p.rec != nil {
			p.rec.repairs[rep.Outcome]++
			p.rec.evicted++
		}
		if rep.Mapping == nil {
			p.live = append(p.live[:at], p.live[at+1:]...)
			continue
		}
		le.frags[0].mapping = *rep.Mapping
		p.apply(le, le.frags[0], -1)
		p.hashFragment(le.frags[0])
		p.validate(le, le.frags[0])
	}
	p.digest.Write([]byte{';'})
	return nil
}

func (p *pass) restore() error {
	d, err := p.t.restore(p.failedKind, p.failedID)
	if err != nil {
		return err
	}
	if p.rec != nil {
		p.rec.observe("restore", d)
	}
	fmt.Fprintf(p.digest, "u%s%d;", p.failedKind, p.failedID)
	p.failedKind = ""
	return nil
}

// subEnv rebuilds the sub-environment the router carved for a split
// fragment: its guests in ascending order and the links among them.
func subEnv(v *virtual.Env, guests []int) *virtual.Env {
	if guests == nil {
		return v
	}
	sub := virtual.NewEnv()
	toSub := make(map[int]virtual.GuestID, len(guests))
	for _, g := range guests {
		gu := v.Guest(virtual.GuestID(g))
		toSub[g] = sub.AddGuest(gu.Name, gu.Proc, gu.Mem, gu.Stor)
	}
	for _, l := range v.Links() {
		a, okA := toSub[int(l.From)]
		b, okB := toSub[int(l.To)]
		if okA && okB {
			sub.AddLink(a, b, l.BW, l.Lat)
		}
	}
	return sub
}

// validate checks one reply mapping against Eq. (1)–(9).
func (p *pass) validate(le *liveEnv, f fragment) {
	start := time.Now()
	m, err := f.mapping.ToMapping(p.g.clusters[f.shard], subEnv(le.env, f.guests))
	if err == nil {
		err = m.Validate(cluster.VMMOverhead{})
	}
	p.validateNS += time.Since(start)
	p.validated++
	if err != nil {
		p.fault(fmt.Errorf("environment %s on shard %d: %w", le.id, f.shard, err))
	}
}

// checkResiduals compares the shadow ledger with GET …/residuals on
// every shard, to 1e-9, and returns the raw bodies.
func (p *pass) checkResiduals() ([][]byte, error) {
	var bodies [][]byte
	for k := range p.shadow {
		raw, err := p.t.residuals(k)
		if err != nil {
			return nil, err
		}
		var resp server.ResidualsResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return nil, fmt.Errorf("residuals shard %d: %w", k, err)
		}
		if len(resp.ResidualProcMIPS) != len(p.shadow[k]) {
			return nil, fmt.Errorf("residuals shard %d: %d hosts, shadow ledger has %d", k, len(resp.ResidualProcMIPS), len(p.shadow[k]))
		}
		for i, got := range resp.ResidualProcMIPS {
			if math.Abs(got-p.shadow[k][i]) > 1e-9 {
				return nil, fmt.Errorf("residuals shard %d host %d: daemon %.12g, shadow ledger %.12g", k, i, got, p.shadow[k][i])
			}
		}
		bodies = append(bodies, raw)
	}
	return bodies, nil
}

func (p *pass) digestHex() string { return fmt.Sprintf("%016x", p.digest.Sum64()) }

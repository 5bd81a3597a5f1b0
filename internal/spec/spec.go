// Package spec defines the on-disk JSON representation of physical
// clusters, virtual environments and mappings used by the command-line
// tools (cmd/hmngen, cmd/hmnmap), together with the conversions to and
// from the in-memory types. The format is deliberately flat and explicit
// so that testers can write environment descriptions by hand — the
// "tester describes the exact configuration" workflow of §1.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/jsonx"
	"repro/internal/mapping"
	"repro/internal/virtual"
)

// ClusterSpec is the JSON form of a physical cluster.
type ClusterSpec struct {
	// Nodes is the total node count (hosts plus switches). Hosts list
	// which of them run guests; the remainder are switches.
	Nodes int        `json:"nodes"`
	Hosts []HostSpec `json:"hosts"`
	Links []LinkSpec `json:"links"`
}

// HostSpec is one host: its node index and capacities.
type HostSpec struct {
	Node int     `json:"node"`
	Name string  `json:"name,omitempty"`
	Proc float64 `json:"proc_mips"`
	Mem  int64   `json:"mem_mb"`
	Stor float64 `json:"stor_gb"`
}

// LinkSpec is one physical link.
type LinkSpec struct {
	A   int     `json:"a"`
	B   int     `json:"b"`
	BW  float64 `json:"bw_mbps"`
	Lat float64 `json:"lat_ms"`
}

// EnvSpec is the JSON form of a virtual environment.
type EnvSpec struct {
	Guests []GuestSpec `json:"guests"`
	Links  []VLinkSpec `json:"links"`

	// src is the JSON this value was decoded from, when the fast path
	// took it (see ScanJSON), and sum the fingerprint of Guests and Links
	// as decoded. ToEnv, FromEnv and AppendJSON carry src along in place
	// of a second rendering, each only while the fingerprint still holds:
	// a value changed since it was decoded is rendered from its fields.
	src []byte
	sum uint64
}

// GuestSpec is one guest and its demands.
type GuestSpec struct {
	Name string  `json:"name,omitempty"`
	Proc float64 `json:"proc_mips"`
	Mem  int64   `json:"mem_mb"`
	Stor float64 `json:"stor_gb"`
}

// VLinkSpec is one virtual link and its requirements.
type VLinkSpec struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	BW   float64 `json:"bw_mbps"`
	Lat  float64 `json:"lat_ms"`
}

// fingerprint digests every field of every guest and link, in order,
// and which of the two slices are nil. Changing any one field changes
// it: a field enters its guest's or link's word times an odd constant,
// and each step is a bijection of the running value. Any other edit
// goes unnoticed once in 2^64. One multiply chain per guest or link, not
// per field, keeps a pass under a hundredth of the decode it guards.
func (e *EnvSpec) fingerprint() uint64 {
	const k0, k1, k2, k3 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93
	mix := func(h, w uint64) uint64 { return bits.RotateLeft64(h^w, 29) * k0 }
	var h uint64
	if e.Guests != nil {
		h = mix(h, uint64(len(e.Guests))+1)
	}
	if e.Links != nil {
		h = mix(h, uint64(len(e.Links))+1<<32)
	}
	for i := range e.Guests {
		g := &e.Guests[i]
		name := uint64(len(g.Name))
		for j := 0; j < len(g.Name); j++ {
			name = name*131 + uint64(g.Name[j])
		}
		h = mix(h, name*k0+math.Float64bits(g.Proc)*k1+uint64(g.Mem)*k2+math.Float64bits(g.Stor)*k3)
	}
	for i := range e.Links {
		l := &e.Links[i]
		h = mix(h, uint64(l.From)*k0+uint64(l.To)*k1+math.Float64bits(l.BW)*k2+math.Float64bits(l.Lat)*k3)
	}
	return h
}

// MappingSpec is the JSON form of a computed mapping.
type MappingSpec struct {
	// GuestHost[g] is the node index hosting guest g.
	GuestHost []int `json:"guest_host"`
	// LinkPaths[l] is the node sequence of virtual link l's physical
	// path; a single node marks an intra-host link.
	LinkPaths [][]int `json:"link_paths"`
	// LinkEdges[l] is the edge-ID sequence of the same path, one entry
	// per node pair. Optional: hand-written specs may omit it and
	// ToMapping resolves nodes to edges (first match). The WAL writes it
	// so that replay reserves bandwidth on the exact physical links the
	// live run used — node sequences cannot distinguish parallel links.
	LinkEdges [][]int `json:"link_edges,omitempty"`
	// Objective is the Eq. 10 value of the mapping.
	Objective float64 `json:"objective"`
}

// FromCluster converts a cluster into its JSON form.
func FromCluster(c *cluster.Cluster) ClusterSpec {
	out := ClusterSpec{Nodes: c.Net().NumNodes()}
	for _, h := range c.Hosts() {
		out.Hosts = append(out.Hosts, HostSpec{
			Node: int(h.Node), Name: h.Name, Proc: h.Proc, Mem: h.Mem, Stor: h.Stor,
		})
	}
	for _, e := range c.Net().Edges() {
		out.Links = append(out.Links, LinkSpec{A: int(e.A), B: int(e.B), BW: e.Bandwidth, Lat: e.Latency})
	}
	return out
}

// ToCluster builds a cluster from its JSON form.
func (s ClusterSpec) ToCluster() (*cluster.Cluster, error) {
	if s.Nodes <= 0 {
		return nil, fmt.Errorf("spec: cluster needs a positive node count, got %d", s.Nodes)
	}
	g := graph.New(s.Nodes)
	for i, l := range s.Links {
		if l.A < 0 || l.A >= s.Nodes || l.B < 0 || l.B >= s.Nodes {
			return nil, fmt.Errorf("spec: link %d endpoints (%d,%d) outside %d nodes", i, l.A, l.B, s.Nodes)
		}
		if l.A == l.B {
			return nil, fmt.Errorf("spec: link %d is a self-loop on node %d", i, l.A)
		}
		if l.BW < 0 || l.Lat < 0 {
			return nil, fmt.Errorf("spec: link %d has negative weights", i)
		}
		g.AddEdge(graph.NodeID(l.A), graph.NodeID(l.B), l.BW, l.Lat)
	}
	hosts := make([]cluster.Host, len(s.Hosts))
	for i, h := range s.Hosts {
		hosts[i] = cluster.Host{
			Node: graph.NodeID(h.Node), Name: h.Name, Proc: h.Proc, Mem: h.Mem, Stor: h.Stor,
		}
	}
	return cluster.New(g, hosts)
}

// FromEnv converts a virtual environment into its JSON form. An
// environment without guests or without links keeps the nil slice, and
// with it the "null" the WAL has always written for it; one that still
// knows the JSON it was decoded from hands it on.
func FromEnv(v *virtual.Env) EnvSpec {
	out := EnvSpec{src: v.Source()}
	if n := v.NumGuests(); n > 0 {
		out.Guests = make([]GuestSpec, 0, n)
	}
	for _, g := range v.Guests() {
		out.Guests = append(out.Guests, GuestSpec{Name: g.Name, Proc: g.Proc, Mem: g.Mem, Stor: g.Stor})
	}
	if n := v.NumLinks(); n > 0 {
		out.Links = make([]VLinkSpec, 0, n)
	}
	for _, l := range v.Links() {
		out.Links = append(out.Links, VLinkSpec{From: int(l.From), To: int(l.To), BW: l.BW, Lat: l.Lat})
	}
	if out.src != nil {
		out.sum = out.fingerprint()
	}
	return out
}

// ToEnv builds a virtual environment from its JSON form.
func (s EnvSpec) ToEnv() (*virtual.Env, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	guests := make([]virtual.Guest, len(s.Guests))
	for i, g := range s.Guests {
		guests[i] = virtual.Guest{Name: g.Name, Proc: g.Proc, Mem: g.Mem, Stor: g.Stor}
	}
	links := make([]virtual.Link, len(s.Links))
	for i, l := range s.Links {
		links[i] = virtual.Link{From: virtual.GuestID(l.From), To: virtual.GuestID(l.To), BW: l.BW, Lat: l.Lat}
	}
	env := virtual.Build(guests, links)
	if s.verbatim() {
		env.SetSource(s.src)
	}
	return env, nil
}

// check is ToEnv's validation of an environment: demands and requirements are not negative, and every virtual link
// joins two distinct guests of the environment.
func (s *EnvSpec) check() error {
	for i, g := range s.Guests {
		if g.Proc < 0 || g.Mem < 0 || g.Stor < 0 {
			return fmt.Errorf("spec: guest %d has negative demands", i)
		}
	}
	n := len(s.Guests)
	for i, l := range s.Links {
		if l.From < 0 || l.From >= n || l.To < 0 || l.To >= n {
			return fmt.Errorf("spec: virtual link %d endpoints (%d,%d) outside %d guests", i, l.From, l.To, n)
		}
		if l.From == l.To {
			return fmt.Errorf("spec: virtual link %d is a self-link on guest %d", i, l.From)
		}
		if l.BW < 0 || l.Lat < 0 {
			return fmt.Errorf("spec: virtual link %d has negative requirements", i)
		}
	}
	return nil
}

// verbatim reports whether s still is what src was decoded to.
func (s *EnvSpec) verbatim() bool { return s.src != nil && s.sum == s.fingerprint() }

// FromMapping converts a mapping into its JSON form.
func FromMapping(m *mapping.Mapping, overhead cluster.VMMOverhead) MappingSpec {
	out := MappingSpec{
		GuestHost: make([]int, len(m.GuestHost)),
		LinkPaths: make([][]int, len(m.LinkPath)),
		LinkEdges: make([][]int, len(m.LinkPath)),
		Objective: m.Objective(overhead),
	}
	for g, n := range m.GuestHost {
		out.GuestHost[g] = int(n)
	}
	// Every path's nodes and edges share one backing array: two small
	// slices per virtual link were a quarter of all the allocations of an
	// admission, which renders its mapping twice (WAL record and reply).
	// Each path is capped at its length, so appending to one copies it.
	total := 0
	for _, p := range m.LinkPath {
		total += len(p.Nodes) + len(p.Edges)
	}
	arena := make([]int, 0, total)
	for l, p := range m.LinkPath {
		start := len(arena)
		for _, n := range p.Nodes {
			arena = append(arena, int(n))
		}
		out.LinkPaths[l] = arena[start:len(arena):len(arena)]
		start = len(arena)
		arena = append(arena, p.Edges...)
		out.LinkEdges[l] = arena[start:len(arena):len(arena)]
	}
	return out
}

// ToMapping reconstructs a mapping against the given cluster and
// environment, resolving each path's node sequence back to edges (taking
// the first edge between each node pair; specs cannot distinguish
// parallel physical links).
func (s MappingSpec) ToMapping(c *cluster.Cluster, v *virtual.Env) (*mapping.Mapping, error) {
	// Every path's nodes and edges are carved from two arrays of exactly
	// the size all of them take (a path of n nodes has n-1 edges), each
	// capped at its length: two allocations per mapping, not per link.
	total, hops := s.size()
	edgeArena := make([]int, hops)
	if err := s.check(c, v, edgeArena); err != nil {
		return nil, err
	}
	m := mapping.New(c, v)
	for g, n := range s.GuestHost {
		m.GuestHost[g] = graph.NodeID(n)
	}
	nodeArena := make([]graph.NodeID, total)
	for l, nodes := range s.LinkPaths {
		n := len(nodes)
		p := graph.Path{Nodes: nodeArena[:n:n], Edges: edgeArena[: n-1 : n-1]}
		nodeArena, edgeArena = nodeArena[n:], edgeArena[n-1:]
		for i, id := range nodes {
			p.Nodes[i] = graph.NodeID(id)
		}
		m.LinkPath[l] = p
	}
	return m, nil
}

// size counts the nodes and the edges of every path together.
func (s *MappingSpec) size() (nodes, hops int) {
	for _, path := range s.LinkPaths {
		nodes += len(path)
		hops += max(len(path)-1, 0)
	}
	return nodes, hops
}

// check is ToMapping's validation of a mapping of v. Every guest
// must be placed on a host of c, and every link must have a path of c
// from the host of its from guest to the host of its to guest: along its
// recorded edges, each of which must join its two nodes, or, without
// link_edges, along the first edge between each pair of nodes. It writes
// every path's edges to edges, path after path; edges is as long as
// size's hops.
func (s *MappingSpec) check(c *cluster.Cluster, v *virtual.Env, edges []int) error {
	if len(s.GuestHost) != v.NumGuests() {
		return fmt.Errorf("spec: mapping has %d guest entries for %d guests", len(s.GuestHost), v.NumGuests())
	}
	if len(s.LinkPaths) != v.NumLinks() {
		return fmt.Errorf("spec: mapping has %d path entries for %d links", len(s.LinkPaths), v.NumLinks())
	}
	if s.LinkEdges != nil && len(s.LinkEdges) != len(s.LinkPaths) {
		return fmt.Errorf("spec: mapping has %d edge lists for %d paths", len(s.LinkEdges), len(s.LinkPaths))
	}
	for g, n := range s.GuestHost {
		if !c.IsHost(graph.NodeID(n)) {
			return fmt.Errorf("spec: guest %d is placed on node %d, which is not a host", g, n)
		}
	}
	net := c.Net()
	for l, nodes := range s.LinkPaths {
		if len(nodes) == 0 {
			return fmt.Errorf("spec: link %d has an empty path", l)
		}
		n := len(nodes)
		out := edges[: n-1 : n-1]
		edges = edges[n-1:]
		if s.LinkEdges != nil {
			// Exact edges recorded (WAL replay): validate each against
			// its node pair instead of re-resolving.
			recorded := s.LinkEdges[l]
			if len(recorded) != n-1 {
				return fmt.Errorf("spec: link %d has %d edges for %d path nodes", l, len(recorded), len(nodes))
			}
			for i, eid := range recorded {
				if eid < 0 || eid >= net.NumEdges() {
					return fmt.Errorf("spec: link %d edge %d out of range", l, eid)
				}
				// Check both endpoints explicitly: Edge.Other panics on a
				// node the edge does not touch, and a hostile spec can
				// name any edge here.
				e := net.Edge(eid)
				a, b := graph.NodeID(nodes[i]), graph.NodeID(nodes[i+1])
				if !(e.A == a && e.B == b) && !(e.B == a && e.A == b) {
					return fmt.Errorf("spec: link %d edge %d does not join nodes %d-%d", l, eid, nodes[i], nodes[i+1])
				}
				out[i] = eid
			}
		} else {
			for i := 0; i+1 < n; i++ {
				if nodes[i] < 0 || nodes[i] >= net.NumNodes() {
					return fmt.Errorf("spec: link %d path node %d outside %d nodes", l, nodes[i], net.NumNodes())
				}
				a, b := graph.NodeID(nodes[i]), graph.NodeID(nodes[i+1])
				eid := -1
				for _, cand := range net.Incident(a) {
					if net.Edge(cand).Other(a) == b {
						eid = cand
						break
					}
				}
				if eid == -1 {
					return fmt.Errorf("spec: link %d path has no physical edge %d-%d", l, nodes[i], nodes[i+1])
				}
				out[i] = eid
			}
		}
		from, to := v.Link(l).From, v.Link(l).To
		if src := s.GuestHost[from]; nodes[0] != src {
			return fmt.Errorf("spec: link %d path starts at node %d, not at host %d of guest %d", l, nodes[0], src, from)
		}
		if dst := s.GuestHost[to]; nodes[n-1] != dst {
			return fmt.Errorf("spec: link %d path ends at node %d, not at host %d of guest %d", l, nodes[n-1], dst, to)
		}
	}
	return nil
}

// AppendJSON appends v's compact JSON and a newline to dst — the bytes
// json.Encoder.Encode writes. A jsonx.Appender inside the plain subset
// is encoded by hand; every other value, and any the appender declines,
// goes through encoding/json.
func AppendJSON(dst []byte, v interface{}) ([]byte, error) {
	if a, ok := v.(jsonx.Appender); ok {
		if out, ok := a.AppendJSON(dst); ok {
			return append(out, '\n'), nil
		}
	}
	buf := bytes.NewBuffer(dst)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return dst, err
	}
	return buf.Bytes(), nil
}

// WriteJSON writes v to w as one line of compact JSON: the wire form of
// every hmnd reply. Nothing is written when v does not encode.
func WriteJSON(w io.Writer, v interface{}) error {
	buf := jsonx.GetBuffer()
	defer buf.Put()
	var err error
	if buf.B, err = AppendJSON(buf.B, v); err != nil {
		return err
	}
	_, err = w.Write(buf.B)
	return err
}

// WriteIndentedJSON writes v to w as indented JSON: the form of the
// files and stdout documents testers read and edit (§1).
func WriteIndentedJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// SaveJSON writes v to a file as indented JSON.
func SaveJSON(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteIndentedJSON(f, v); err != nil {
		return fmt.Errorf("spec: encoding %s: %w", path, err)
	}
	return f.Close()
}

// scanner is the decoding fast path: a target with a hand-written
// decoder for its fixed schema (EnvSpec, MappingSpec, hmnd's
// MapEnvRequest). ScanJSON either decodes the whole value exactly as
// encoding/json with DisallowUnknownFields would, or reports false and
// leaves the target untouched.
type scanner interface {
	ScanJSON(s *jsonx.Scanner) bool
}

// DecodeStrict decodes one JSON value from r into out, rejecting fields
// the target type does not declare; bytes after that first value are
// ignored. Specs are written by hand (§1's "tester describes the exact
// configuration"), where a misspelled "proc_mips" silently ignored
// means an experiment runs with default demands — strictness turns the
// typo into an immediate error. The hmnd service decodes request bodies
// through the same path.
//
// encoding/json decides what is accepted and what every error says. A
// target that implements the fast path is first offered the buffered
// input; it accepts only a plain subset of valid documents (see package
// jsonx), and anything it declines is decoded again from the same bytes
// by json.Decoder, with a read error re-attached where it occurred.
func DecodeStrict(r io.Reader, out interface{}) error {
	fast, ok := out.(scanner)
	if !ok {
		return decodeStd(r, out)
	}
	buf := jsonx.GetBuffer()
	defer buf.Put()
	body := bytes.NewBuffer(buf.B)
	_, rerr := body.ReadFrom(r)
	buf.B = body.Bytes()
	if rerr != nil {
		return decodeStd(io.MultiReader(body, failingReader{rerr}), out)
	}
	var s jsonx.Scanner
	s.Reset(buf.B)
	if fast.ScanJSON(&s) {
		return nil
	}
	return decodeStd(body, out)
}

func decodeStd(r io.Reader, out interface{}) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(out)
}

// failingReader replays the error that cut a body short.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// LoadJSON reads a JSON file into out, rejecting unknown fields (see
// DecodeStrict).
func LoadJSON(path string, out interface{}) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := DecodeStrict(f, out); err != nil {
		return fmt.Errorf("spec: decoding %s: %w", path, err)
	}
	return nil
}

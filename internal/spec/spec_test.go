package spec

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/topology"
	"repro/internal/workload"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	specs := workload.GenerateHosts(workload.ClusterParams{
		Hosts: 8, ProcMin: 1000, ProcMax: 3000,
		MemMin: 1024, MemMax: 3072, StorMin: 1000, StorMax: 3000,
	}, rng)
	c, err := topology.Switched(specs, 16, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterRoundTrip(t *testing.T) {
	c := testCluster(t)
	s := FromCluster(c)
	c2, err := s.ToCluster()
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumHosts() != c.NumHosts() {
		t.Fatal("host count lost")
	}
	if c2.Net().NumNodes() != c.Net().NumNodes() || c2.Net().NumEdges() != c.Net().NumEdges() {
		t.Fatal("graph shape lost")
	}
	for i := range c.Hosts() {
		if c.Hosts()[i] != c2.Hosts()[i] {
			t.Fatalf("host %d changed: %+v vs %+v", i, c.Hosts()[i], c2.Hosts()[i])
		}
	}
	for i, e := range c.Net().Edges() {
		e2 := c2.Net().Edge(i)
		if e != e2 {
			t.Fatalf("edge %d changed: %+v vs %+v", i, e, e2)
		}
	}
}

func TestEnvRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := workload.GenerateEnv(workload.HighLevelParams(30, 0.05), rng)
	s := FromEnv(v)
	v2, err := s.ToEnv()
	if err != nil {
		t.Fatal(err)
	}
	if v2.NumGuests() != v.NumGuests() || v2.NumLinks() != v.NumLinks() {
		t.Fatal("shape lost")
	}
	for i := range v.Guests() {
		if v.Guests()[i] != v2.Guests()[i] {
			t.Fatalf("guest %d changed", i)
		}
	}
	for i := range v.Links() {
		if v.Links()[i] != v2.Links()[i] {
			t.Fatalf("link %d changed", i)
		}
	}
}

func TestMappingRoundTripValidates(t *testing.T) {
	c := testCluster(t)
	rng := rand.New(rand.NewSource(3))
	v := workload.GenerateEnv(workload.HighLevelParams(20, 0.05), rng)
	m, err := (&core.HMN{}).Map(c, v)
	if err != nil {
		t.Fatal(err)
	}
	s := FromMapping(m, cluster.VMMOverhead{})
	m2, err := s.ToMapping(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Validate(cluster.VMMOverhead{}); err != nil {
		t.Fatalf("round-tripped mapping invalid: %v", err)
	}
	if s.Objective != m.Objective(cluster.VMMOverhead{}) {
		t.Fatal("objective not preserved")
	}
	for g := range m.GuestHost {
		if m.GuestHost[g] != m2.GuestHost[g] {
			t.Fatalf("guest %d host changed", g)
		}
	}
}

// toMappingAllocBudget is what ToMapping allocates, whatever the link
// count: the Mapping, its per-guest and per-link arrays, and the two
// arrays every path's nodes and edges are carved from. Recovery builds
// one mapping per admit record; two allocations per virtual link made
// 5 000 of them for a 500-guest record.
const toMappingAllocBudget = 5

// TestToMappingAllocsBudget builds a 50- and a 500-guest low-level
// mapping on the 8x8 torus back from their JSON form, with recorded
// edges (the WAL's shape) and with node paths only: the same constant
// number of allocations for each, and the same paths as the mapping
// rendered.
func TestToMappingAllocsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := workload.PaperClusterParams()
	p.Hosts = 64
	c, err := topology.Torus2D(workload.GenerateHosts(p, rng), 8, 8, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, guests := range []int{50, 500} {
		v := workload.GenerateEnv(workload.LowLevelParams(guests, 0.02), rng)
		m, err := (&core.HMN{}).Map(c, v)
		if err != nil {
			t.Fatal(err)
		}
		exact := FromMapping(m, cluster.VMMOverhead{})
		nodesOnly := exact
		nodesOnly.LinkEdges = nil
		for name, s := range map[string]MappingSpec{"link_edges": exact, "link_paths only": nodesOnly} {
			var back *mapping.Mapping
			allocs := testing.AllocsPerRun(10, func() {
				if back, err = s.ToMapping(c, v); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d guests, %d links, %s: %.0f allocations (budget %d)", guests, v.NumLinks(), name, allocs, toMappingAllocBudget)
			if allocs > toMappingAllocBudget {
				t.Errorf("%d guests, %s: ToMapping makes %.0f allocations, budget %d", guests, name, allocs, toMappingAllocBudget)
			}
			for l, p := range back.LinkPath {
				want := m.LinkPath[l]
				if !slices.Equal(p.Nodes, want.Nodes) || !slices.Equal(p.Edges, want.Edges) ||
					cap(p.Nodes) != len(p.Nodes) || cap(p.Edges) != len(p.Edges) {
					t.Fatalf("%d guests, %s: link %d read back as %v / %v (caps %d, %d), rendered %v / %v",
						guests, name, l, p.Nodes, p.Edges, cap(p.Nodes), cap(p.Edges), want.Nodes, want.Edges)
				}
			}
		}
	}
}

func TestClusterSpecValidation(t *testing.T) {
	cases := []ClusterSpec{
		{Nodes: 0},
		{Nodes: 2, Links: []LinkSpec{{A: 0, B: 5, BW: 1, Lat: 1}}},
		{Nodes: 2, Links: []LinkSpec{{A: 0, B: 0, BW: 1, Lat: 1}}},
		{Nodes: 2, Links: []LinkSpec{{A: 0, B: 1, BW: -1, Lat: 1}}},
		{Nodes: 2, Hosts: []HostSpec{{Node: 7}}},
	}
	for i, s := range cases {
		if _, err := s.ToCluster(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestEnvSpecValidation(t *testing.T) {
	cases := []EnvSpec{
		{Guests: []GuestSpec{{Proc: -1}}},
		{Guests: []GuestSpec{{}, {}}, Links: []VLinkSpec{{From: 0, To: 5, BW: 1, Lat: 1}}},
		{Guests: []GuestSpec{{}, {}}, Links: []VLinkSpec{{From: 1, To: 1, BW: 1, Lat: 1}}},
		{Guests: []GuestSpec{{}, {}}, Links: []VLinkSpec{{From: 0, To: 1, BW: -1, Lat: 1}}},
	}
	for i, s := range cases {
		if _, err := s.ToEnv(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMappingSpecValidation(t *testing.T) {
	c := testCluster(t)
	rng := rand.New(rand.NewSource(4))
	v := workload.GenerateEnv(workload.HighLevelParams(5, 0.3), rng)

	s := MappingSpec{GuestHost: []int{0}}
	if _, err := s.ToMapping(c, v); err == nil {
		t.Fatal("guest count mismatch must error")
	}
	gh := make([]int, v.NumGuests())
	s = MappingSpec{GuestHost: gh, LinkPaths: [][]int{}}
	if _, err := s.ToMapping(c, v); err == nil && v.NumLinks() > 0 {
		t.Fatal("path count mismatch must error")
	}
	paths := make([][]int, v.NumLinks())
	for i := range paths {
		paths[i] = []int{0, 7} // hosts 0 and 7 are not directly connected
	}
	s = MappingSpec{GuestHost: gh, LinkPaths: paths}
	if _, err := s.ToMapping(c, v); err == nil {
		t.Fatal("nonexistent edge must error")
	}
	paths2 := make([][]int, v.NumLinks())
	for i := range paths2 {
		paths2[i] = nil
	}
	s = MappingSpec{GuestHost: gh, LinkPaths: paths2}
	if _, err := s.ToMapping(c, v); err == nil {
		t.Fatal("empty path must error")
	}
}

func TestJSONFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	c := testCluster(t)
	if err := SaveJSON(path, FromCluster(c)); err != nil {
		t.Fatal(err)
	}
	var loaded ClusterSpec
	if err := LoadJSON(path, &loaded); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.ToCluster(); err != nil {
		t.Fatal(err)
	}
	if err := LoadJSON(filepath.Join(dir, "missing.json"), &loaded); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadJSON(bad, &loaded); err == nil {
		t.Fatal("malformed JSON must error")
	}
}

func TestLoadJSONRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	typo := filepath.Join(dir, "typo.json")
	// "hostz" is a plausible hand-edit typo; plain json.Unmarshal would
	// silently drop it and yield a cluster with zero hosts.
	if err := os.WriteFile(typo, []byte(`{"nodes": 2, "hostz": [{"node": 0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var cs ClusterSpec
	err := LoadJSON(typo, &cs)
	if err == nil {
		t.Fatal("unknown field must be rejected")
	}
	if !strings.Contains(err.Error(), "hostz") {
		t.Fatalf("error should name the offending field, got: %v", err)
	}
}

func TestDecodeStrict(t *testing.T) {
	var es EnvSpec
	ok := `{"guests": [{"name": "g0", "proc_mips": 100}], "links": []}`
	if err := DecodeStrict(strings.NewReader(ok), &es); err != nil {
		t.Fatal(err)
	}
	if len(es.Guests) != 1 || es.Guests[0].Proc != 100 {
		t.Fatalf("decoded %+v", es)
	}
	bad := `{"guests": [{"name": "g0", "proc_mip": 100}]}`
	if err := DecodeStrict(strings.NewReader(bad), &es); err == nil {
		t.Fatal("misspelled guest field must be rejected")
	}
}

// TestWriteIndentedJSONIsIndented pins the split between the two
// writers: files and stdout documents stay indented for the testers who
// read them, every hmnd reply is one compact line.
func TestWriteIndentedJSONIsIndented(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteIndentedJSON(&buf, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("output is not valid JSON")
	}
	if !bytes.Contains(buf.Bytes(), []byte("\n  \"a\": 1\n")) {
		t.Fatalf("output should be indented, got %q", buf.Bytes())
	}
	buf.Reset()
	if err := WriteJSON(&buf, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"a\":1}\n" {
		t.Fatalf("wire output should be one compact line, got %q", got)
	}
}

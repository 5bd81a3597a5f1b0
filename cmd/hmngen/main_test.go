package main

import (
	"io"
	"math/rand"
	"os"
	"testing"

	"repro/internal/spec"
	"repro/internal/topology"
)

func TestSquarest(t *testing.T) {
	cases := []struct{ n, rows, cols int }{
		{40, 8, 5}, {16, 4, 4}, {13, 13, 1}, {1, 1, 1}, {36, 6, 6},
	}
	for _, c := range cases {
		r, co := squarest(c.n)
		if r != c.rows || co != c.cols {
			t.Errorf("squarest(%d) = %dx%d, want %dx%d", c.n, r, co, c.rows, c.cols)
		}
	}
}

func TestBuildTopologyKinds(t *testing.T) {
	specs := make([]topology.HostSpec, 8)
	for i := range specs {
		specs[i] = topology.HostSpec{Proc: 2000, Mem: 2048, Stor: 2000}
	}
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []string{"torus", "switched", "ring", "line", "star", "mesh", "tree", "random"} {
		c, err := buildTopology(kind, specs, 16, 4, 5, rng)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if c.NumHosts() != 8 {
			t.Fatalf("%s: host count wrong", kind)
		}
		if !c.Net().Connected() {
			t.Fatalf("%s: disconnected", kind)
		}
	}
	for _, kind := range []string{"bogus", "fattree"} {
		if _, err := buildTopology(kind, specs, 16, 4, 5, rng); err == nil {
			t.Fatalf("unknown topology %q must error", kind)
		}
	}
}

// TestSaveOutputStdoutIsIndented pins the "-" path to the indented
// writer: `hmngen -cluster -` / `-env -` is read by people and piped into files, and must
// not follow hmnd's replies to one-line JSON.
func TestSaveOutputStdoutIsIndented(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	err = saveOutput("-", spec.MappingSpec{GuestHost: []int{3}, Objective: 1.5})
	os.Stdout = old
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"guest_host\": [\n    3\n  ],\n  \"link_paths\": null,\n  \"objective\": 1.5\n}\n"; string(got) != want {
		t.Fatalf("stdout document:\n got %q\nwant %q", got, want)
	}
}

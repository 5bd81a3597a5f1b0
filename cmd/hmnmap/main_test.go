package main

import (
	"io"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/spec"
)

func TestNewMapper(t *testing.T) {
	for _, name := range []string{"HMN", "R", "RA", "HS"} {
		m, err := newMapper(name, cluster.VMMOverhead{}, 1, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Fatalf("mapper for %q reports name %q", name, m.Name())
		}
	}
	for _, name := range []string{"bogus", "HMN-C"} {
		if _, err := newMapper(name, cluster.VMMOverhead{}, 1, 10); err == nil {
			t.Fatalf("unknown heuristic %q must error", name)
		}
	}
}

// TestCheckUsage: both inputs are required, and stdin has at most one
// reader.
func TestCheckUsage(t *testing.T) {
	for _, tc := range []struct {
		cluster, env string
		ok           bool
	}{
		{"c.json", "e.json", true},
		{"-", "e.json", true},
		{"c.json", "-", true},
		{"", "e.json", false},
		{"c.json", "", false},
		{"", "", false},
		{"-", "-", false},
	} {
		if err := checkUsage(tc.cluster, tc.env); (err == nil) != tc.ok {
			t.Errorf("checkUsage(%q, %q) = %v, want ok=%v", tc.cluster, tc.env, err, tc.ok)
		}
	}
}

func TestLoadInputStdin(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = old }()
	go func() {
		w.WriteString(`{"guests": [{"name": "g0", "proc_mips": 10}], "links": []}`)
		w.Close()
	}()
	var es spec.EnvSpec
	if err := loadInput("-", &es); err != nil {
		t.Fatal(err)
	}
	if len(es.Guests) != 1 || es.Guests[0].Name != "g0" {
		t.Fatalf("decoded %+v", es)
	}
}

// TestSaveOutputStdoutIsIndented pins the "-" path to the indented
// writer: `hmnmap -out -` is read by people and piped into files, and must
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

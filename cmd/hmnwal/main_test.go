package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/workload"
)

var commands = []string{"dump", "verify", "compact"}

// smallCluster is a 2x2 torus of four hosts.
func smallCluster(t *testing.T, seed int64) *cluster.Cluster {
	t.Helper()
	p := workload.PaperClusterParams()
	p.Hosts = 4
	c, err := topology.Torus2D(workload.GenerateHosts(p, rand.New(rand.NewSource(seed))), 2, 2, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRefusesADirectoryWithoutALog: every command fails on an empty
// directory, where it used to print an empty result and exit 0.
func TestRefusesADirectoryWithoutALog(t *testing.T) {
	dir := t.TempDir()
	for _, cmd := range commands {
		var out bytes.Buffer
		err := run(&out, cmd, dir)
		if err == nil || !strings.Contains(err.Error(), "not a WAL directory") {
			t.Errorf("%s of an empty directory: %v, want it refused as not a WAL directory", cmd, err)
		}
		if out.Len() > 0 {
			t.Errorf("%s of an empty directory printed %q", cmd, out.String())
		}
	}
}

// TestRunsOnAFederationDirectory: a federation's data directory holds
// its tenant registry beside the one log its shards share. Every command
// runs on it, and verify recovers every shard's session.
func TestRunsOnAFederationDirectory(t *testing.T) {
	dir := t.TempDir()
	f, err := shard.New([]*cluster.Cluster{smallCluster(t, 1), smallCluster(t, 2), smallCluster(t, 3)}, shard.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range commands {
		var out bytes.Buffer
		if err := run(&out, cmd, dir); err != nil {
			t.Fatalf("%s of a federation's data directory: %v", cmd, err)
		}
		if cmd != "verify" {
			continue
		}
		for k := 0; k < 3; k++ {
			if want := fmt.Sprintf("session shard-%d: ok", k); !strings.Contains(out.String(), want) {
				t.Errorf("verify printed %q, want a line with %q", out.String(), want)
			}
		}
		if want := "verified: 3 session(s)"; !strings.Contains(out.String(), want) {
			t.Errorf("verify printed %q, want a line with %q", out.String(), want)
		}
	}
}

// TestRunsOnAClassicDirectory: a directory with one session opened and
// one admission logged dumps two records, verifies one session from one
// replayed record, read from the whole of the one segment's bytes, and
// compacts nothing.
func TestRunsOnAClassicDirectory(t *testing.T) {
	dir := t.TempDir()
	c := smallCluster(t, 1)
	w, _, err := wal.Recover(dir, wal.Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&wal.Record{Kind: wal.KindOpen, SID: "s1", Open: &wal.OpenRec{Cluster: spec.FromCluster(c)}}); err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCommitHook(func(ev core.Event) {
		if err := w.Append(wal.RecordFromEvent("s1", cluster.VMMOverhead{}, ev)); err != nil {
			t.Errorf("append: %v", err)
		}
	})
	env := workload.GenerateEnv(workload.HighLevelParams(3, 0.5), rand.New(rand.NewSource(4)))
	if _, err := s.Map(env); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v: want one", segs, err)
	}
	seg, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for cmd, want := range map[string]string{
		"dump":    "log: 2 record(s)",
		"verify":  fmt.Sprintf("verified: 1 session(s), 1 record(s) replayed from %d byte(s) of log\n", seg.Size()),
		"compact": "compacted: 0 segment(s) deleted",
	} {
		var out bytes.Buffer
		if err := run(&out, cmd, dir); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("%s printed %q, want a line with %q", cmd, out.String(), want)
		}
	}
}

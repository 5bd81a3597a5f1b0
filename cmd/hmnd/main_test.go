package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig(5*time.Second, 3, "data")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RequestTimeout != 5*time.Second || cfg.RebalanceMaxMoves != 3 || cfg.DataDir != "data" {
		t.Fatalf("config = %+v", cfg)
	}
	for _, bad := range []struct {
		timeout  time.Duration
		maxMoves int
	}{
		{0, 0},
		{time.Second, -1},
	} {
		if _, err := buildConfig(bad.timeout, bad.maxMoves, "data"); err == nil {
			t.Fatalf("buildConfig(%+v) must error", bad)
		}
	}
}

// TestFlagsOfTheOtherModeAreUsageErrors pins the flags that mean
// nothing without -shards, -gateway-bw and -shard-cluster: given there,
// they used to be accepted and ignored.
func TestFlagsOfTheOtherModeAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-gateway-bw", "50"}, "-gateway-bw and -shard-cluster need -shards"},
		{[]string{"-shard-cluster", "cluster.json"}, "-gateway-bw and -shard-cluster need -shards"},
	} {
		if _, err := configure(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("configure(%v) = %v, want the usage error %q", tc.args, err, tc.want)
		}
	}
}

// TestProfileFlagsValidatedInFederationMode pins the profiling flags to
// both modes: with -shards they used to be accepted and ignored.
func TestProfileFlagsValidatedInFederationMode(t *testing.T) {
	for _, mode := range [][]string{
		nil,
		{"-shards", "2", "-shard-cluster", "cluster.json"},
	} {
		for _, bad := range []string{"-block-profile-rate", "-mutex-profile-fraction"} {
			_, err := configure(append(append([]string{}, mode...), bad, "-1"))
			if err == nil || !strings.Contains(err.Error(), bad+" must be >= 0, got -1") {
				t.Fatalf("configure(%v %s -1) = %v, want the usage error", mode, bad, err)
			}
		}
	}
}

// TestSharedFlagsValidateTheSameInBothModes: the durability, rebalance
// and timeout flags mean the same thing with and without -shards, so a
// bad value is the same usage error in both modes — raised before the
// federation's cluster spec (a file that does not exist here) is read.
// So is a removed flag, whatever its value: its error names what
// replaced it.
func TestSharedFlagsValidateTheSameInBothModes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-timeout", "0s"}, "-timeout must be positive, got 0s"},
		{[]string{"-rebalance-max-moves", "-1"}, "-rebalance-max-moves must be >= 0, got -1"},
		{[]string{"-queue", "8"}, "-queue was removed: a request waits for its session's lock, bounded by -timeout"},
		{[]string{"-data-dir", "x", "-snapshot-interval", "1m"}, "-snapshot-interval was removed: checkpoints land by log growth; reclaim disk with hmnwal compact <data-dir>"},
	} {
		if _, classic := configure(tc.args); classic == nil || classic.Error() != tc.want {
			t.Errorf("configure(%v) = %v, want the usage error %q", tc.args, classic, tc.want)
		}
		if _, fed := configure(append([]string{"-shards", "2", "-shard-cluster", "cluster.json"}, tc.args...)); fed == nil || fed.Error() != tc.want {
			t.Errorf("configure(%v) with -shards = %v, want the usage error %q", tc.args, fed, tc.want)
		}
	}
}

// TestRefusesAFederationInThePerShardLayout: hmnd -shards N on a data
// directory from before the shards shared one log — federation.json
// beside a WAL directory per shard, no log at the root — fails with the
// error that names the layout, and starts no shard over it. The refusal
// reads no shard log, so each holds just an open record.
func TestRefusesAFederationInThePerShardLayout(t *testing.T) {
	dir := t.TempDir()
	for k := 0; k < 2; k++ {
		sid := fmt.Sprintf("shard-%d", k)
		w, _, err := wal.Recover(filepath.Join(dir, sid), wal.Hooks{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(&wal.Record{Kind: wal.KindOpen, SID: sid, Open: &wal.OpenRec{}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	meta := `{"shards": 2, "gateway_bw": 0, "mapper": "", "proc": 0, "mem": 0, "stor": 0, "next_session": 0, "tenants": []}`
	if err := os.WriteFile(filepath.Join(dir, "federation.json"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	serve, err := configure([]string{"-addr", "127.0.0.1:0", "-shards", "2", "-data-dir", dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := serve(); err == nil || !strings.Contains(err.Error(), "per-shard layout") {
		t.Fatalf("hmnd -shards 2 on a per-shard layout: %v, want it refused by name", err)
	}
	if ok, err := wal.HasState(dir); ok || err != nil {
		t.Fatalf("the refused directory has a log at its root (%v, %v)", ok, err)
	}
}

package main

import (
	"strings"
	"testing"
	"time"
)

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig(16, 5*time.Second, 3, "data", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.QueueDepth != 16 || cfg.RequestTimeout != 5*time.Second || cfg.RebalanceMaxMoves != 3 ||
		cfg.DataDir != "data" || cfg.SnapshotInterval != time.Minute {
		t.Fatalf("config = %+v", cfg)
	}
	// Without a data directory the snapshot interval is never read.
	if _, err := buildConfig(16, time.Second, 0, "", -time.Second); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		queue     int
		timeout   time.Duration
		maxMoves  int
		snapEvery time.Duration
	}{
		{0, time.Second, 0, 0},
		{16, 0, 0, 0},
		{16, time.Second, -1, 0},
		{16, time.Second, 0, -time.Second},
	} {
		if _, err := buildConfig(bad.queue, bad.timeout, bad.maxMoves, "data", bad.snapEvery); err == nil {
			t.Fatalf("buildConfig(%+v) must error", bad)
		}
	}
}

// TestFlagsOfTheOtherModeAreUsageErrors pins the flags that mean
// nothing in the other mode — -gateway-bw and -shard-cluster without
// -shards, -queue with it: given there, they used to be accepted and
// ignored.
func TestFlagsOfTheOtherModeAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-gateway-bw", "50"}, "-gateway-bw and -shard-cluster need -shards"},
		{[]string{"-shard-cluster", "cluster.json"}, "-gateway-bw and -shard-cluster need -shards"},
		{[]string{"-shards", "2", "-shard-cluster", "cluster.json", "-queue", "8"}, "-queue bounds the classic admission queue; -shards has none"},
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
// A classic-only row checks the classic mode alone.
func TestSharedFlagsValidateTheSameInBothModes(t *testing.T) {
	for _, tc := range []struct {
		args        []string
		want        string
		classicOnly bool
	}{
		{[]string{"-timeout", "0s"}, "-timeout must be positive, got 0s", false},
		{[]string{"-queue", "0"}, "-queue must be positive, got 0", true},
		{[]string{"-data-dir", "x", "-snapshot-interval", "-1s"}, "-snapshot-interval must be >= 0, got -1s", false},
		{[]string{"-rebalance-max-moves", "-1"}, "-rebalance-max-moves must be >= 0, got -1", false},
	} {
		if _, classic := configure(tc.args); classic == nil || classic.Error() != tc.want {
			t.Errorf("configure(%v) = %v, want the usage error %q", tc.args, classic, tc.want)
		}
		if tc.classicOnly {
			continue
		}
		if _, fed := configure(append([]string{"-shards", "2", "-shard-cluster", "cluster.json"}, tc.args...)); fed == nil || fed.Error() != tc.want {
			t.Errorf("configure(%v) with -shards = %v, want the usage error %q", tc.args, fed, tc.want)
		}
	}
}

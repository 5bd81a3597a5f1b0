package main

import (
	"strings"
	"testing"
	"time"
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

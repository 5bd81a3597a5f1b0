package main

import (
	"strings"
	"testing"
	"time"
)

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig(4, 16, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 4 || cfg.QueueDepth != 16 || cfg.RequestTimeout != 5*time.Second {
		t.Fatalf("config = %+v", cfg)
	}
	// 0 workers means "default" (GOMAXPROCS), resolved by server.New.
	if _, err := buildConfig(0, 16, time.Second); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		workers, queue int
		timeout        time.Duration
	}{
		{-1, 16, time.Second},
		{4, 0, time.Second},
		{4, 16, 0},
	} {
		if _, err := buildConfig(bad.workers, bad.queue, bad.timeout); err == nil {
			t.Fatalf("buildConfig(%+v) must error", bad)
		}
	}
}

// TestFlagsOfTheOtherModeAreUsageErrors pins the flags that mean
// nothing in one of the two modes: given there, they used to be accepted
// and ignored. -workers sizes the classic pool only (each federation
// shard runs one worker), whatever value it is given; -gateway-bw and
// -shard-cluster need -shards.
func TestFlagsOfTheOtherModeAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "2", "-shard-cluster", "cluster.json", "-workers", "4"}, "-workers does not apply with -shards"},
		{[]string{"-shards", "2", "-shard-cluster", "cluster.json", "-workers", "0"}, "-workers does not apply with -shards"},
		{[]string{"-gateway-bw", "50"}, "-gateway-bw and -shard-cluster need -shards"},
		{[]string{"-shard-cluster", "cluster.json"}, "-gateway-bw and -shard-cluster need -shards"},
	} {
		if _, err := configure(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("configure(%v) = %v, want the usage error %q", tc.args, err, tc.want)
		}
	}
	// Without -shards, -workers is the pool size it always was.
	if _, err := configure([]string{"-workers", "4"}); err != nil {
		t.Errorf("configure(-workers 4) = %v", err)
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
func TestSharedFlagsValidateTheSameInBothModes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-timeout", "0s"}, "-timeout must be positive, got 0s"},
		{[]string{"-queue", "0"}, "-queue must be positive, got 0"},
		{[]string{"-replay"}, "-replay needs -data-dir"},
		{[]string{"-data-dir", "x", "-snapshot-interval", "-1s"}, "-snapshot-interval must be >= 0, got -1s"},
		{[]string{"-rebalance-interval", "-1s"}, "-rebalance-interval must be >= 0, got -1s"},
		{[]string{"-rebalance-max-moves", "-1"}, "-rebalance-max-moves must be >= 0, got -1"},
	} {
		_, classic := configure(tc.args)
		_, fed := configure(append([]string{"-shards", "2", "-shard-cluster", "cluster.json"}, tc.args...))
		if classic == nil || fed == nil || classic.Error() != tc.want || fed.Error() != tc.want {
			t.Errorf("configure(%v) = %v, with -shards %v; want the usage error %q from both", tc.args, classic, fed, tc.want)
		}
	}
}

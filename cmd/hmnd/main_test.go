package main

import (
	"strings"
	"testing"
	"time"
)

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig(4, 16, 8, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 4 || cfg.QueueDepth != 16 || cfg.BatchSize != 8 || cfg.RequestTimeout != 5*time.Second {
		t.Fatalf("config = %+v", cfg)
	}
	// 0 workers means "default" (GOMAXPROCS), resolved by server.New.
	if _, err := buildConfig(0, 16, 1, time.Second); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		workers, queue, batch int
		timeout               time.Duration
	}{
		{-1, 16, 1, time.Second},
		{4, 0, 1, time.Second},
		{4, 16, 0, time.Second},
		{4, 16, 1, 0},
	} {
		if _, err := buildConfig(bad.workers, bad.queue, bad.batch, bad.timeout); err == nil {
			t.Fatalf("buildConfig(%+v) must error", bad)
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

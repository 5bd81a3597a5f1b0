package main

import (
	"io"
	"testing"
)

// toyRun plays one workload at toy size through the same code path as a
// full run: the set-up, the window, both residual checks, and five
// recoveries of the crash image — in-process, and without the reference
// kernel's child, because the test has no binary to start them from.
func toyRun(t *testing.T, d def, seed int64, trace bool) *result {
	t.Helper()
	res, err := runBench(d, options{
		seed: seed, trace: trace, toy: true, ops: 60,
		dataDir: t.TempDir(), traceDir: t.TempDir(),
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", d.name, seed, trace, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s seed %d trace %v: %d failed operations", d.name, seed, trace, res.Failed)
	}
	return res
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, d := range defs {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			a, b := toyRun(t, d, 1, false), toyRun(t, d, 1, false)
			if a.digest != b.digest {
				t.Errorf("same seed, digests %s and %s", a.digest, b.digest)
			}
			for _, name := range []string{"accept_ratio", "objective_mean"} {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("same seed, %s %v and %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if c := toyRun(t, d, 2, false); c.digest == a.digest {
				t.Errorf("seeds 1 and 2 share digest %s", a.digest)
			}
			// The traced run fails unless its direct-drive pass reproduces
			// the HTTP pass's digest; the HTTP pass must also be the same
			// window the untraced run played.
			if tr := toyRun(t, d, 1, true); tr.digest != a.digest {
				t.Errorf("traced run digest %s, untraced %s", tr.digest, a.digest)
			}
		})
	}
}

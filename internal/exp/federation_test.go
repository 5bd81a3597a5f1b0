package exp

import (
	"reflect"
	"testing"
)

// fedTestOps is a trace long enough to reach row (iii)'s first split
// and short enough for -race.
const fedTestOps = 60

func TestRunFederationRows(t *testing.T) {
	res := runFederation(1, fedTestOps)
	if len(res.Runs) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Runs))
	}
	for i, run := range res.Runs {
		t.Logf("row %d: %+v", i, run)
		if run.Ops != fedTestOps || run.Admitted+run.Failed != run.Ops {
			t.Errorf("row %d: admitted %d + failed %d != ops %d", i, run.Admitted, run.Failed, run.Ops)
		}
		if run.Failed == 0 && run.FirstReject != run.Ops || run.Failed > 0 && run.FirstReject >= run.Ops {
			t.Errorf("row %d: %d failed but the first reject is at %d", i, run.Failed, run.FirstReject)
		}
		if run.Admitted == 0 || run.SearchesPerAdmit <= 0 || run.PopsPerAdmit < run.SearchesPerAdmit || run.ObjectiveMean <= 0 {
			t.Errorf("row %d: no admission or no routing work counted", i)
		}
		if run.GatewayHeld > run.GatewayPeak || run.GatewayPeak > run.GatewayBW {
			t.Errorf("row %d: gateway held %g, peak %g, budget %g", i, run.GatewayHeld, run.GatewayPeak, run.GatewayBW)
		}
	}
	for _, run := range res.Runs[:2] {
		if run.GatewayBW != 0 || run.Splits != 0 || run.GatewayPeak != 0 {
			t.Errorf("a row without a gateway split: %+v", run)
		}
	}
	if res.Runs[0].Fallbacks != 0 {
		t.Errorf("one cluster fell back %d times", res.Runs[0].Fallbacks)
	}
	if res.Runs[2].Splits == 0 || res.Runs[2].GatewayPeak == 0 {
		t.Errorf("the gateway row never split: %+v", res.Runs[2])
	}
	// The same hosts and trace, partitioned differently, place
	// differently.
	if res.Runs[0].PlacementDigest == res.Runs[1].PlacementDigest || res.Runs[1].PlacementDigest == res.Runs[2].PlacementDigest {
		t.Error("two testbeds' placement digests collide")
	}
}

func TestRunFederationDeterministic(t *testing.T) {
	a, b := runFederation(1, fedTestOps), runFederation(1, fedTestOps)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("a second run differs:\n%+v\n%+v", a, b)
	}
	if rep := CompareDocs(JSONDocument{Federation: &a}, JSONDocument{Federation: &b}, 0); !rep.OK() || len(rep.Advisory) != 0 {
		t.Fatalf("a second run drifted at threshold 0 or printed advisory lines: %v %v", rep.Problems, rep.Advisory)
	}
}

func TestCompareDocsFederationGate(t *testing.T) {
	res := runFederation(1, fedTestOps)
	base := JSONDocument{Hosts: 16, Seed: 1, Federation: &res}

	// Rows pair by shards and gateway: the split row's digest gates
	// even though the gatewayless row has the same shard count.
	drifted := runFederation(1, fedTestOps)
	drifted.Runs[2].PlacementDigest = "0000000000000000"
	rep := CompareDocs(base, JSONDocument{Hosts: 16, Seed: 1, Federation: &drifted}, 0.5)
	if rep.OK() || len(rep.Problems) != 1 {
		t.Fatalf("one digest drift gave %v", rep.Problems)
	}

	// A missing block gates only when the baseline carries one.
	cur := JSONDocument{Hosts: 16, Seed: 1}
	if rep := CompareDocs(base, cur, 0.5); rep.OK() {
		t.Fatal("dropped federation block passed the gate")
	}
	if rep := CompareDocs(cur, base, 0.5); !rep.OK() {
		t.Fatalf("new federation block against an old baseline drifted: %v", rep.Problems)
	}
}

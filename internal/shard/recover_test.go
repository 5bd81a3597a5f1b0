package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/wal"
)

// residualVectors captures every shard's residual-CPU vector for exact
// (byte-identical) comparison across a restart.
func residualVectors(f *Federation) [][]float64 {
	out := make([][]float64, f.Shards())
	for k := 0; k < f.Shards(); k++ {
		sh, _ := f.Shard(k)
		out[k] = append([]float64(nil), sh.Session().ResidualProc()...)
	}
	return out
}

func sameVectors(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return false
		}
		for i := range a[k] {
			if a[k][i] != b[k][i] {
				return false
			}
		}
	}
	return true
}

func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, GatewayBW: 10}
	f, err := New(testClusters(t, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := f.OpenTenant()
	if err != nil {
		t.Fatal(err)
	}
	var eids []string
	for i := int64(0); i < 3; i++ {
		eid, _, err := f.Admit(sid, genEnv(60+i, 8))
		if err != nil {
			t.Fatal(err)
		}
		eids = append(eids, eid)
	}
	splitEID, pl, err := f.Admit(sid, splitEnv(50))
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Split {
		t.Fatal("expected a split admission")
	}
	if err := f.Release(sid, eids[0]); err != nil {
		t.Fatal(err)
	}
	before := residualVectors(f)
	gwBefore := f.Gateway().InUse()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Recover(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Shards() != 2 {
		t.Fatalf("recovered %d shards, want 2", r.Shards())
	}
	if !sameVectors(before, residualVectors(r)) {
		t.Fatalf("recovered residuals diverge:\n%v\nvs\n%v", before, residualVectors(r))
	}
	if got := r.Gateway().InUse(); got != gwBefore {
		t.Fatalf("recovered gateway in use = %g, want %g", got, gwBefore)
	}
	ids, err := r.EnvIDs(sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("recovered %d environments, want 3 (%v)", len(ids), ids)
	}

	// New IDs keep counting past the recovered maximum.
	eid, _, err := r.Admit(sid, genEnv(99, 8))
	if err != nil {
		t.Fatal(err)
	}
	var n, prev int
	fmt.Sscanf(eid, "e%d", &n)
	fmt.Sscanf(splitEID, "e%d", &prev)
	if n <= prev {
		t.Fatalf("post-recovery env ID %q does not advance past %q", eid, splitEID)
	}
	// The recovered registry must drive releases, the split included.
	if err := r.Release(sid, splitEID); err != nil {
		t.Fatal(err)
	}
	if got := r.Gateway().InUse(); got != 0 {
		t.Fatalf("gateway in use after recovered-split release = %g", got)
	}
	if err := r.CloseTenant(sid); err != nil {
		t.Fatal(err)
	}
	sid2, err := r.OpenTenant()
	if err != nil {
		t.Fatal(err)
	}
	if sid2 == sid {
		t.Fatalf("recovered federation reused tenant ID %q", sid)
	}
}

// TestRecoverReleasesOrphanFragments simulates a crash mid-split: one
// fragment's release is forged into the log after close, so on
// recovery the sibling fragment has an incomplete set and must be
// cleaned up, gateway included.
func TestRecoverReleasesOrphanFragments(t *testing.T) {
	dir := t.TempDir()
	f, err := New(testClusters(t, 2), Config{DataDir: dir, GatewayBW: 10})
	if err != nil {
		t.Fatal(err)
	}
	sid, _ := f.OpenTenant()
	_, pl, err := f.Admit(sid, splitEnv(50))
	if err != nil {
		t.Fatal(err)
	}
	fr := pl.Fragments[0]
	sh, _ := f.Shard(fr.Shard)
	export := sh.Session().Export()
	var seq uint64
	found := false
	for _, a := range export.Active {
		if a.Tag == fr.Tag {
			seq, found = a.Seq, true
		}
	}
	if !found {
		t.Fatalf("fragment %q not in shard %d's active set", fr.Tag, fr.Shard)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	w, _, err := wal.Open(dir, wal.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	// Index must land past the final snapshot's operation boundary or
	// replay treats the record as already applied.
	if err := w.Append(&wal.Record{Kind: wal.KindRelease, SID: shardSID(fr.Shard), Index: export.OpCount + 1, Release: &wal.ReleaseRec{Seq: seq}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Recover(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids, err := r.EnvIDs(sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("orphaned split survived recovery: %v", ids)
	}
	for k := 0; k < 2; k++ {
		sh, _ := r.Shard(k)
		if sh.Session().Active() != 0 {
			t.Fatalf("shard %d keeps %d fragments after orphan cleanup", k, sh.Session().Active())
		}
	}
	if got := r.Gateway().InUse(); got != 0 {
		t.Fatalf("gateway in use after orphan cleanup = %g", got)
	}
}

func TestNewRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	f, err := New(testClusters(t, 2), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(testClusters(t, 2), Config{DataDir: dir}); err == nil {
		t.Fatal("New accepted a directory holding shard state")
	}
}

func TestRecoverNeedsDataDir(t *testing.T) {
	if _, err := Recover(Config{}); err == nil {
		t.Fatal("Recover accepted an empty data directory")
	}
}

func TestRecoverMissingMeta(t *testing.T) {
	_, err := Recover(Config{DataDir: t.TempDir()})
	if err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("Recover on an empty directory = %v", err)
	}
}

// TestRecoverRefusesThePerShardLayout builds by hand the data directory
// a durable two-shard federation left before its shards shared one log
// — the tenant registry at the root, each shard's WAL in a shard-k
// directory of its own — and checks that Recover refuses it with an
// error naming the layout and what to do, that New refuses it too, and
// that neither leaves a log at its root.
func TestRecoverRefusesThePerShardLayout(t *testing.T) {
	dir := t.TempDir()
	for k, c := range testClusters(t, 2) {
		w, _, err := wal.Recover(filepath.Join(dir, shardSID(k)), wal.Hooks{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(&wal.Record{Kind: wal.KindOpen, SID: shardSID(k), Open: &wal.OpenRec{Cluster: spec.FromCluster(c)}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	meta := `{"shards": 2, "gateway_bw": 0, "mapper": "", "proc": 0, "mem": 0, "stor": 0, "next_session": 0, "tenants": []}`
	if err := os.WriteFile(filepath.Join(dir, metaName), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := Recover(Config{DataDir: dir})
	if err == nil || !strings.Contains(err.Error(), "per-shard layout") || !strings.Contains(err.Error(), "fresh data directory") {
		t.Fatalf("Recover of a per-shard layout = %v, want it refused by name, with what to do", err)
	}
	if _, err := New(testClusters(t, 2), Config{DataDir: dir}); err == nil {
		t.Fatal("New started a federation over a per-shard layout")
	}
	if ok, err := wal.HasState(dir); err != nil || ok {
		t.Fatalf("refusing the directory left a log at its root (%v, %v)", ok, err)
	}
}

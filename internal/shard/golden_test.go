package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// goldenFederationFiles pins the bytes a seeded serial trace leaves in a
// durable 3-shard federation's data directory, hashed before Close
// snapshots it: the tenant registry, and every shard's frames — its
// session's records, in log order, each framed as the log frames it.
// Any change to a routing, split, rollback, repair or rebalance decision
// — or to the order a shard sees its operations in — changes a shard's
// frames. A shard's frames are what its own log file held while every
// shard kept one, so the hashes carry over from then. Update the table
// only for a change meant to move decisions, from the test's failure
// output.
var goldenFederationFiles = map[string]string{
	"federation.json": "7ed84844ce680bcf9c48943fa1e606e4f8a7224d330f97e1fa550faf7dc92cd1",
	"shard-0":         "2466460c4ec9206cb9bd5666de883f1ca9ac65d2c9e4b5fbe397a3e1bc78053e",
	"shard-1":         "3d1ec5ca5dd01e931d63af321fd5e4516b1c5cdde5194d4313764da85b0ee548",
	"shard-2":         "a3f03c77a6c4d2c9dc1215b0f3ef39928bc6d10cd7badaabf799920f48492584",
}

// goldenTrace drives the seeded serial trace on f and returns what each
// step did, for the failure message.
func goldenTrace(t *testing.T, f *Federation) []string {
	t.Helper()
	var steps []string
	note := func(format string, args ...interface{}) { steps = append(steps, fmt.Sprintf(format, args...)) }
	var sids [2]string
	for i := range sids {
		sid, err := f.OpenTenant()
		if err != nil {
			t.Fatal(err)
		}
		sids[i] = sid
	}
	type live struct{ sid, eid string }
	var fifo []live
	failedShard, splits := -1, 0
	var lastSplit Placement
	for i := 0; i < 40; i++ {
		sid := sids[i%2]
		v := genEnv(500+int64(i), 6+i%5)
		if i%10 == 5 {
			v = splitEnv(50)
		}
		eid, pl, err := f.Admit(sid, v)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		if pl.Split {
			splits++
			lastSplit = pl
		}
		note("admit %s/%s split=%v fallback=%v frags=%d", sid, eid, pl.Split, pl.Fallback, len(pl.Fragments))
		fifo = append(fifo, live{sid, eid})
		for len(fifo) > 5 {
			// An environment the failure took down is already gone.
			err := f.Release(fifo[0].sid, fifo[0].eid)
			if err != nil && !errors.Is(err, ErrUnknownEnv) {
				t.Fatalf("release %v: %v", fifo[0], err)
			}
			note("release %s/%s: %v", fifo[0].sid, fifo[0].eid, err)
			fifo = fifo[1:]
		}
		switch i {
		case 12:
			eid, _, err := f.Admit(sids[0], rollbackEnv())
			if err == nil {
				t.Fatalf("rollback admission %s committed", eid)
			}
			note("rollback %s: %v", eid, err)
		case 16:
			// Fail every host of the shard under the split admitted at
			// step 15: the first fails repair, the last leave its
			// environments nowhere to go, so the split goes down and its
			// sibling is released.
			failedShard = lastSplit.Fragments[0].Shard
			sh, _ := f.Shard(failedShard)
			for _, node := range sh.Cluster().HostNodes() {
				results, err := failHost(f, failedShard, node)
				if err != nil {
					t.Fatalf("fail %d: %v", node, err)
				}
				for _, res := range results {
					note("repair %s: %v", res.Tag, res.Outcome)
				}
			}
		case 25:
			for k := 0; k < f.Shards(); k++ {
				res, err := f.RebalanceOnce(k)
				if err != nil {
					t.Fatal(err)
				}
				note("rebalance shard %d: %d moves", k, res.Moves)
			}
		case 30:
			sh, _ := f.Shard(failedShard)
			for _, node := range sh.Cluster().HostNodes() {
				if _, err := f.Mutate(failedShard, func(cs *core.Session) ([]core.RepairResult, error) {
					return nil, cs.RestoreHost(node)
				}); err != nil {
					t.Fatal(err)
				}
			}
			note("restore")
		}
	}
	if err := f.CloseTenant(sids[1]); err != nil {
		t.Fatal(err)
	}
	note("close %s", sids[1])
	if splits < 4 {
		t.Fatalf("trace admitted %d splits, want at least 4", splits)
	}
	return steps
}

// TestGoldenFederationLog runs the trace on a durable 3-shard federation
// with a gateway and compares the sha256 of the tenant registry and of
// every shard's frames, read across the log's segments, with the pinned
// table.
func TestGoldenFederationLog(t *testing.T) {
	dir := t.TempDir()
	f, err := New(testClusters(t, 3), Config{DataDir: dir, GatewayBW: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trace := goldenTrace(t, f)

	frames := make(map[string]hash.Hash)
	var buf []byte
	_, _, err = wal.Each(dir, wal.Hooks{}, func(r *wal.Record) error {
		// The frame the log wrote: [u32le length][u32le CRC-32C][payload],
		// the payload the record's own encoding, json.Marshal where that
		// declines.
		payload, ok := r.AppendJSON(buf[:0])
		if !ok {
			var err error
			if payload, err = json.Marshal(r); err != nil {
				return err
			}
		}
		buf = payload
		if frames[r.SID] == nil {
			frames[r.SID] = sha256.New()
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		frames[r.SID].Write(hdr[:])
		frames[r.SID].Write(payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for sid, h := range frames {
		got[sid] = hex.EncodeToString(h.Sum(nil))
	}
	meta, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(meta)
	got[metaName] = hex.EncodeToString(sum[:])

	var diff []string
	for name, sum := range got {
		if goldenFederationFiles[name] != sum {
			diff = append(diff, fmt.Sprintf("\t%q: %q,", name, sum))
		}
	}
	for name := range goldenFederationFiles {
		if _, ok := got[name]; !ok {
			diff = append(diff, fmt.Sprintf("\tmissing %q", name))
		}
	}
	if len(diff) > 0 {
		t.Fatalf("federation data directory differs from the golden table:\n%s\ntrace:\n%s",
			strings.Join(diff, "\n"), strings.Join(trace, "\n"))
	}
}

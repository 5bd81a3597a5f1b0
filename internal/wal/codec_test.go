package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jsonx"
	"repro/internal/spec"
)

// frameOf wraps an arbitrary payload in a valid frame.
func frameOf(payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return append(hdr[:], payload...)
}

// readFrame reads the frame at buf[off] the way a pass over a segment
// does — the frame reader, then a fresh decoder — and returns the record
// with the offset of the next frame.
func readFrame(buf []byte, off int) (*Record, int, error) {
	var fr frameReader
	fr.reset(bytes.NewReader(buf[off:]), int64(len(buf)-off))
	payload, err := fr.next()
	if err != nil {
		return nil, off, err
	}
	rec, err := new(decoder).decode(payload)
	if err != nil {
		return nil, off, err
	}
	return rec, off + int(fr.off), nil
}

// readAgrees holds readFrame to json.Unmarshal on one payload: same
// verdict, same error text, same record.
func readAgrees(t *testing.T, payload []byte) {
	t.Helper()
	var want Record
	wantErr := json.Unmarshal(payload, &want)
	got, next, gotErr := readFrame(frameOf(payload), 0)
	if wantErr != nil {
		if gotErr == nil || gotErr.Error() != "wal: decode record: "+wantErr.Error() {
			t.Fatalf("payload %q:\n    readFrame: %v\nencoding/json: %v", payload, gotErr, wantErr)
		}
		return
	}
	if gotErr != nil || next != frameHeaderSize+len(payload) || !reflect.DeepEqual(*got, want) {
		t.Fatalf("payload %q:\n    readFrame: %#v (%v)\nencoding/json: %#v", payload, got, gotErr, want)
	}
	// The decoder recovery keeps for a whole log: whatever the records
	// before left in it, this one decodes to the same value.
	if got, err := reused.decode(payload); err != nil || !reflect.DeepEqual(*got, want) {
		t.Fatalf("payload %q after other records:\nreused decoder: %#v (%v)\n encoding/json: %#v", payload, got, err, want)
	}
}

// reused is the one decoder every readAgrees call of the test binary
// shares, in whatever order tests and fuzz inputs come.
var reused decoder

// parentSegment is a log written by the commit before the hand-written
// codec (0e50542, encoding/json on both sides): an open record, two
// admissions, a release, a migrate, a batch with a linkless, nameless
// environment and a name encoding/json escapes, a host failure with a
// repair, the restore, and a close.
const parentSegment = "testdata/segment-0e50542"

// TestParentSegmentRoundTrips is the on-disk compatibility proof in
// both directions: the parent's bytes decode to what encoding/json
// makes of them and replay cleanly, and re-encoding the decoded records
// reproduces the parent's file byte for byte — so a directory written
// by either commit recovers under the other.
func TestParentSegmentRoundTrips(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(parentSegment, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Scan(parentSegment, testHooks(t))
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes != 0 || len(rec.Records) != 9 {
		t.Fatalf("scanned %d records, %d torn bytes; want 9, 0", len(rec.Records), rec.TruncatedBytes)
	}
	var got []byte
	kinds := map[string]int{}
	for i := range rec.Records {
		r := &rec.Records[i]
		kinds[r.Kind]++
		start := len(got)
		if got, err = appendFrame(got, r); err != nil {
			t.Fatal(err)
		}
		readAgrees(t, got[start+frameHeaderSize:])
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded segment differs from the parent's bytes:\n got %q\nwant %q", got, want)
	}
	if len(kinds) != 8 {
		t.Fatalf("segment covers kinds %v, want all eight", kinds)
	}
	// The close record retires the session, so stop one short of it.
	rec.Records = rec.Records[:8]
	sess := rebuild(t, rec)[testSID]
	if sess == nil || sess.Active() != 3 {
		t.Fatalf("replaying the parent's log: session %v", sess)
	}
	if err := VerifyObjective(sess); err != nil {
		t.Fatal(err)
	}
}

// churnRecords runs the chaos schedule, with a rebalancing round every
// 16 operations, against a logged session and returns the records it
// wrote.
func churnRecords(t *testing.T, ops int) []Record {
	t.Helper()
	c, _ := testCluster(t)
	s, err := core.NewSession(c, cluster.VMMOverhead{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	s.SetCommitHook(func(ev core.Event) {
		recs = append(recs, *RecordFromEvent(testSID, cluster.VMMOverhead{}, ev))
	})
	for i := 0; i < ops; i++ {
		if i%16 == 15 {
			s.Rebalance(2)
		} else {
			applyOp(t, s, c, i)
		}
	}
	return recs
}

// TestFastPathTakesChurnRecords pins the codec's boundary on a churn
// schedule: every admit and release record is encoded and decoded by
// hand — the fast path has not quietly degraded into always-decline —
// and every other record, migrate included, is declined both ways and
// framed as json.Marshal's bytes.
func TestFastPathTakesChurnRecords(t *testing.T) {
	counts := map[string]int{}
	for _, rec := range churnRecords(t, 48) {
		rec := rec
		want, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := rec.AppendJSON(nil)
		hand := rec.Kind == KindAdmit || rec.Kind == KindRelease
		if ok != hand {
			t.Fatalf("%s record: AppendJSON accepted=%v", rec.Kind, ok)
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("%s record:\n got %s\nwant %s", rec.Kind, got, want)
		}
		if frame, err := appendFrame(nil, &rec); err != nil || !bytes.Equal(frame, frameOf(want)) {
			t.Fatalf("%s record: frame %q (%v), want json.Marshal's %s", rec.Kind, frame, err, want)
		}
		var back decoder
		var s jsonx.Scanner
		s.Reset(want)
		if back.scan(&s) != hand {
			t.Fatalf("%s record: scan accepted=%v: %s", rec.Kind, !hand, want)
		} else if hand && !reflect.DeepEqual(back.rec, rec) {
			t.Fatalf("%s record decoded to %#v, want %#v", rec.Kind, back.rec, rec)
		}
		counts[rec.Kind]++
	}
	for _, k := range []string{KindAdmit, KindRelease, KindFail, KindRestore, KindMigrate} {
		if counts[k] == 0 {
			t.Fatalf("schedule wrote no %s record: %v", k, counts)
		}
	}
}

// TestFieldMatchesEncodingJSON walks the key shapes the record scanner
// reads through jsonx.Scanner.Field in a record, an admit body and a
// release body: keys in json.Marshal's order, an optional one omitted,
// are taken; keys out of that order, blanks around ':' and ',', and a
// repeated, differently-cased or unknown key are declined. What the
// scanner takes, json.Decoder with DisallowUnknownFields takes to the
// same record, and the frame reader answers every body as json.Unmarshal
// does.
func TestFieldMatchesEncodingJSON(t *testing.T) {
	const env = `{"guests":[{"name":"g","proc_mips":1,"mem_mb":2,"stor_gb":3},{"proc_mips":1}],"links":[]}`
	const mapping = `{"guest_host":[0,0],"link_paths":[],"objective":0}`
	for _, tc := range []struct {
		payload string
		fast    bool
	}{
		{`{"kind":"release","sid":"s1","index":3,"release":{"seq":1}}`, true},
		{`{"kind":"release","sid":"s1","release":{"seq":1}}`, true},
		{`{"kind":"admit","sid":"s1","index":2,"admit":{"seq":1,"tag":"e1","env":` + env + `,"mapping":` + mapping + `}}`, true},
		{`{"kind":"admit","sid":"s1","admit":{"seq":1,"env":` + env + `,"mapping":` + mapping + `}}`, true},
		{`{"kind":"admit","admit":{"seq":1,"env":` + env + `}}`, true},
		// Out of json.Marshal's order, or with blanks: encoding/json's.
		{`{"release":{"seq":1},"index":3,"sid":"s1","kind":"release"}`, false},
		{`{"admit":{"mapping":` + mapping + `,"env":` + env + `,"seq":1},"kind":"admit","sid":"s1"}`, false},
		{`{"kind":"admit","sid":"s1","admit":{"env":` + env + `,"seq":1}}`, false},
		{"{ \"kind\" : \"release\" ,\"sid\":\"s1\" ,\n\"release\" :{ \"seq\" : 1 } }", false},
		{"{\"kind\":\"admit\",\"admit\":{ \"seq\" :1 , \"env\" : " + env + " }}", false},
		{`{"kind":"release","sid":"s1","release":{"seq":1}} `, false},
		// Neither an admit nor a release: encoding/json's.
		{`{"kind":"close","sid":"s1"}`, false},
		{`{"kind":"release","kind":"release","sid":"s1","release":{"seq":1}}`, false},
		{`{"kind":"release","release":{"seq":1,"seq":2}}`, false},
		{`{"kind":"admit","admit":{"seq":1,"tag":"a","tag":"b"}}`, false},
		{`{"Kind":"release","sid":"s1","release":{"seq":1}}`, false},
		{`{"kind":"release","SID":"s1"}`, false},
		{`{"kind":"release","release":{"Seq":1}}`, false},
		{`{"kind":"admit","admit":{"Env":{}}}`, false},
		{`{"kind":"release","sid":"s1","release":{"seq":1},"extra":1}`, false},
		{`{"kind":"release","release":{"seq":1,"old":2}}`, false},
		{`{"kind":"admit","admit":{"seq":1,"envs":{}}}`, false},
		{`{"kind":"admit","admit":{"env":{"guests":[{"proc_mips":1,"proc_mips":2}]}}}`, false},
		{`{"kind":"close","sid":"s1","fail":{"fail_kind":"host","target":1}}`, false},
	} {
		var d decoder
		var s jsonx.Scanner
		s.Reset([]byte(tc.payload))
		took := d.scan(&s)
		var want Record
		dec := json.NewDecoder(bytes.NewReader([]byte(tc.payload)))
		dec.DisallowUnknownFields()
		err := dec.Decode(&want)
		switch {
		case took != tc.fast:
			t.Errorf("scan took=%v %s, want %v", took, tc.payload, tc.fast)
		case took && err != nil:
			t.Errorf("scan took %s, which encoding/json rejects: %v", tc.payload, err)
		case took && !reflect.DeepEqual(d.rec, want):
			t.Errorf("%s:\n     scan: %#v\nencoding/json: %#v", tc.payload, d.rec, want)
		}
		readAgrees(t, []byte(tc.payload))
	}
}

// FuzzWALDecode feeds readFrame arbitrary checksummed payloads: it must
// never panic and must equal json.Unmarshal — on the error and on the
// record — whether the hand-written scanner or the fallback decoded it.
func FuzzWALDecode(f *testing.F) {
	seg, err := os.ReadFile(filepath.Join(parentSegment, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	for off := 0; off < len(seg); {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		f.Add(seg[off+frameHeaderSize : off+frameHeaderSize+n])
		off += frameHeaderSize + n
	}
	for _, s := range []string{
		`{"kind":"release","sid":"s1","index":3,"release":{"seq":1}} `,
		`{"kind":"release","sid":"s1","index":3,"release":{"seq":1}}x`,
		`{"kind":"release","sid":"s1","index":-3,"release":{"seq":1.0}}`,
		`{"kind":"release","sid":"s1","release":{"seq":18446744073709551615}}`,
		`{"kind":"release","sid":"s1","release":{"seq":1,"seq":2},"release":{}}`,
		`{"kind":"release","sid":"s1","release":null,"unknown":[{"a":1}]}`,
		`{"KIND":"release","Sid":"s\u0031","release":{"SEQ":1}}`,
		`{"kind":"admit","sid":"s1","index":1,"admit":{"seq":1,"env":{"guests":[],"links":[]},"mapping":{"guest_host":[],"link_paths":[],"objective":0}}}`,
		`{"kind":"admit","admit":{"env":{"guests":[{"bogus":1}]}}}`,
		`{"kind":"admit","admit":{"mapping":{"objective":1e999}}}`,
		// Keys out of json.Marshal's order, and blanks: the scanner
		// declines them, encoding/json decodes them.
		`{"release":{"seq":2},"sid":"s1","kind":"release","index":4}`,
		`{"admit":{"mapping":{"objective":0,"link_paths":[[1]],"guest_host":[1]},"env":{"links":[],"guests":[{"proc_mips":1,"name":"g"}]},"tag":"e1","seq":1},"kind":"admit","sid":"s1"}`,
		"{ \"kind\" :\"admit\",\"admit\" : { \"seq\":1 ,\"mapping\":{\"guest_host\" :[ 0 ,1 ] ,\"link_paths\":[ [ 0 ] ,[0\t,1]\n] } } }",
		`{"kind":7}`, `[]`, `null`, ``, `{`, "{\"kind\":\"\xff\"}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		readAgrees(t, payload)
	})
}

// quickRecord draws records of the kinds the codec encodes by hand (and
// a few it must decline) around the values that separate a careless
// encoder from encoding/json's.
type quickRecord struct{ R Record }

func (quickRecord) Generate(r *rand.Rand, _ int) reflect.Value {
	floats := []float64{0, math.Copysign(0, -1), 1e21, 1e-7, 5e-324, -123.456, 1e20, 999999.9999999999, math.MaxFloat64}
	strs := []string{"", "e12", "s1/e3#1of2@12.5", `<>&"\ `, "caf\u00e9", "\xff", "new\nline"}
	ints := func() []int {
		if r.Intn(5) == 0 {
			return nil
		}
		out := make([]int, r.Intn(4))
		for i := range out {
			out[i] = r.Intn(100) - 1
		}
		return out
	}
	lists := func() [][]int {
		if r.Intn(5) == 0 {
			return nil
		}
		out := make([][]int, r.Intn(3))
		for i := range out {
			out[i] = ints()
		}
		return out
	}
	str := func() string { return strs[r.Intn(len(strs))] }
	flt := func() float64 { return floats[r.Intn(len(floats))] / float64(1+r.Intn(3)) }
	m := func() spec.MappingSpec {
		return spec.MappingSpec{GuestHost: ints(), LinkPaths: lists(), LinkEdges: lists(), Objective: flt()}
	}
	admit := func() AdmitRec {
		a := AdmitRec{Seq: r.Uint64() >> uint(r.Intn(64)), Tag: str(), M: m()}
		if r.Intn(4) > 0 {
			a.Env.Guests = make([]spec.GuestSpec, r.Intn(3))
			for i := range a.Env.Guests {
				a.Env.Guests[i] = spec.GuestSpec{Name: str(), Proc: flt(), Mem: math.MaxInt64 >> uint(r.Intn(64)), Stor: flt()}
			}
			a.Env.Links = make([]spec.VLinkSpec, r.Intn(3))
			for i := range a.Env.Links {
				a.Env.Links[i] = spec.VLinkSpec{From: r.Intn(5), To: -r.Intn(5), BW: flt(), Lat: flt()}
			}
		}
		return a
	}
	rec := Record{SID: str(), Index: r.Uint64() >> uint(r.Intn(65))}
	switch r.Intn(6) {
	case 0:
		a := admit()
		rec.Kind, rec.Admit = KindAdmit, &a
	case 1:
		rec.Kind = KindBatch
		for i := r.Intn(3); i > 0; i-- {
			rec.Batch = append(rec.Batch, admit())
		}
	case 2:
		rec.Kind, rec.Release = KindRelease, &ReleaseRec{Seq: r.Uint64()}
	case 3:
		mr := &MigrateRec{}
		if r.Intn(4) > 0 {
			mr.Moves = make([]MoveRec, r.Intn(3))
			for i := range mr.Moves {
				mr.Moves[i] = MoveRec{Seq: r.Uint64(), Guest: r.Intn(9), From: r.Intn(9), To: -r.Intn(9)}
			}
			mr.Envs = make([]MigrateEnvRec, r.Intn(3))
			for i := range mr.Envs {
				mr.Envs[i] = MigrateEnvRec{Seq: r.Uint64(), Tag: str(), M: m()}
			}
		}
		rec.Kind, rec.Migrate = KindMigrate, mr
	case 4:
		rec.Kind = KindClose
	case 5:
		rec.Kind, rec.Restore = KindRestore, &RestoreRec{Kind: "host", Target: r.Intn(9)}
	}
	return reflect.ValueOf(quickRecord{rec})
}

// TestQuickFramePayloadIsJSONMarshal is the "same bytes on disk" half
// of the codec's contract: whichever encoder appendFrame used, the
// payload is json.Marshal(rec), and reading it back gives what
// json.Unmarshal gives.
func TestQuickFramePayloadIsJSONMarshal(t *testing.T) {
	err := quick.Check(func(q quickRecord) bool {
		want, err := json.Marshal(&q.R)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := appendFrame([]byte("earlier frames"), &q.R)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, append([]byte("earlier frames"), frameOf(want)...)) {
			t.Errorf("frame of %#v:\n got %q\nwant %q", q.R, frame[len("earlier frames")+frameHeaderSize:], want)
			return false
		}
		readAgrees(t, want)
		return true
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
	// What encoding/json refuses, appendFrame refuses in its words.
	bad := &Record{Kind: KindAdmit, Admit: &AdmitRec{M: spec.MappingSpec{Objective: math.NaN()}}}
	_, wantErr := json.Marshal(bad)
	if _, err := appendFrame(nil, bad); err == nil || errors.Unwrap(err).Error() != wantErr.Error() {
		t.Fatalf("NaN objective: appendFrame %v, json.Marshal %v", err, wantErr)
	}
}

package wal

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jsonx"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/virtual"
	"repro/internal/workload"
)

// An admit record's "env" is the request's own bytes when they arrived
// compact (spec.EnvSpec.ScanJSON). These tests hold that short cut to the
// codec's contract: what recovers is what was mapped, an older reader
// accepts the payload, and for a client that marshals with encoding/json
// the bytes on disk are json.Marshal(record) as they always were.

// arrive decodes body the way a request's fast path does. ok is false
// when the scanner declines the body or the spec does not convert.
func arrive(body []byte) (es spec.EnvSpec, env *virtual.Env, ok bool) {
	var s jsonx.Scanner
	s.Reset(body)
	if !es.ScanJSON(&s) || !s.End() {
		return es, nil, false
	}
	env, err := es.ToEnv()
	return es, env, err == nil
}

// admitFrame logs the admission of env under tag as the commit hook
// does and returns the frame's payload with the record it encodes.
func admitFrame(t *testing.T, c *cluster.Cluster, env *virtual.Env, tag string) ([]byte, *Record) {
	t.Helper()
	ev := core.Event{Index: 3, Type: core.EventAdmit,
		Admit: &core.AdmitInfo{Seq: 2, Tag: tag, Env: env, M: mapping.New(c, env)}}
	rec := RecordFromEvent(testSID, cluster.VMMOverhead{}, ev)
	frame, err := appendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame[frameHeaderSize:], rec
}

// sameEnv compares two environments guest for guest and link for link,
// floats by their bits.
func sameEnv(a, b *virtual.Env) bool {
	if a.NumGuests() != b.NumGuests() || a.NumLinks() != b.NumLinks() {
		return false
	}
	bits := math.Float64bits
	for i, g := range a.Guests() {
		h := b.Guests()[i]
		if g.ID != h.ID || g.Name != h.Name || bits(g.Proc) != bits(h.Proc) || g.Mem != h.Mem || bits(g.Stor) != bits(h.Stor) {
			return false
		}
	}
	for i, l := range a.Links() {
		k := b.Links()[i]
		if l.ID != k.ID || l.From != k.From || l.To != k.To || bits(l.BW) != bits(k.BW) || bits(l.Lat) != bits(k.Lat) {
			return false
		}
	}
	return true
}

// FuzzAdmitEnvBytesReplay: whatever environment the fast path accepts,
// however it is spelled, its admit record — verbatim under a plain tag,
// rendered by encoding/json under one that needs escaping — decodes back
// to the environment that was mapped, and the payload is a record to a
// strict encoding/json as well as to the scanner.
func FuzzAdmitEnvBytesReplay(f *testing.F) {
	for _, s := range []string{
		// The environments of FuzzDecodeStrictDifferential's corpus.
		`{"guests":[{"name":"g","proc_mips":1,"mem_mb":2,"stor_gb":3}],"links":[]}`,
		`{"guests":[{"proc_mips":1},{}],"links":[{"from":0,"to":1,"bw_mbps":1e2,"lat_ms":0.5E-1}]}`,
		`{"guests":[{"proc_mips":1e-400,"stor_gb":-0},{"mem_mb":123456789012345678}],"links":[{"from":1,"to":0,"bw_mbps":4.9e-324,"lat_ms":1.7976931348623157e308}]}`,
		`{"links":[{"lat_ms":1.7976931348623157e308,"bw_mbps":4.9e-324,"to":0,"from":1}],"guests":[{"stor_gb":-0,"proc_mips":1e-400},{"mem_mb":123456789012345678}]}`,
		`{"guests":[{"name":"a<b&c>","proc_mips":0.0,"mem_mb":-0},{"name":"two words","stor_gb":2.2250738585072014e-308}],"links":[{"from":1,"to":0}]}`,
		` { "guests" : [ { "proc_mips" : 1 } ] , "links" : [ ] } `,
		`{"guests":[{"proc_mips":1.50}], "links":[]}`,
		`{"guests":[],"links":[]}`,
		`{"guests":[]}`,
		`{}`,
		`{"guests":[{"name":"caf\u00e9"}]}`,
		`{"guests":[{"proc_mips":-1}]}`,
		`{"guests":[{}],"links":[{"from":0,"to":0}]}`,
		`{"guests":[{}],"links":[{"from":0,"to":9}]}`,
	} {
		f.Add([]byte(s))
	}
	for seed := int64(1); seed <= 3; seed++ {
		body, err := json.Marshal(spec.FromEnv(testEnv(seed)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		_, env, ok := arrive(body)
		if !ok {
			return
		}
		c, _ := testCluster(t)
		for _, tag := range []string{"e7", "s1/<e7>"} {
			payload, _ := admitFrame(t, c, env, tag)
			dec := json.NewDecoder(bytes.NewReader(payload))
			dec.DisallowUnknownFields()
			var std Record
			if err := dec.Decode(&std); err != nil {
				t.Fatalf("body %q: payload %q: %v", body, payload, err)
			}
			readAgrees(t, payload)
			rec, err := new(decoder).decode(payload)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []*Record{rec, &std} {
				back, err := got.Admit.Env.ToEnv()
				if err != nil || !sameEnv(back, env) || got.Admit.Tag != tag {
					t.Fatalf("body %q, tag %q: payload %q replays as %+v (%v), admitted %+v",
						body, tag, payload, got.Admit.Env, err, spec.FromEnv(env))
				}
			}
		}
	})
}

// marshalledEnv draws an environment ToEnv accepts around the values
// that separate a careless encoder from encoding/json's.
func marshalledEnv(r *rand.Rand) spec.EnvSpec {
	floats := []float64{0, 1e21, 1e-7, 5e-324, 123.456, 1e20, 999999.9999999999, math.MaxFloat64, 1e-6, 0.1}
	names := []string{"", "g1", "a b", `<>&"\ `, "caf\u00e9", "new\nline"}
	flt := func() float64 { return floats[r.Intn(len(floats))] / float64(1+r.Intn(3)) }
	var es spec.EnvSpec
	if r.Intn(8) > 0 {
		es.Guests = make([]spec.GuestSpec, r.Intn(5))
		for i := range es.Guests {
			es.Guests[i] = spec.GuestSpec{Name: names[r.Intn(len(names))], Proc: flt(), Mem: math.MaxInt64 >> uint(r.Intn(64)), Stor: flt()}
		}
	}
	if n := len(es.Guests); n >= 2 || r.Intn(2) == 0 {
		es.Links = []spec.VLinkSpec{}
		for i := r.Intn(4); n >= 2 && i > 0; i-- {
			from := r.Intn(n)
			es.Links = append(es.Links, spec.VLinkSpec{From: from, To: (from + 1 + r.Intn(n-1)) % n, BW: flt(), Lat: flt()})
		}
	}
	return es
}

// TestFramePayloadOfMarshalledBodyIsJSONMarshal is
// TestQuickFramePayloadIsJSONMarshal for records that carry a request's
// bytes: when the body was json.Marshal's output the frame is
// json.Marshal(record) byte for byte — whether the environment was
// carried verbatim (plain names) or rendered (names the scanner leaves to
// encoding/json) — and so is the frame of a body with a blank in it, and
// of a request changed after it was decoded, which are always rendered.
func TestFramePayloadOfMarshalledBodyIsJSONMarshal(t *testing.T) {
	c, _ := testCluster(t)
	rng := rand.New(rand.NewSource(4))
	verbatim := 0
	check := func(what string, body []byte, wantVerbatim bool, edit func(*spec.EnvSpec)) {
		t.Helper()
		var es spec.EnvSpec
		if err := spec.DecodeStrict(bytes.NewReader(body), &es); err != nil {
			t.Fatalf("%s %s: %v", what, body, err)
		}
		if edit != nil {
			edit(&es)
		}
		env, err := es.ToEnv()
		if err != nil {
			t.Fatalf("%s %s: %v", what, body, err)
		}
		payload, rec := admitFrame(t, c, env, "e7")
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("%s %s:\n  frame %s\nmarshal %s", what, body, payload, want)
		}
		if got := env.Source() != nil; got != wantVerbatim {
			t.Fatalf("%s %s: carried verbatim = %v, want %v", what, body, got, wantVerbatim)
		}
		if wantVerbatim {
			verbatim++
		}
		readAgrees(t, payload)
	}
	for i := 0; i < 2000; i++ {
		es := marshalledEnv(rng)
		if i%10 == 0 {
			p := workload.HighLevelParams(2+rng.Intn(30), 0.05)
			if i%20 == 0 {
				p = workload.LowLevelParams(2+rng.Intn(30), 0.05)
			}
			es = spec.FromEnv(workload.GenerateEnv(p, rng))
		}
		// FromEnv writes null for an empty list; a request that said []
		// is carried as it said it and recovers as the same environment,
		// so only the canonical form can equal json.Marshal(record).
		if len(es.Guests) == 0 {
			es.Guests = nil
		}
		if len(es.Links) == 0 {
			es.Links = nil
		}
		var line bytes.Buffer
		if err := json.NewEncoder(&line).Encode(es); err != nil {
			t.Fatal(err)
		}
		plain := true
		for _, g := range es.Guests {
			ok := true
			jsonx.AppendString(nil, g.Name, &ok)
			plain = plain && ok && g.Mem < 1e18 // the scanner's integers stop at 18 digits
		}
		check("marshalled", line.Bytes(), plain && es.Guests != nil && es.Links != nil, nil)

		var indented bytes.Buffer
		if err := json.Indent(&indented, line.Bytes(), "", " "); err != nil {
			t.Fatal(err)
		}
		check("indented", indented.Bytes(), false, nil)
		if len(es.Guests) > 0 {
			check("edited", line.Bytes(), false, func(e *spec.EnvSpec) { e.Guests[0].Proc = 7.25 })
		}
	}
	if verbatim < 200 {
		t.Fatalf("only %d of 2000 marshalled bodies were carried verbatim", verbatim)
	}
}

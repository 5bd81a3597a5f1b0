package spec_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jsonx"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/workload"
)

// stdDecode is DecodeStrict as it was before the fast path: the oracle.
func stdDecode(r io.Reader, out interface{}) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(out)
}

// exported is v without the bytes an EnvSpec the fast path decoded keeps
// of its compact input: what encoding/json, which decodes into exported
// fields only, can be held to.
func exported(v interface{}) interface{} {
	switch v := v.(type) {
	case spec.EnvSpec:
		return spec.EnvSpec{Guests: v.Guests, Links: v.Links}
	case server.MapEnvRequest:
		v.Env = spec.EnvSpec{Guests: v.Env.Guests, Links: v.Env.Links}
		return v
	}
	return v
}

// decodeAgrees holds DecodeStrict to encoding/json on one input and one
// target type: same verdict, same error text, and the same target
// afterwards — nil against empty slices included, and also after a
// rejection, where encoding/json leaves what it had decoded so far.
func decodeAgrees[T any](t *testing.T, data []byte) {
	t.Helper()
	var got, want T
	gotErr := spec.DecodeStrict(bytes.NewReader(data), &got)
	wantErr := stdDecode(bytes.NewReader(data), &want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%T from %q:\n DecodeStrict: %v\nencoding/json: %v", got, data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(exported(got), exported(want)) {
		t.Fatalf("%T from %q:\n DecodeStrict: %#v\nencoding/json: %#v", got, data, got, want)
	}
}

// generatedRequests renders n seeded workload environments of up to
// maxGuests guests the way hmnperf and the smoke scripts post them.
func generatedRequests(t testing.TB, n, maxGuests int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var out [][]byte
	for i := 0; i < n; i++ {
		p := workload.HighLevelParams(2+rng.Intn(maxGuests-1), 0.05)
		if i%2 == 1 {
			p = workload.LowLevelParams(2+rng.Intn(maxGuests-1), 0.05)
		}
		body, err := json.Marshal(server.MapEnvRequest{Env: spec.FromEnv(workload.GenerateEnv(p, rng))})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// generatedMappings maps a few seeded environments onto the paper's
// torus and renders the mappings as the daemon and the WAL write them.
func generatedMappings(t testing.TB, n, maxGuests int) []spec.MappingSpec {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	c, err := topology.Torus2D(workload.GenerateHosts(workload.PaperClusterParams(), rng), workload.TorusRows, workload.TorusCols, workload.PhysLinkBW, workload.PhysLinkLat)
	if err != nil {
		t.Fatal(err)
	}
	var out []spec.MappingSpec
	for i := 0; i < n; i++ {
		env := workload.GenerateEnv(workload.HighLevelParams(2+rng.Intn(maxGuests-1), 0.1), rng)
		m, err := (&core.HMN{}).Map(c, env)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, spec.FromMapping(m, cluster.VMMOverhead{}))
	}
	return out
}

// TestFastPathAcceptsGeneratedSpecs keeps the fast path from quietly
// degrading into always-decline, which no differential test would
// notice: everything the workload generator and the mapper produce must
// be decoded and encoded by hand, not by the fallback.
func TestFastPathAcceptsGeneratedSpecs(t *testing.T) {
	var s jsonx.Scanner
	for _, body := range generatedRequests(t, 32, 40) {
		var req server.MapEnvRequest
		s.Reset(body)
		if !req.ScanJSON(&s) {
			t.Fatalf("MapEnvRequest fast path declined a generated request: %s", body)
		}
		env, err := json.Marshal(req.Env)
		if err != nil {
			t.Fatal(err)
		}
		var es spec.EnvSpec
		s.Reset(env)
		if !es.ScanJSON(&s) {
			t.Fatalf("EnvSpec fast path declined a generated environment: %s", env)
		}
		if out, ok := es.AppendJSON(nil); !ok || !bytes.Equal(out, env) {
			t.Fatalf("EnvSpec.AppendJSON declined or differs:\n got %s\nwant %s", out, env)
		}
	}
	for _, ms := range generatedMappings(t, 8, 24) {
		want, err := json.Marshal(ms)
		if err != nil {
			t.Fatal(err)
		}
		out, ok := ms.AppendJSON(nil)
		if !ok || !bytes.Equal(out, want) {
			t.Fatalf("MappingSpec.AppendJSON declined or differs:\n got %s\nwant %s", out, want)
		}
		var back spec.MappingSpec
		s.Reset(want)
		if !back.ScanJSON(&s) || !reflect.DeepEqual(back, ms) {
			t.Fatalf("MappingSpec fast path declined or differs on %s", want)
		}
		resp := server.MapEnvResponse{ID: "e7", Mapping: ms}
		if out, ok := resp.AppendJSON(nil); !ok {
			t.Fatalf("MapEnvResponse.AppendJSON declined: %s", out)
		}
	}
}

// envBytes returns the "env" value of a request body as it stands there.
func envBytes(t *testing.T, body []byte) []byte {
	t.Helper()
	var raw struct {
		Env json.RawMessage `json:"env"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	return raw.Env
}

// TestCompactEnvIsCarriedVerbatim: an environment the fast path decoded
// — compact, keys in json.Marshal's order — is rendered, for as long as
// nothing changes it, as the bytes it arrived in — however the client
// spelled them — through ToEnv and FromEnv and into AppendJSON; the
// short cut fires for every body the workload generator and a
// json.Encoder produce (hmnperf, the smoke scripts), where those bytes
// are json.Marshal's own; and everything else is rendered from its
// fields as before.
func TestCompactEnvIsCarriedVerbatim(t *testing.T) {
	carried := func(body string) (server.MapEnvRequest, []byte) {
		t.Helper()
		var req server.MapEnvRequest
		if err := spec.DecodeStrict(strings.NewReader(body), &req); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		env, err := req.Env.ToEnv()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		got, err := spec.AppendJSON(nil, spec.FromEnv(env))
		got = bytes.TrimSuffix(got, []byte("\n"))
		if src := env.Source(); err != nil || (src != nil && !bytes.Equal(src, got)) {
			t.Fatalf("%s: environment carries %s but its record renders %s", body, src, got)
		}
		if direct, _ := req.Env.AppendJSON(nil); env.Source() != nil && !bytes.Equal(got, direct) {
			t.Fatalf("%s: record renders %s, the decoded spec %s", body, got, direct)
		}
		return req, got
	}
	for _, body := range generatedRequests(t, 32, 40) {
		var line bytes.Buffer
		var req server.MapEnvRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&line).Encode(req); err != nil {
			t.Fatal(err)
		}
		req, got := carried(line.String())
		want, _ := json.Marshal(req.Env)
		if env, _ := req.Env.ToEnv(); env.Source() == nil || !bytes.Equal(got, want) {
			t.Fatalf("a generated request's environment was not carried verbatim:\n got %s\nwant %s", got, want)
		}
	}
	for _, body := range []string{
		// Spellings json.Marshal never writes, keys missing, a name it
		// would escape: all compact and in order, all kept.
		`{"env":{"guests":[{"name":"a<b&c","proc_mips":1E0,"stor_gb":-0},{"mem_mb":123456789012345678}],"links":[{"from":0,"to":1,"bw_mbps":1e2,"lat_ms":0.50}]}}`,
		`{"env":{"guests":[{"proc_mips":1e-400,"mem_mb":-0}]}}`,
		`{"env":{"guests":[{"name":"two words"}]}}`,
		`{"env":{}}`,
	} {
		if _, got := carried(body); !bytes.Equal(got, envBytes(t, []byte(body))) {
			t.Errorf("%s: compact environment rendered as %s", body, got)
		}
	}
	for _, body := range []string{
		// A blank between tokens or around the environment, keys out of
		// order, an escape the scanner declines, a body the scanner
		// declines elsewhere: rendered from the fields.
		`{"env":{"guests":[{"proc_mips":1.50}], "links":[]}}`,
		"{\"env\":{\"guests\":[{\"proc_mips\":1.50}]\n}}",
		` { "env" :{"guests":[{"proc_mips":1e-400,"mem_mb":-0}]} } `,
		`{"env":{"links":[{"to":1,"from":0,"lat_ms":0.50,"bw_mbps":1e2}],"guests":[{"stor_gb":-0,"name":"a<b&c","proc_mips":1E0},{"mem_mb":123456789012345678}]}}`,
		`{"env":{"links":[],"guests":[{"proc_mips":1.50}]}}`,
		`{"env":{"guests":[{"name":"caf\u00e9","proc_mips":1.50}]}}`,
	} {
		req, got := carried(body)
		env, _ := req.Env.ToEnv()
		if want, _ := json.Marshal(spec.FromEnv(env)); env.Source() != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: rendered as %s, want json.Marshal's %s", body, got, want)
		}
	}
	// Recovery's decoder reads every record through one target and keeps
	// nothing of the log.
	var es spec.EnvSpec
	var s jsonx.Scanner
	s.Reset([]byte(`{"guests":[{"proc_mips":1.50}],"links":[]}`))
	if !es.ScanReuse(&s) {
		t.Fatal("ScanReuse declined a plain environment")
	}
	if env, err := es.ToEnv(); err != nil || env.Source() != nil {
		t.Errorf("ScanReuse kept the bytes it scanned (%v)", err)
	}
}

// TestStaleEnvBytesAreNeverEmitted: once any field of a decoded
// environment changes, the bytes it arrived in are dropped everywhere —
// the environment ToEnv builds does not carry them and AppendJSON renders
// the fields.
func TestStaleEnvBytesAreNeverEmitted(t *testing.T) {
	const body = `{"env":{"guests":[{"name":"g0","proc_mips":1.50,"mem_mb":2,"stor_gb":3},{"name":"g1"}],"links":[{"from":0,"to":1,"bw_mbps":4,"lat_ms":5}]}}`
	for name, mutate := range map[string]func(*spec.EnvSpec){
		"proc":        func(e *spec.EnvSpec) { e.Guests[0].Proc = 2 },
		"mem":         func(e *spec.EnvSpec) { e.Guests[0].Mem++ },
		"stor":        func(e *spec.EnvSpec) { e.Guests[1].Stor = math.Copysign(0, -1) },
		"name":        func(e *spec.EnvSpec) { e.Guests[1].Name = "g2" },
		"endpoints":   func(e *spec.EnvSpec) { e.Links[0].From, e.Links[0].To = 1, 0 },
		"bandwidth":   func(e *spec.EnvSpec) { e.Links[0].BW = 4.000000000000001 },
		"latency":     func(e *spec.EnvSpec) { e.Links[0].Lat = 0 },
		"guest added": func(e *spec.EnvSpec) { e.Guests = append(e.Guests, spec.GuestSpec{}) },
		"links nil":   func(e *spec.EnvSpec) { e.Links = nil },
		"links empty": func(e *spec.EnvSpec) { e.Links = e.Links[:0] },
		"swapped":     func(e *spec.EnvSpec) { e.Guests[0], e.Guests[1] = e.Guests[1], e.Guests[0] },
	} {
		for _, stage := range []string{"decoded", "converted back"} {
			var req server.MapEnvRequest
			if err := spec.DecodeStrict(strings.NewReader(body), &req); err != nil {
				t.Fatal(err)
			}
			es := req.Env
			if stage == "converted back" {
				env, err := es.ToEnv()
				if err != nil || env.Source() == nil {
					t.Fatalf("unchanged environment lost its bytes (%v)", err)
				}
				es = spec.FromEnv(env)
			}
			if got, _ := es.AppendJSON(nil); !bytes.Equal(got, envBytes(t, []byte(body))) {
				t.Fatalf("unchanged %s spec rendered as %s", stage, got)
			}
			mutate(&es)
			want, err := json.Marshal(es)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := es.AppendJSON(nil); !ok || !bytes.Equal(got, want) {
				t.Errorf("%s changed on the %s spec: rendered %s, want %s", name, stage, got, want)
			}
			if env, err := es.ToEnv(); err != nil || env.Source() != nil {
				t.Errorf("%s changed on the %s spec: ToEnv still vouches for %s (%v)", name, stage, env.Source(), err)
			}
		}
	}
}

// fieldAgrees holds the fast path of one target type to encoding/json
// with DisallowUnknownFields on one body: it takes the body exactly when
// fast says, what it takes json.Decoder takes to the same value, and
// DecodeStrict — fast path or fallback — answers as json.Decoder does.
func fieldAgrees[T any, P interface {
	*T
	ScanJSON(*jsonx.Scanner) bool
}](t *testing.T, body string, fast bool) {
	t.Helper()
	var got, want T
	var s jsonx.Scanner
	s.Reset([]byte(body))
	took := P(&got).ScanJSON(&s)
	err := stdDecode(strings.NewReader(body), &want)
	switch {
	case took != fast:
		t.Errorf("%T fast path took=%v %s, want %v", got, took, body, fast)
	case took && err != nil:
		t.Errorf("%T fast path took %s, which encoding/json rejects: %v", got, body, err)
	case took && !reflect.DeepEqual(exported(got), exported(want)):
		t.Errorf("%T from %s:\n fast path: %#v\nencoding/json: %#v", got, body, got, want)
	}
	decodeAgrees[T](t, []byte(body))
}

// TestFieldMatchesEncodingJSON walks the key shapes jsonx.Scanner.Field
// must get right for every object the request decoder reads: keys in
// json.Marshal's order, any of them omitted, are taken to the values
// encoding/json decodes; keys out of that order, blanks around ':' and
// ',', and a repeated, differently-cased or unknown key are declined.
func TestFieldMatchesEncodingJSON(t *testing.T) {
	envs := []struct {
		body string
		fast bool
	}{
		// EnvSpec, GuestSpec, VLinkSpec.
		{`{"guests":[{"name":"a","proc_mips":1,"mem_mb":2,"stor_gb":3}],"links":[{"from":0,"to":1,"bw_mbps":4,"lat_ms":5}]}`, true},
		{`{"guests":[{"proc_mips":1,"mem_mb":2,"stor_gb":3}],"links":[{"to":1,"bw_mbps":4}]}`, true},
		{`{"links":[{"from":0,"lat_ms":5}]}`, true},
		{`{"links":[{"lat_ms":5,"bw_mbps":4,"to":1,"from":0}],"guests":[{"stor_gb":3,"mem_mb":2,"proc_mips":1,"name":"a"}]}`, false},
		{`{"guests":[{"mem_mb":2,"name":"a","stor_gb":3,"proc_mips":1},{"proc_mips":1,"mem_mb":2,"stor_gb":3}]}`, false},
		{"{ \"guests\" : [ { \"name\" : \"a\" , \"proc_mips\" :1,\"mem_mb\": 2 ,\n\"stor_gb\"\t:\t3 } ] , \"links\":[{\"from\" :0}] }", false},
		{`{"guests":[{"name":"a","proc_mips":1} ]}`, false},
		{`{"guests":[{"name":"a","proc_mips":1,"proc_mips":2}]}`, false},
		{`{"guests":[],"links":[],"guests":[{"proc_mips":1}]}`, false},
		{`{"links":[{"from":0,"to":1,"from":2}]}`, false},
		{`{"guests":[{"Name":"a"}]}`, false},
		{`{"guests":[{"PROC_MIPS":1}]}`, false},
		{`{"Links":[]}`, false},
		{`{"links":[{"From":0}]}`, false},
		{`{"guests":[{"proc_mips":1,"cores":2}]}`, false},
		{`{"guests":[{"proc":1}]}`, false},
		{`{"guests":[{"proc_mips_x":1}]}`, false},
		{`{"links":[{"bw":1}]}`, false},
		{`{"guests":[],"extra":null}`, false},
		{`{"guests":[{"n\u0061me":"a"}]}`, false},
		{`{"":1}`, false},
	}
	for _, tc := range envs {
		fieldAgrees[spec.EnvSpec](t, tc.body, tc.fast)
		fieldAgrees[server.MapEnvRequest](t, `{"env":`+tc.body+`}`, tc.fast)
	}
	for _, tc := range []struct {
		body string
		fast bool
	}{
		// MapEnvRequest.
		{`{"env":{"links":[{"from":0,"to":1}]}}`, true},
		{`{}`, true},
		{`{"env":{"guests":[{"proc_mips":1}]},"plan":true,"plan_shell":false}`, false},
		{`{"plan":true}`, false},
		{`{"env":{},"plan_shell":true}`, false},
		{`{"plan_shell":true,"plan":false,"env":{"links":[],"guests":[]}}`, false},
		{` { "plan" : true , "env" : { } } `, false},
		{`{"env": {}}`, false},
		{`{"plan":true,"plan":false}`, false},
		{`{"env":{},"env":{}}`, false},
		{`{"Env":{}}`, false},
		{`{"PLAN":true}`, false},
		{`{"env":{},"planx":true}`, false},
		{`{"plan_":true}`, false},
	} {
		fieldAgrees[server.MapEnvRequest](t, tc.body, tc.fast)
	}
	for _, tc := range []struct {
		body string
		fast bool
	}{
		// MappingSpec.
		{`{"guest_host":[0,1],"link_paths":[[0,1],[1]],"link_edges":[[0],[]],"objective":1.5}`, true},
		{`{"guest_host":[0],"link_paths":[[0]],"objective":1}`, true},
		{`{"link_edges":[[0]],"objective":1}`, true},
		{`{"objective":1.5,"link_edges":[[0]],"link_paths":[[0,1]],"guest_host":[0,1]}`, false},
		{"{ \"guest_host\" : [ 0 , 1 ] ,\"link_paths\":[ [0 ,1] , [ 2 ] ],\n\"objective\" : 0 }", false},
		{`{"guest_host":[0, 1],"objective":0}`, false},
		{`{"guest_host":[0],"guest_host":[1]}`, false},
		{`{"objective":1,"link_paths":[],"objective":2}`, false},
		{`{"Guest_Host":[0]}`, false},
		{`{"link_Edges":[]}`, false},
		{`{"guest_host":[0],"paths":[]}`, false},
		{`{"guest_hosts":[0]}`, false},
	} {
		fieldAgrees[spec.MappingSpec](t, tc.body, tc.fast)
	}
}

// FuzzDecodeStrictDifferential is the proof the hand-written decoder
// ships with: on arbitrary bytes, DecodeStrict into each fast-path
// target and a plain json.Decoder with DisallowUnknownFields agree on
// accept/reject, on the error text and on the decoded value. CI runs it
// for a short burst; `make fuzz` for longer.
func FuzzDecodeStrictDifferential(f *testing.F) {
	// Small seeds: the engine minimizes every input that finds new
	// coverage, and on a 7 KB body that is most of a fuzz budget.
	for _, body := range generatedRequests(f, 6, 3) {
		f.Add(body)
	}
	for _, ms := range generatedMappings(f, 3, 3) {
		body, err := json.Marshal(ms)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, s := range []string{
		// Everything on the decline list, each next to a plain twin.
		`{"env":{"guests":[{"name":"g","proc_mips":1,"mem_mb":2,"stor_gb":3}],"links":[]},"plan":true,"plan_shell":false}`,
		`{"env":{"guests":[],"links":[]}} trailing bytes are ignored`,
		`{"env":{"guests":[{"proc_mips":1}],"links":[{"from":0,"to":1,"bw_mbps":1e2,"lat_ms":0.5E-1}]}}{"second":1}`,
		`{"env":{"guests":null,"links":null}}`,
		`{"env":null}`,
		`null`,
		`{"Env":{"guests":[]}}`,
		`{"env":{"guests":[]},"env":{"links":[]}}`,
		`{"env":{"guests":[{"name":"a\u0041\n"}]}}`,
		"{\"env\":{\"guests\":[{\"name\":\"caf\xc3\xa9 \xff\"}]}}",
		"{\"env\":{\"guests\":[{\"name\":\"tab\there\"}]}}",
		`{"env":{"guests":[{"mem_mb":1.0}]}}`,
		`{"env":{"guests":[{"mem_mb":1e3}]}}`,
		`{"env":{"guests":[{"mem_mb":9223372036854775807},{"mem_mb":9223372036854775808},{"mem_mb":-9223372036854775808}]}}`,
		`{"env":{"guests":[{"mem_mb":123456789012345678},{"mem_mb":-123456789012345678}]}}`,
		`{"env":{"guests":[{"proc_mips":1e400}]}}`,
		`{"env":{"guests":[{"proc_mips":1e-400,"stor_gb":-0}]}}`,
		`{"env":{"guests":[{"proc_mips":01}]}}`,
		`{"env":{"guests":[{"proc_mips":-}]}}`,
		`{"env":{"guests":[{"proc_mips":1.}]}}`,
		`{"env":{"guests":[{"proc_mips":.5}]}}`,
		`{"env":{"guests":[{"proc_mips":"1"}]}}`,
		`{"env":{"guests":[{"proc_mips":1,}]}}`,
		`{"env":{"guests":[,]}}`,
		`{"env":{"guests":[{}],"links":[{}],}}`,
		`{"env":{"links":[{"from":1,"to":0,"bw_mbps":4.9e-324,"lat_ms":1.7976931348623157e308}]}}`,
		`{"plan":1}`,
		`{"plan":tru}`,
		`{"plan":truex}`,
		`{"bogus":1,"env":{"guests":[{"proc_mips":1}]}}`,
		` { "guests" : [ { "proc_mips" : 1 } ] , "links" : [ ] } `,
		// Keys out of json.Marshal's order, and blanks: the scanner
		// declines them, encoding/json decodes them.
		`{"plan":true,"env":{"links":[{"lat_ms":1,"to":1,"from":0,"bw_mbps":2}],"guests":[{"stor_gb":1,"name":"g","mem_mb":2,"proc_mips":3}]}}`,
		`{"objective":1,"link_edges":[[3,4]],"guest_host":[2],"link_paths":[[0,1,2]]}`,
		"{\"guest_host\" :[ 0 ,\t1 ],\"link_paths\":[ [ 0 , 1 ] ,[2]\n],\"objective\" : 2}",
		"{ \"env\" :{ \"guests\":[ {\"name\" : \"g\",\"proc_mips\" :1 } ,{ } ] } ,\"plan\":false }",
		`{"guest_host":[0,2],"link_paths":[[0,1,2],[]],"link_edges":[[0,1],[]],"objective":12.5}`,
		`{"guest_host":[],"link_paths":[[]],"objective":-0.0}`,
		`{"guest_host":[1.5]}`,
		`{"guest_host":[[1]]}`,
		`{"link_paths":[1]}`,
		`{"objective":[]}`,
		`[]`, `{`, `{"env"`, `{"env":`, `{"env":{`, ``, ` `, "\x00", `{"env":{"guests":[{"name":"`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAgrees[server.MapEnvRequest](t, data)
		decodeAgrees[spec.EnvSpec](t, data)
		decodeAgrees[spec.MappingSpec](t, data)
	})
}

// TestDecodeStrictReadErrors cuts request bodies short with a read
// error, as http.MaxBytesReader does: DecodeStrict must answer exactly
// as a json.Decoder reading the same stream — the error when it lands
// inside the first value, success when that value was already complete.
func TestDecodeStrictReadErrors(t *testing.T) {
	body := generatedRequests(t, 1, 40)[0]
	boom := errors.New("http: request body too large")
	cut := func(n int) io.Reader {
		return io.MultiReader(bytes.NewReader(body[:n]), iotest.ErrReader(boom))
	}
	for _, n := range []int{0, 1, len(body) / 2, len(body) - 1, len(body)} {
		var got, want server.MapEnvRequest
		gotErr := spec.DecodeStrict(iotest.OneByteReader(cut(n)), &got)
		wantErr := stdDecode(cut(n), &want)
		if (n < len(body)) != (wantErr != nil) {
			t.Fatalf("oracle at cut %d/%d: %v", n, len(body), wantErr)
		}
		if !errors.Is(gotErr, wantErr) || !reflect.DeepEqual(exported(got), exported(want)) {
			t.Fatalf("cut %d/%d: DecodeStrict %v, encoding/json %v", n, len(body), gotErr, wantErr)
		}
	}
	// A target that already holds data is encoding/json's to merge into.
	got := server.MapEnvRequest{Env: spec.EnvSpec{Links: []spec.VLinkSpec{{From: 3}}}}
	want := got
	if err := spec.DecodeStrict(bytes.NewReader(body), &got); err != nil {
		t.Fatal(err)
	}
	if err := stdDecode(bytes.NewReader(body), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode into a non-zero target diverged from encoding/json")
	}
}

// quickSpecs draws specs with the values that separate a careless float
// or string encoder from encoding/json's: signed zeros, subnormals, the
// 'e'/'f' format boundaries, the int64 extremes, strings that need
// escaping or are not UTF-8, nil against empty slices.
type quickSpecs struct {
	Env spec.EnvSpec
	Map spec.MappingSpec
}

var (
	hardFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1e20, 1e21, -1e21, 1.5e300,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, math.SmallestNonzeroFloat64, 100, 1234.5678, 1e-9, 1e-10, 123456789012345680000}
	hardInts    = []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 53, 999999999999999999, 1000000000000000000}
	hardStrings = []string{"", "g", "guest-12", "a b", `<>&"\ `, "caf\u00e9", "\xff\xfe", "tab\t", "line\u2028sep", "\x7f", "'quoted'"}
)

func hardFloat(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return hardFloats[r.Intn(len(hardFloats))]
	case 1:
		return math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(r.Intn(2047))<<52) // any finite float
	}
	return r.NormFloat64() * 1000
}

func hardIntSlice(r *rand.Rand) []int {
	if r.Intn(6) == 0 {
		return nil
	}
	out := make([]int, r.Intn(4))
	for i := range out {
		out[i] = int(hardInts[r.Intn(len(hardInts))])
	}
	return out
}

func hardIntLists(r *rand.Rand) [][]int {
	if r.Intn(6) == 0 {
		return nil
	}
	out := make([][]int, r.Intn(4))
	for i := range out {
		out[i] = hardIntSlice(r)
	}
	return out
}

func (quickSpecs) Generate(r *rand.Rand, _ int) reflect.Value {
	var q quickSpecs
	if r.Intn(6) > 0 {
		q.Env.Guests = make([]spec.GuestSpec, r.Intn(4))
		for i := range q.Env.Guests {
			q.Env.Guests[i] = spec.GuestSpec{Name: hardStrings[r.Intn(len(hardStrings))], Proc: hardFloat(r),
				Mem: hardInts[r.Intn(len(hardInts))], Stor: hardFloat(r)}
		}
	}
	if r.Intn(6) > 0 {
		q.Env.Links = make([]spec.VLinkSpec, r.Intn(4))
		for i := range q.Env.Links {
			q.Env.Links[i] = spec.VLinkSpec{From: r.Intn(9) - 1, To: int(hardInts[r.Intn(len(hardInts))]), BW: hardFloat(r), Lat: hardFloat(r)}
		}
	}
	q.Map = spec.MappingSpec{GuestHost: hardIntSlice(r), LinkPaths: hardIntLists(r), LinkEdges: hardIntLists(r), Objective: hardFloat(r)}
	return reflect.ValueOf(q)
}

// TestQuickAppendJSONMatchesEncodingJSON is the encoder differential:
// whatever AppendJSON accepts is json.Marshal's output byte for byte,
// whatever it declines json.Marshal escapes or refuses, and the
// AppendJSON/WriteJSON entry points equal json.Encoder either way.
func TestQuickAppendJSONMatchesEncodingJSON(t *testing.T) {
	check := func(v interface{}) bool {
		want, wantErr := json.Marshal(v)
		got, ok := v.(jsonx.Appender).AppendJSON([]byte("prefix"))
		if ok && (wantErr != nil || string(got) != "prefix"+string(want)) {
			t.Errorf("AppendJSON accepted %#v:\n got %s\nwant %s (%v)", v, got, want, wantErr)
			return false
		}
		line, err := spec.AppendJSON(nil, v)
		if (err == nil) != (wantErr == nil) || (err == nil && string(line) != string(want)+"\n") {
			t.Errorf("spec.AppendJSON(%#v):\n got %s (%v)\nwant %s (%v)", v, line, err, want, wantErr)
			return false
		}
		var buf bytes.Buffer
		if err := spec.WriteJSON(&buf, v); (err == nil) != (wantErr == nil) || !bytes.Equal(buf.Bytes(), line) {
			t.Errorf("spec.WriteJSON(%#v) wrote %q (%v)", v, buf.Bytes(), err)
			return false
		}
		return true
	}
	err := quick.Check(func(q quickSpecs) bool {
		return check(q.Env) && check(q.Map) &&
			check(server.MapEnvResponse{ID: hardStrings[len(q.Map.GuestHost)%len(hardStrings)], Mapping: q.Map}) &&
			check(server.AdmitResponse{ID: hardStrings[len(q.Map.LinkPaths)%len(hardStrings)], CutBW: q.Map.Objective, Split: len(q.Map.LinkPaths) > 1, Fallback: len(q.Map.LinkEdges) > 1,
				Fragments: []server.FragmentReport{{Shard: 3, Guests: q.Map.GuestHost, Mapping: q.Map},
					{Mapping: q.Map}}})
	}, &quick.Config{MaxCount: 3000})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if !check(spec.MappingSpec{Objective: bad}) || !check(spec.EnvSpec{Guests: []spec.GuestSpec{{Proc: bad}}}) {
			t.Fatalf("objective %v", bad)
		}
	}
	if !check(server.AdmitResponse{}) || !check(server.MapEnvResponse{}) ||
		!check(server.AdmitResponse{Fragments: []server.FragmentReport{{}, {Shard: 1}}}) {
		t.Fatal("zero responses")
	}
}

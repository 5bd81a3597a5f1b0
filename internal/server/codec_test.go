package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jsonx"
	"repro/internal/spec"
	"repro/internal/virtual"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestWriteJSONEncodesBeforeStatus: a reply that does not encode used to
// be a 200 with a truncated body, because the status line went out
// before the encoder ran. It must be a well-formed 500 — whichever
// encoder refused it — and a reply that does encode goes out as one
// compact line with its Content-Length, not chunked.
func TestWriteJSONEncodesBeforeStatus(t *testing.T) {
	big := spec.MappingSpec{GuestHost: make([]int, 4000), LinkPaths: [][]int{}, Objective: 1.5}
	replies := map[string]interface{}{
		"/nan-std":  ResidualsResponse{ResidualProcMIPS: []float64{1}, StdDev: math.NaN()},
		"/nan-fast": AdmitResponse{ID: "e1", Fragments: []FragmentReport{{Mapping: spec.MappingSpec{Objective: math.Inf(1)}}}},
		"/ok":       AdmitResponse{ID: "e1", Fragments: []FragmentReport{{Mapping: big}}},
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, replies[r.URL.Path])
	}))
	defer ts.Close()

	for path := range replies {
		code, raw, hdr := doJSON(t, ts.Client(), "GET", ts.URL+path, nil)
		if n, err := strconv.Atoi(hdr.Get("Content-Length")); err != nil || n != len(raw) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body (chunked?)", path, hdr.Get("Content-Length"), len(raw))
		}
		if !bytes.HasSuffix(raw, []byte("\n")) || bytes.Count(raw, []byte("\n")) != 1 {
			t.Fatalf("%s: body is not one line: %q", path, raw)
		}
		if path == "/ok" {
			var back AdmitResponse
			if err := json.Unmarshal(raw, &back); code != http.StatusOK || err != nil || len(back.Fragments) != 1 || len(back.Fragments[0].Mapping.GuestHost) != 4000 {
				t.Fatalf("%s: status %d, %v: %.80q", path, code, err, raw)
			}
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(raw, &e); code != http.StatusInternalServerError || err != nil ||
			!strings.Contains(e.Error, "unsupported value") {
			t.Fatalf("%s: status %d, body %q (%v); want a 500 ErrorResponse naming the unsupported value", path, code, raw, err)
		}
	}
}

// TestOversizeBodyIsRejectedAsBefore: the fast decoder buffers the body
// itself, so http.MaxBytesReader's error must still reach the client as
// the 400 encoding/json made of it.
func TestOversizeBodyIsRejectedAsBefore(t *testing.T) {
	_, cs := testbed(t)
	_, ts := startServer(t, Config{MaxBodyBytes: 16 << 10})
	sid := openSession(t, ts.Client(), ts.URL, cs, "")
	code, raw, _ := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions/"+sid+"/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(1, 300))})
	if code != http.StatusBadRequest || !strings.Contains(string(raw), "request body too large") {
		t.Fatalf("oversize body: status %d: %s", code, raw)
	}
	code, raw, _ = doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions/"+sid+"/envs",
		MapEnvRequest{Env: spec.FromEnv(smallEnv(1, 4))})
	if code != http.StatusCreated {
		t.Fatalf("body under the limit: status %d: %s", code, raw)
	}
}

// TestMapCountersResolvedWithSession: the four per-mapper outcome
// counters are looked up when the session is built, not per request, so
// their series exist (at zero) from the moment the session opens.
func TestMapCountersResolvedWithSession(t *testing.T) {
	_, cs := testbed(t)
	_, ts := startServer(t, Config{})
	openSession(t, ts.Client(), ts.URL, cs, "HMN")
	text := scrape(t, ts.Client(), ts.URL)
	for _, outcome := range []string{"attempted", "succeeded", "failed", "rejected"} {
		if v := metricValue(t, text, `hmnd_maps_`+outcome+`_total{mapper="HMN"}`); v != 0 {
			t.Fatalf("%s counter starts at %v", outcome, v)
		}
	}
}

// Allocation budgets for the JSON of one admission at the gated
// switched_churn size (a 40-guest environment): decoding the request
// into the environment the mapper sees, as decodeMapEnv does, and
// encoding the reply plus the admit record's WAL frame. The decode
// budget is the 40 guest names, the two lists' growth steps, the private
// copy of the compact "env" bytes, the scanner's buffer and the five
// arrays of virtual.Build; encoding/json took 70 allocations / 25 KB for
// the body alone, and an AddGuest per guest and AddLink per link 93 for
// the environment. The encode budget is
// the reply's trip through interface{} — the record, which carries the
// request's bytes, allocates nothing.
const (
	decodeAllocBudget = 56
	encodeAllocBudget = 2
)

func TestAdmitCodecAllocsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not apply to the race detector's instrumented allocator")
	}
	c, _ := testbed(t)
	env := workload.GenerateEnv(workload.HighLevelParams(40, 0.02), rand.New(rand.NewSource(2)))
	m, err := (&core.HMN{}).Map(c, env)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(MapEnvRequest{Env: spec.FromEnv(env)})
	if err != nil {
		t.Fatal(err)
	}
	resp := AdmitResponse{ID: "e1", Fragments: []FragmentReport{{Mapping: spec.FromMapping(m, cluster.VMMOverhead{})}}}
	var admitted *virtual.Env
	rd := bytes.NewReader(nil)
	decode := testing.AllocsPerRun(200, func() {
		var req MapEnvRequest
		rd.Reset(body)
		if err := spec.DecodeStrict(rd, &req); err != nil || len(req.Env.Guests) != 40 {
			t.Fatalf("decode: %v", err)
		}
		if admitted, err = req.Env.ToEnv(); err != nil || admitted.Source() == nil {
			t.Fatalf("decoded environment: %v, carried verbatim: %v", err, err == nil && admitted.Source() != nil)
		}
	})
	rec := &wal.Record{Kind: wal.KindAdmit, SID: "s1", Index: 1,
		Admit: &wal.AdmitRec{Seq: 1, Tag: "e1", Env: spec.FromEnv(admitted), M: resp.Fragments[0].Mapping}}
	var out bytes.Buffer
	encode := testing.AllocsPerRun(200, func() {
		out.Reset()
		if err := spec.WriteJSON(&out, resp); err != nil {
			t.Fatal(err)
		}
		buf := jsonx.GetBuffer()
		var ok bool
		if buf.B, ok = rec.AppendJSON(buf.B); !ok {
			t.Fatal("admit record declined")
		}
		buf.Put()
	})
	t.Logf("admit codec: %.1f allocs per request decode (budget %d), %.1f per reply+record encode (budget %d)",
		decode, decodeAllocBudget, encode, encodeAllocBudget)
	if decode > decodeAllocBudget || encode > encodeAllocBudget {
		t.Fatalf("admit codec allocates %.1f per decode (budget %d), %.1f per encode (budget %d)",
			decode, decodeAllocBudget, encode, encodeAllocBudget)
	}
}

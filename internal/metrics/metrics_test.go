package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("x_total", "a counter") != c {
		t.Fatal("Counter must be idempotent per name")
	}

	g := r.Gauge("x_depth", "a gauge")
	g.Set(2.5)
	g.Inc()
	g.Dec()
	g.Add(-0.5)
	if v := g.Value(); math.Abs(v-2) > 1e-12 {
		t.Fatalf("gauge = %v, want 2", v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if s := h.Sum(); math.Abs(s-5.56) > 1e-9 {
		t.Fatalf("sum = %v, want 5.56", s)
	}
	// One bucket per bound and the +Inf bucket past the last.
	for i, want := range []uint64{2, 1, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d holds %d, want %d", i, got, want)
		}
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`maps_total{mapper="HMN"}`, "maps per mapper").Add(3)
	r.Counter(`maps_total{mapper="HMN-C"}`, "maps per mapper").Add(1)
	r.Gauge("queue_depth", "queued requests").Set(7)
	r.GaugeFunc("live_envs", "live environments", func() float64 { return 2 })
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	r.Histogram(`stage_seconds{stage="hosting"}`, "per stage", []float64{1}).Observe(0.25)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		// A labelled histogram's suffixes go on the family, ahead of the
		// labels.
		`stage_seconds{stage="hosting",le="1"} 1`,
		`stage_seconds_sum{stage="hosting"} 0.25`,
		`stage_seconds_count{stage="hosting"} 1`,
		"# TYPE maps_total counter",
		`maps_total{mapper="HMN"} 3`,
		`maps_total{mapper="HMN-C"} 1`,
		"# TYPE queue_depth gauge",
		"queue_depth 7",
		"live_envs 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds{le="0.1"} 1`,
		`lat_seconds{le="1"} 2`,
		`lat_seconds{le="+Inf"} 3`,
		"lat_seconds_sum 2.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must be emitted sorted.
	if strings.Index(out, "# TYPE lat_seconds") > strings.Index(out, "# TYPE maps_total") {
		t.Fatal("families not sorted")
	}
}

func TestUnregisterDropsSeriesAndFamily(t *testing.T) {
	r := NewRegistry()
	r.Gauge(`sess_stddev{session="s1"}`, "per-session stddev").Set(1)
	r.Gauge(`sess_stddev{session="s2"}`, "per-session stddev").Set(2)
	r.Unregister(`sess_stddev{session="s1"}`)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `session="s1"`) {
		t.Fatal("unregistered series still exposed")
	}
	if !strings.Contains(b.String(), `session="s2"`) {
		t.Fatal("sibling series lost")
	}

	r.Unregister(`sess_stddev{session="s2"}`)
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "sess_stddev") {
		t.Fatal("family header must vanish with its last series")
	}
}

func TestHandlerServesText(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

func TestConcurrentUseUnderRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("c_total", "c").Inc()
				r.Gauge("g", "g").Add(1)
				r.Histogram("h_seconds", "h", nil).Observe(0.01)
				var b strings.Builder
				_ = r.WriteText(&b)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "c").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
}

func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	n := 0.0
	r.CounterFunc(`cache_hits_total{session="s1"}`, "cache hits", func() float64 { n += 5; return n })

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE cache_hits_total counter") {
		t.Fatalf("callback counter not typed as counter:\n%s", out)
	}
	if !strings.Contains(out, `cache_hits_total{session="s1"} 5`) {
		t.Fatalf("callback counter not evaluated at scrape:\n%s", out)
	}
	// Re-scrape re-evaluates.
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `cache_hits_total{session="s1"} 10`) {
		t.Fatalf("callback counter stale on second scrape:\n%s", b.String())
	}

	r.Unregister(`cache_hits_total{session="s1"}`)
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "cache_hits_total") {
		t.Fatal("unregistered callback counter still exposed")
	}
}

// Package metrics is a dependency-free instrumentation kit for the hmnd
// service: counters, gauges and latency histograms backed by atomics,
// collected in a Registry that renders the Prometheus text exposition
// format on /metrics. Only the small subset the daemon needs is
// implemented — monotonically increasing counters, set/add gauges
// (including callback gauges evaluated at scrape time) and fixed-bucket
// cumulative histograms.
//
// Series names may carry a label set inline ("hmnd_maps_total{mapper=\"HMN\"}");
// series sharing the family name (the part before '{') are grouped under
// one HELP/TYPE header in the exposition, exactly as scrapers expect.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use, but counters only appear on /metrics when obtained from a
// Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. Stored as float64 bits so it
// can carry non-integral quantities (residual-CPU stddev, seconds).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (which may be negative) atomically.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefLatencyBuckets are the default histogram bounds for map latencies,
// in seconds: 0.5 ms to 10 s, roughly logarithmic.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// kind tags a family for the TYPE exposition line.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type family struct {
	help string
	kind kind
}

// Registry holds named series and renders them as text. All methods are
// safe for concurrent use; Counter/Gauge/Histogram are idempotent, so
// handlers may look series up by name on every request.
type Registry struct {
	mu           sync.Mutex
	families     map[string]family         //hmn:guardedby mu
	counters     map[string]*Counter       //hmn:guardedby mu
	gauges       map[string]*Gauge         //hmn:guardedby mu
	gaugeFuncs   map[string]func() float64 //hmn:guardedby mu
	counterFuncs map[string]func() float64 //hmn:guardedby mu
	hists        map[string]*Histogram     //hmn:guardedby mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families:     make(map[string]family),
		counters:     make(map[string]*Counter),
		gauges:       make(map[string]*Gauge),
		gaugeFuncs:   make(map[string]func() float64),
		counterFuncs: make(map[string]func() float64),
		hists:        make(map[string]*Histogram),
	}
}

// familyOf strips an inline label set: `name{a="b"}` -> `name`.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register records name's family, panicking when the family was already
// registered under a different kind. Callers hold r.mu.
//
//hmn:locked mu
func (r *Registry) register(name, help string, k kind) {
	fam := familyOf(name)
	if f, ok := r.families[fam]; ok {
		if f.kind != k {
			panic(fmt.Sprintf("metrics: %s re-registered as %s, was %s", fam, k, f.kind))
		}
		return
	}
	r.families[fam] = family{help: help, kind: k}
}

// Counter returns the counter registered under name, creating it on
// first use. help describes the family (the name minus labels).
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.register(name, help, kindCounter)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.register(name, help, kindGauge)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at every
// scrape. Re-registering a name replaces its callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, kindGauge)
	r.gaugeFuncs[name] = fn
}

// CounterFunc registers a counter whose value is computed by fn at every
// scrape — for totals another component already accumulates (e.g. a
// session's admission-conflict counters), so the daemon need not mirror
// them on every event. fn must be monotonically non-decreasing to honour
// counter semantics. Re-registering a name replaces its callback.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, kindCounter)
	r.counterFuncs[name] = fn
}

// Histogram returns the histogram registered under name, creating it on
// first use with the given ascending bucket upper bounds (nil means
// DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.register(name, help, kindHistogram)
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram %s buckets not ascending", name))
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.hists[name] = h
	return h
}

// Unregister removes the series registered under name (counters, gauges,
// callback gauges or histograms). The family header disappears with its
// last series. Used when a labelled series' owner goes away, e.g. a
// closed hmnd session.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.counters, name)
	delete(r.gauges, name)
	delete(r.gaugeFuncs, name)
	delete(r.counterFuncs, name)
	delete(r.hists, name)
	fam := familyOf(name)
	for n := range r.counters {
		if familyOf(n) == fam {
			return
		}
	}
	for n := range r.gauges {
		if familyOf(n) == fam {
			return
		}
	}
	for n := range r.gaugeFuncs {
		if familyOf(n) == fam {
			return
		}
	}
	for n := range r.counterFuncs {
		if familyOf(n) == fam {
			return
		}
	}
	for n := range r.hists {
		if familyOf(n) == fam {
			return
		}
	}
	delete(r.families, fam)
}

// withLabel splices an extra label into a series name, respecting an
// existing inline label set: withLabel(`h{a="b"}`, `le`, `5`) ->
// `h{a="b",le="5"}`.
func withLabel(name, key, val string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + `,` + key + `="` + val + `"}`
	}
	return name + `{` + key + `="` + val + `"}`
}

// withSuffix appends a histogram's series suffix to the family part of a
// name, ahead of an inline label set: withSuffix(`h{a="b"}`, `_sum`) ->
// `h_sum{a="b"}`.
func withSuffix(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WriteText renders every series in the Prometheus text format, families
// sorted by name, series sorted within each family.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	type famOut struct {
		name    string
		help    string
		kind    kind
		samples []string
	}
	fams := make(map[string]*famOut, len(r.families))
	get := func(name string) *famOut {
		fam := familyOf(name)
		fo := fams[fam]
		if fo == nil {
			f := r.families[fam]
			fo = &famOut{name: fam, help: f.help, kind: f.kind}
			fams[fam] = fo
		}
		return fo
	}
	for name, c := range r.counters {
		get(name).samples = append(get(name).samples, fmt.Sprintf("%s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		get(name).samples = append(get(name).samples, fmt.Sprintf("%s %s", name, formatFloat(g.Value())))
	}
	type pendingFn struct {
		fam  *famOut
		name string
		fn   func() float64
	}
	var fns []pendingFn
	for name, fn := range r.gaugeFuncs {
		fns = append(fns, pendingFn{get(name), name, fn})
	}
	for name, fn := range r.counterFuncs {
		fns = append(fns, pendingFn{get(name), name, fn})
	}
	for name, h := range r.hists {
		fo := get(name)
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			fo.samples = append(fo.samples, fmt.Sprintf("%s %d", withLabel(name, "le", formatFloat(b)), cum))
		}
		cum += h.counts[len(h.bounds)].Load()
		fo.samples = append(fo.samples, fmt.Sprintf("%s %d", withLabel(name, "le", "+Inf"), cum))
		fo.samples = append(fo.samples, fmt.Sprintf("%s %s", withSuffix(name, "_sum"), formatFloat(h.Sum())))
		fo.samples = append(fo.samples, fmt.Sprintf("%s %d", withSuffix(name, "_count"), h.Count()))
	}
	r.mu.Unlock()

	// Callback gauges run unlocked: they may re-enter the registry.
	for _, p := range fns {
		p.fam.samples = append(p.fam.samples, fmt.Sprintf("%s %s", p.name, formatFloat(p.fn())))
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fo := fams[n]
		if fo.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fo.name, fo.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fo.name, fo.kind); err != nil {
			return err
		}
		sort.Strings(fo.samples)
		for _, s := range fo.samples {
			if _, err := fmt.Fprintln(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves the exposition over HTTP.
func (r *Registry) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	}
}

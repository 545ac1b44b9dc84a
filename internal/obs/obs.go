// Package obs is the repo's dependency-free telemetry kernel: a
// concurrent metrics registry (atomic counters, gauges and fixed-bucket
// histograms) rendered in the Prometheus text exposition format
// (version 0.0.4), the shape every scraper understands.
//
// Design constraints, in order:
//
//   - The hot path is allocation-free and lock-free: Counter.Add,
//     Gauge.Set and Histogram.Observe are a handful of atomic
//     operations on pre-registered series — no maps, no pools, no
//     interface dispatch. Label resolution (Vec.With) does take a
//     lock, so hot callers resolve their series once and keep the
//     handle.
//   - Scrapes never stop the world: Render walks the registry under
//     short per-family locks and reads the atomics; writers are never
//     blocked for the duration of a scrape.
//   - Zero dependencies beyond the standard library, so every internal
//     package (store, alert, core) can be instrumented without pulling
//     a client library into the module.
//
// Snapshot-style sources — subsystems that already keep their own
// atomic counters (the detector's Metrics, the alert hub's Stats) —
// plug in through CounterFunc / GaugeFunc, which read the value at
// scrape time instead of double-counting into a second atomic.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's exposition type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// ---------------------------------------------------------------------
// Primitive metrics. All methods are safe for concurrent use and
// allocation-free.

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. On a nil Counter — a signal nobody wired — it is a no-op,
// so instrumented code calls it unguarded.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc and Dec adjust by ±1.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: per-bucket atomic
// counters, an atomic float sum and a total count. Buckets are chosen
// at registration and never reallocated, so Observe is a short linear
// scan plus three atomic adds — no locks, no pools, no allocation.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
}

// Observe records one value; a no-op on a nil Histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Now reads the clock for a later ObserveSince — unless the Histogram is
// nil, when nobody will look: an unwired timing costs no time.Now.
func (h *Histogram) Now() (start time.Time) {
	if h != nil {
		start = time.Now()
	}
	return start
}

// ObserveSince observes the seconds elapsed since start, which h.Now read.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DefBuckets spans microseconds to seconds — the latency range of the
// instrumented paths, from a trie lookup to a compaction run.
var DefBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// ExponentialBuckets returns count bounds starting at start, each
// factor times the previous.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	b := make([]float64, count)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// ---------------------------------------------------------------------
// Series and families.

// series is one labeled instance inside a family: exactly one of the
// value fields is set, matching the family's kind (fn covers both
// CounterFunc and GaugeFunc sources).
type series struct {
	labels string // rendered label suffix, `{a="b"}` or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

type family struct {
	name, help string
	kind       Kind
	labelNames []string

	mu     sync.Mutex
	series map[string]*series
	order  []string
}

// get returns the series for the rendered label key, creating it with
// make when absent. A func-backed series is replaced on re-register so
// re-observing a restarted subsystem is not an error.
func (f *family) get(key string, make func() *series) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

func (f *family) setFunc(key string, fn func() float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		s.fn = fn
		return
	}
	f.series[key] = &series{labels: key, fn: fn}
	f.order = append(f.order, key)
}

// snapshot copies the series list so rendering can proceed without the
// family lock.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*series, 0, len(f.order))
	for _, k := range f.order {
		out = append(out, f.series[k])
	}
	return out
}

// ---------------------------------------------------------------------
// Vecs: labeled families. With resolves (and caches) one child; hot
// paths call With once and keep the returned handle.

// CounterVec is a counter family with variable labels.
type CounterVec struct{ f *family }

// With returns the child counter for the label values (one per
// registered label name, in order).
func (v *CounterVec) With(values ...string) *Counter {
	key := renderLabels(v.f.labelNames, values)
	return v.f.get(key, func() *series { return &series{labels: key, c: &Counter{}} }).c
}

// HistogramVec is a histogram family with variable labels.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// With returns the child histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := renderLabels(v.f.labelNames, values)
	return v.f.get(key, func() *series {
		return &series{labels: key, h: newHistogram(v.bounds)}
	}).h
}

func newHistogram(bounds []float64) *Histogram {
	bounds = slices.Clone(bounds)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// renderLabels builds the exposition label suffix `{a="x",b="y"}`.
// Values are escaped per the text format (backslash, quote, newline).
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	if len(values) != len(names) {
		panic(fmt.Sprintf("obs: %d label values for %d label names", len(values), len(names)))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Registry.

// Registry holds metric families and renders them for scraping. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// register returns the family for name, creating it on first use.
// Registration is idempotent — asking again with the same name returns
// the existing family — but re-registering under a different kind or
// label set is a programming error and panics.
func (r *Registry) register(name, help string, kind Kind, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !slices.Equal(f.labelNames, labelNames) {
			panic(fmt.Sprintf("obs: %s re-registered as %v%v (was %v%v)", name, kind, labelNames, f.kind, f.labelNames))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labelNames: slices.Clone(labelNames), series: map[string]*series{}}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil)
	return f.get("", func() *series { return &series{c: &Counter{}} }).c
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labelNames)}
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — the bridge for subsystems that already keep their own
// atomic counters. Re-registering the same name replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, KindCounter, nil)
	f.setFunc("", func() float64 { return float64(fn()) })
}

// CounterFuncLabeled registers one labeled scrape-time counter series.
func (r *Registry) CounterFuncLabeled(name, help string, labelNames, labelValues []string, fn func() uint64) {
	f := r.register(name, help, KindCounter, labelNames)
	f.setFunc(renderLabels(labelNames, labelValues), func() float64 { return float64(fn()) })
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil)
	return f.get("", func() *series { return &series{g: &Gauge{}} }).g
}

// GaugeFunc registers a gauge computed at scrape time. Re-registering
// the same name replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil)
	f.setFunc("", fn)
}

// GaugeFuncLabeled registers one labeled scrape-time gauge series.
func (r *Registry) GaugeFuncLabeled(name, help string, labelNames, labelValues []string, fn func() float64) {
	f := r.register(name, help, KindGauge, labelNames)
	f.setFunc(renderLabels(labelNames, labelValues), fn)
}

// Histogram registers (or returns) an unlabeled histogram with the
// given bucket upper bounds (+Inf is implicit; nil means DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.register(name, help, KindHistogram, nil)
	return f.get("", func() *series { return &series{h: newHistogram(bounds)} }).h
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, KindHistogram, labelNames), bounds: bounds}
}

// ---------------------------------------------------------------------
// Exposition.

// ContentType is the scrape response content type for the rendered
// text format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Render writes every family in registration order in the Prometheus
// text exposition format. It never blocks metric writers beyond the
// brief per-family snapshot.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, n := range r.order {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		series := f.snapshot()
		if len(series) == 0 {
			continue
		}
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, s := range series {
			renderSeries(&b, f, s)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func renderSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.h != nil:
		// Cumulative buckets, then sum and count — the histogram
		// invariants scrapers rely on.
		var cum uint64
		for i, bound := range s.h.bounds {
			cum += s.h.buckets[i].Load()
			writeSample(b, f.name+"_bucket", mergeLabels(s.labels, "le", formatFloat(bound)), float64(cum))
		}
		count := s.h.count.Load()
		writeSample(b, f.name+"_bucket", mergeLabels(s.labels, "le", "+Inf"), float64(count))
		writeSample(b, f.name+"_sum", s.labels, s.h.Sum())
		writeSample(b, f.name+"_count", s.labels, float64(count))
	case s.fn != nil:
		writeSample(b, f.name, s.labels, s.fn())
	case s.c != nil:
		writeSample(b, f.name, s.labels, float64(s.c.Value()))
	case s.g != nil:
		writeSample(b, f.name, s.labels, s.g.Value())
	}
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// mergeLabels splices one extra label pair into a rendered label set.
func mergeLabels(labels, name, value string) string {
	extra := name + `="` + escapeLabelValue(value) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// Handler returns an http.Handler serving the rendered registry — the
// GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.Render(w)
	})
}

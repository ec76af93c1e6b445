// Package telemetry is the dependency-free observability layer of the
// reproduction: a metrics registry (atomic counters, gauges, and
// fixed-bucket histograms that are allocation-free on the hot path),
// Prometheus text-format exposition, per-job trace IDs, and build-info
// introspection.
//
// Design constraints, in order:
//
//  1. Zero allocations on the instrumentation hot path. Counter.Add,
//     Gauge.Set and Histogram.Observe touch only pre-allocated atomics,
//     so they can sit inside the per-round training loop, the store's
//     lookup path, and the scheduler's dequeue without perturbing the
//     allocation-free guarantees PR 2 and PR 3 established (and their
//     AllocsPerRun guards).
//  2. No dependencies. Exposition writes the Prometheus text format
//     directly; any Prometheus-compatible scraper (or `curl | grep`)
//     consumes it.
//  3. Idempotent registration. Registering the same name twice returns
//     the same instrument, so package-level wiring (engine, store,
//     server) can run once per process against the Default registry and
//     tests can open many engines without collisions.
//
// Naming convention (see DESIGN.md §8): `<subsystem>_<noun>_<unit>`,
// counters end in `_total`, histograms are base-unit seconds/bytes, and
// label cardinality is bounded by construction (method names, routes,
// lifecycle states — never IDs or addresses).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// kind discriminates instrument families within a registry.
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
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing count. The zero value is unusable;
// obtain counters from a Registry so they are exported.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. It never allocates.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta; negative deltas are ignored (counters are monotonic).
// It never allocates.
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depth, active
// streams). All methods are allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta (negative allowed).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets are cumulative
// upper bounds (Prometheus `le` semantics: a value lands in the first
// bucket whose bound is >= it); an implicit +Inf bucket catches the
// rest. Observe is allocation-free: bucket counts are pre-allocated
// atomics and the running sum is a CAS loop over float bits.
type Histogram struct {
	bounds []float64      // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// DefBuckets is the default latency ladder in seconds: 100µs to ~1.6min
// in powers of four, wide enough for both a sub-millisecond cache hit
// and a multi-minute training run to land in distinct buckets.
var DefBuckets = []float64{0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1024, 0.4096, 1.6384, 6.5536, 26.2144, 104.8576}

// Observe records one value. It never allocates.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket ladders are short (~12) and the branch
	// predictor wins over binary search at that size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket. The slice is fresh and safe to mutate.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Bounds returns the histogram's upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// series is one labeled instrument within a family.
type series struct {
	labels string // rendered `{k="v",…}` or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series of one metric name.
type family struct {
	name    string
	help    string
	kind    kind
	keys    []string // label keys, nil for unlabeled
	bounds  []float64
	series  map[string]*series // by rendered label string
	ordered []*series          // registration order; sorted at exposition
}

// Registry holds instrument families and writes them in Prometheus text
// format. The zero value is unusable; use NewRegistry or Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry is the process-wide registry behind Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that `feddg serve` exposes
// at /metrics.
func Default() *Registry { return defaultRegistry }

// lookup returns the family for name, creating it on first use and
// panicking when a name is re-registered with a different shape —
// that is a programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, k kind, keys []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.keys) != len(keys) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s with %d labels (was %s with %d)",
				name, k, len(keys), f.kind, len(f.keys)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, keys: keys, bounds: bounds, series: map[string]*series{}}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// get returns the series for the rendered label string, creating it on
// first use; the caller holds no lock.
func (f *family) get(r *Registry, labels string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := f.series[labels]; ok {
		return s
	}
	s := &series{labels: labels}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
	}
	f.series[labels] = s
	f.ordered = append(f.ordered, s)
	return s
}

// Counter returns the (unlabeled) counter registered under name,
// creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter, nil, nil).get(r, "").c
}

// Gauge returns the (unlabeled) gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge, nil, nil).get(r, "").g
}

// Histogram returns the (unlabeled) histogram registered under name.
// buckets are cumulative upper bounds and must be sorted ascending; nil
// adopts DefBuckets. The bucket layout is fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.lookup(name, help, kindHistogram, nil, normBuckets(buckets)).get(r, "").h
}

// CounterVec is a counter family with one or more label dimensions.
type CounterVec struct {
	r *Registry
	f *family
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct {
	r *Registry
	f *family
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct {
	r *Registry
	f *family
}

// CounterVec returns the labeled counter family under name. Label keys
// are fixed at first registration.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	return &CounterVec{r: r, f: r.lookup(name, help, kindCounter, keys, nil)}
}

// GaugeVec returns the labeled gauge family under name.
func (r *Registry) GaugeVec(name, help string, keys ...string) *GaugeVec {
	return &GaugeVec{r: r, f: r.lookup(name, help, kindGauge, keys, nil)}
}

// HistogramVec returns the labeled histogram family under name; nil
// buckets adopt DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, keys ...string) *HistogramVec {
	return &HistogramVec{r: r, f: r.lookup(name, help, kindHistogram, keys, normBuckets(buckets))}
}

// With returns the counter for the given label values (one per key, in
// key order). The lookup allocates; hot paths should resolve their
// handle once and hold it.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(v.r, renderLabels(v.f.keys, values)).c
}

// Total sums the counter over every label combination.
func (v *CounterVec) Total() int64 {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	var n int64
	for _, s := range v.f.ordered {
		n += s.c.Value()
	}
	return n
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(v.r, renderLabels(v.f.keys, values)).g
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(v.r, renderLabels(v.f.keys, values)).h
}

// normBuckets validates a bucket ladder, defaulting nil to DefBuckets.
func normBuckets(b []float64) []float64 {
	if len(b) == 0 {
		return DefBuckets
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("telemetry: histogram buckets not strictly ascending at %d: %v", i, b))
		}
	}
	return b
}

// renderLabels builds the canonical `{k="v",…}` form. Values are
// escaped per the Prometheus text format.
func renderLabels(keys, values []string) string {
	if len(keys) != len(values) {
		panic(fmt.Sprintf("telemetry: %d label values for keys %v", len(values), keys))
	}
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WritePrometheus writes every registered instrument in the Prometheus
// text exposition format, families in registration order and series
// sorted by label within a family, so scrapes are diff-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		r.mu.Lock()
		ser := append([]*series(nil), f.ordered...)
		r.mu.Unlock()
		sort.Slice(ser, func(i, j int) bool { return ser[i].labels < ser[j].labels })
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range ser {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.g.Value())
		return err
	case kindHistogram:
		h := s.h
		counts := h.BucketCounts()
		var cum int64
		for i, bound := range h.bounds {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLabels(s.labels, "le", formatBound(bound)), cum); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLabels(s.labels, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", f.name, s.labels, h.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, h.Count())
		return err
	}
	return nil
}

// mergeLabels appends one extra label pair to an already-rendered label
// set (used for the histogram `le` dimension).
func mergeLabels(labels, key, value string) string {
	extra := key + `="` + value + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// formatBound renders a bucket bound the way Prometheus does: shortest
// decimal that round-trips.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

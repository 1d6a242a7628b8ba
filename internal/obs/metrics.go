// Package obs provides the dependency-free observability primitives
// the tensat pipeline and serving layer report through: counters,
// gauges and histograms with a Prometheus text-exposition writer
// (this file), and phase-span traces with a Chrome trace-event
// exporter readable by Perfetto (trace.go).
//
// The package deliberately implements the small subset of the
// Prometheus client model the repository needs — no default registry,
// no process/Go runtime collectors, no protobuf exposition — so the
// serving layer stays free of external dependencies while any
// Prometheus-compatible scraper can consume GET /metrics.
package obs

import (
	"bufio"
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

// Counter is a monotonically increasing counter. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into cumulative buckets, Prometheus
// style: bucket i counts observations <= bounds[i], and an implicit
// +Inf bucket counts everything. Construct via Registry.Histogram.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds, +Inf excluded

	mu     sync.Mutex
	counts []uint64 // per-bucket (non-cumulative), len(bounds)+1: last is +Inf
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns cumulative bucket counts (one per bound, +Inf
// last), the sum, and the count.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cum[i] = acc
	}
	return cum, h.sum, h.count
}

// LatencyBuckets spans the pipeline's phase durations, from
// sub-millisecond rebuilds on test graphs to hour-long ILP solves.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300, 900, 1800, 3600,
}

// labeled pairs one rendered label set with its child metric.
type labeled[T any] struct {
	labels string // pre-rendered {k="v",...} body, escaped, no braces
	child  T
}

// vec is the shared labels→child machinery of CounterVec and friends.
type vec[T any] struct {
	keys []string
	make func() T

	mu       sync.Mutex
	children map[string]*labeled[T]
}

func newVec[T any](keys []string, make func() T) *vec[T] {
	return &vec[T]{keys: keys, make: make, children: map[string]*labeled[T]{}}
}

func (v *vec[T]) with(values ...string) T {
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("obs: vector expects %d label values (%v), got %d", len(v.keys), v.keys, len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c.child
	}
	var b strings.Builder
	for i, k := range v.keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	c := &labeled[T]{labels: b.String(), child: v.make()}
	v.children[key] = c
	return c.child
}

// sorted snapshots the children in deterministic (label) order.
func (v *vec[T]) sorted() []*labeled[T] {
	v.mu.Lock()
	out := make([]*labeled[T], 0, len(v.children))
	for _, c := range v.children {
		out = append(out, c)
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ v *vec[*Counter] }

// With returns the counter for the given label values (created on
// first use). The number of values must match the declared label keys.
func (cv *CounterVec) With(values ...string) *Counter { return cv.v.with(values...) }

// Values snapshots every child's count, keyed by its label values
// joined with "/" (e.g. "taso-default/t4"). It returns nil when no
// child exists yet.
func (cv *CounterVec) Values() map[string]uint64 {
	cv.v.mu.Lock()
	defer cv.v.mu.Unlock()
	if len(cv.v.children) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(cv.v.children))
	for key, c := range cv.v.children {
		out[strings.ReplaceAll(key, "\x00", "/")] = c.child.Value()
	}
	return out
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ v *vec[*Gauge] }

// With returns the gauge for the given label values.
func (gv *GaugeVec) With(values ...string) *Gauge { return gv.v.with(values...) }

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	bounds []float64
	v      *vec[*Histogram]
}

// With returns the histogram for the given label values.
func (hv *HistogramVec) With(values ...string) *Histogram { return hv.v.with(values...) }

// family is one registered metric family: a name, help text, a type,
// and a writer that renders its current samples.
type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"
	emit func(w *bufio.Writer)
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format (version 0.0.4). Registration methods panic
// on an invalid or duplicate name — metric registration is programmer
// intent, not runtime input. A Registry is safe for concurrent
// registration, updates, and scrapes.
type Registry struct {
	mu       sync.Mutex
	families []*family
	names    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) register(name, help, typ string, emit func(w *bufio.Writer)) {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("obs: duplicate metric name " + strconv.Quote(name))
	}
	r.names[name] = true
	r.families = append(r.families, &family{name: name, help: help, typ: typ, emit: emit})
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func(w *bufio.Writer) {
		writeSample(w, name, "", float64(c.Value()))
	})
	return c
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	validateLabels(name, labels)
	cv := &CounterVec{v: newVec(labels, func() *Counter { return &Counter{} })}
	r.register(name, help, "counter", func(w *bufio.Writer) {
		for _, c := range cv.v.sorted() {
			writeSample(w, name, c.labels, float64(c.child.Value()))
		}
	})
	return cv
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", func(w *bufio.Writer) {
		writeSample(w, name, "", g.Value())
	})
	return g
}

// GaugeVec registers and returns a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	validateLabels(name, labels)
	gv := &GaugeVec{v: newVec(labels, func() *Gauge { return &Gauge{} })}
	r.register(name, help, "gauge", func(w *bufio.Writer) {
		for _, c := range gv.v.sorted() {
			writeSample(w, name, c.labels, c.child.Value())
		}
	})
	return gv
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the natural fit for quantities another structure already owns (cache
// population, store occupancy). fn must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func(w *bufio.Writer) {
		writeSample(w, name, "", fn())
	})
}

// Histogram registers and returns a histogram with the given bucket
// upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, "histogram", func(w *bufio.Writer) {
		writeHistogram(w, name, "", h)
	})
	return h
}

// HistogramVec registers and returns a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	validateLabels(name, labels)
	hv := &HistogramVec{bounds: bounds, v: newVec(labels, func() *Histogram { return newHistogram(bounds) })}
	r.register(name, help, "histogram", func(w *bufio.Writer) {
		for _, c := range hv.v.sorted() {
			writeHistogram(w, name, c.labels, c.child)
		}
	})
	return hv
}

// WriteTo renders every family in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.emit(bw)
	}
	err := bw.Flush()
	if cw.err != nil {
		err = cw.err
	}
	return cw.n, err
}

// ServeHTTP makes the registry a scrape endpoint: GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = r.WriteTo(w)
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if err != nil && c.err == nil {
		c.err = err
	}
	return n, err
}

func writeSample(w *bufio.Writer, name, labels string, v float64) {
	w.WriteString(name)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

func writeHistogram(w *bufio.Writer, name, labels string, h *Histogram) {
	cum, sum, count := h.snapshot()
	for i, bound := range h.bounds {
		writeSample(w, name+"_bucket", joinLabels(labels, `le="`+formatValue(bound)+`"`), float64(cum[i]))
	}
	writeSample(w, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(cum[len(cum)-1]))
	writeSample(w, name+"_sum", labels, sum)
	writeSample(w, name+"_count", labels, float64(count))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// formatValue renders a sample value: shortest round-trip decimal,
// with the spellings Prometheus expects for the special values.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote, and line-feed.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes help text: backslash and line-feed.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// validMetricName reports whether name matches the Prometheus metric
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validateLabels(metric string, labels []string) {
	if len(labels) == 0 {
		panic("obs: vector metric " + strconv.Quote(metric) + " needs at least one label")
	}
	seen := map[string]bool{}
	for _, l := range labels {
		if !validLabelName(l) {
			panic("obs: invalid label name " + strconv.Quote(l) + " on " + metric)
		}
		if seen[l] {
			panic("obs: duplicate label name " + strconv.Quote(l) + " on " + metric)
		}
		seen[l] = true
	}
}

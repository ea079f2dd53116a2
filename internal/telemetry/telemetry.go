// Package telemetry is the runtime observability substrate: a process-wide,
// concurrency-safe registry of counters, gauges, and fixed-bucket histograms,
// plus a virtual-time span tracer (see tracer.go) that emits Chrome
// trace-event JSON loadable in Perfetto.
//
// The design constraint is the dispatch hot path: internal/hsa consumes a
// packet, runs Algorithm 1, and launches a kernel in ~500ns with zero heap
// allocations, and instrumenting that loop must not regress it. So metric
// handles are resolved once at stack-construction time (never looked up per
// event), every write is a single atomic operation (histograms add one
// bounded linear scan over their fixed buckets), and nothing on the write
// path allocates, locks, or formats. Registration and exposition take the
// registry lock; writes never do.
//
// All handle methods are nil-receiver safe: a nil *Counter/*Gauge/*Histogram
// is a no-op sink, so partially-wired telemetry structs cost only the nil
// checks. Disabling telemetry entirely (a nil Hub on server.Config) installs
// no handles at all and leaves experiment output byte-identical — telemetry
// only observes; it never schedules simulation events or draws randomness.
//
// Metric names follow Prometheus conventions: snake_case with a krisp_
// prefix and a unit suffix (_total for counters, _us/_ms for durations).
// Fixed label sets are baked into the registered name — e.g.
// krisp_gpu_busy_cus{gpu="0"} — so the hot path never assembles label
// strings; WritePrometheus splits them back out for scrapes.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically-increasing metric (Prometheus counter).
type Counter struct {
	v    atomic.Uint64
	name string
	help string
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the registered (labeled) metric name.
func (c *Counter) Name() string { return c.name }

// Gauge is a settable instantaneous value (Prometheus gauge). Values are
// int64: every gauge in this codebase is a count of discrete things (busy
// CUs, queued packets, healthy CUs).
type Gauge struct {
	v    atomic.Int64
	name string
	help string
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (may be negative). Safe on a nil receiver (no-op).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Name returns the registered (labeled) metric name.
func (g *Gauge) Name() string { return g.name }

// Histogram is a fixed-bucket distribution (Prometheus histogram). Bucket
// bounds are set at registration and never change, so Observe is one
// bounded linear scan plus three atomic updates — no allocation, no lock.
type Histogram struct {
	name   string
	help   string
	bounds []float64 // upper bounds, ascending; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// Observe records one observation. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for ; i < len(h.bounds); i++ {
		if v <= h.bounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Name returns the registered (labeled) metric name.
func (h *Histogram) Name() string { return h.name }

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// ExpBuckets returns n bucket bounds starting at start and growing by
// factor: the standard shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

var (
	latencyBucketsUs = ExpBuckets(1, 2, 24)
	latencyBucketsMs = ExpBuckets(0.5, 2, 16)
)

// LatencyBucketsUs is the default microsecond latency bucketing:
// 1us .. ~8.4s in powers of two — wide enough for IOCTL syscalls at the
// bottom and straggler batches at the top. The slice is shared and must
// not be modified (Registry.Histogram copies the bounds it is given).
func LatencyBucketsUs() []float64 { return latencyBucketsUs }

// LatencyBucketsMs is the default millisecond latency bucketing for batch
// and request latencies: 0.5ms .. ~16s. Shared, like LatencyBucketsUs.
func LatencyBucketsMs() []float64 { return latencyBucketsMs }

// SeriesNames memoizes the names of a family of per-instance series, each
// base name with the label set {label="id"} baked in, so a pooled stack
// rewired to a new registry every run formats each name once per process
// rather than once per run. Safe for concurrent use.
type SeriesNames struct {
	label string
	bases []string

	mu   sync.Mutex
	byID [][]string
}

// NewSeriesNames declares a family: the series bases, labelled by label.
func NewSeriesNames(label string, bases ...string) *SeriesNames {
	return &SeriesNames{label: label, bases: bases}
}

// For returns the family's names for instance id (non-negative), in the
// order of the bases. The slice is shared and must not be modified.
func (s *SeriesNames) For(id int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id >= len(s.byID) {
		s.byID = append(s.byID, make([][]string, id+1-len(s.byID))...)
	}
	names := s.byID[id]
	if names == nil {
		lbl := fmt.Sprintf(`{%s="%d"}`, s.label, id)
		names = make([]string, len(s.bases))
		for i, b := range s.bases {
			names[i] = b + lbl
		}
		s.byID[id] = names
	}
	return names
}

// CUBuckets buckets CU grant sizes on MI50/MI100-shaped devices.
func CUBuckets() []float64 { return []float64{1, 2, 4, 8, 15, 22, 30, 45, 60, 90, 120} }

// QueueDepthBuckets suits queue-depth and outstanding-request histograms
// (fleet routing, per-node backlogs): power-of-two depths from empty to
// overload.
func QueueDepthBuckets() []float64 {
	return []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// Registry is a concurrency-safe named-metric store. Registration is
// get-or-register: asking for an existing name returns the existing handle
// (so parallel grid cells share counters), and asking for it as a different
// metric type panics — that is a programming error, not a runtime state.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry behind Default() — the one
// the HTTP exposition endpoints serve.
var defaultRegistry = New()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it if absent.
// name may carry a fixed label set: `krisp_x_total{gpu="0"}`.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFreeLocked(name, "counter")
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFreeLocked(name, "gauge")
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if absent. Bounds must be ascending and
// non-empty; re-registrations keep the original bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFreeLocked(name, "histogram")
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q registered with no buckets", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{name: name, help: help, bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	r.histograms[name] = h
	return h
}

// checkFreeLocked panics when name is already registered as another kind.
func (r *Registry) checkFreeLocked(name, want string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a counter, requested as %s", name, want))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a gauge, requested as %s", name, want))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("telemetry: %q already registered as a histogram, requested as %s", name, want))
	}
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.counters) + len(r.gauges) + len(r.histograms)
}

// Reset drops every registered metric. Handles already held by instrumented
// components keep working but are no longer exported — Reset is a test
// isolation tool, not a production operation.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.histograms = make(map[string]*Histogram)
}

// sortedNames returns every registered name, sorted, for deterministic
// exposition. Caller must not hold the lock.
func (r *Registry) sortedNames() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Hub bundles one metrics registry and one (optional) span tracer — the
// single handle a serving stack needs to become observable. A nil *Hub
// disables telemetry entirely.
type Hub struct {
	Reg    *Registry
	Tracer *Tracer
}

// NewHub returns a Hub over a fresh registry, with tracing enabled when
// withTracer is set.
func NewHub(withTracer bool) *Hub {
	h := &Hub{Reg: New()}
	if withTracer {
		h.Tracer = NewTracer()
	}
	return h
}

// DefaultHub returns a Hub over the process-wide default registry, with no
// tracer — what the HTTP serving path attaches so /metrics sees live load.
func DefaultHub() *Hub { return &Hub{Reg: Default()} }

// Registry returns the hub's registry, nil-safe.
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.Reg
}

// Trace returns the hub's tracer, nil-safe.
func (h *Hub) Trace() *Tracer {
	if h == nil {
		return nil
	}
	return h.Tracer
}

// Package obs is the production observability plane: a dependency-free
// metrics registry, Prometheus-text and JSON exposition, the protocol
// event vocabulary both runtimes trace in, a bounded lock-free ring of
// trace records next to the simulator's unbounded Log, and the admin
// HTTP server that serves them next to net/http/pprof.
//
// The paper's whole argument is quantitative — AITF wins because Td,
// Tr, filter-table occupancy, and collateral damage stay bounded under
// attack — so every counter the engines keep must be observable from a
// live deployment, not only from an in-process test. The registry is
// built for hot-path use: recording into a Counter or Histogram is one
// to three uncontended atomic adds and never allocates, so the
// data-plane classification loop can stay at 0 allocs/op with
// instrumentation enabled (pinned by TestClassifySteadyStateZeroAlloc;
// BenchmarkDataplaneInstrumented measures the throughput cost).
//
// Two registration styles coexist:
//
//   - owned instruments (Counter, Histogram) the caller records
//     into directly — for code paths that do not already keep a
//     counter;
//   - func instruments (CounterFunc, GaugeFunc) that read an existing
//     atomic at scrape time — for the engines (dataplane, detect,
//     core, wire) that already maintain their own counters; wiring
//     them in costs the hot path nothing at all.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind labels a metric's exposition type.
type Kind uint8

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a log2-bucketed distribution.
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
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing atomic counter. The zero value
// is usable, but counters are normally created via Registry.Counter so
// they are exposed.
type Counter struct {
	v atomic.Uint64 // aitf:atomic
}

// Add increments the counter by n.
//
// aitf:noalloc
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// HistogramBuckets is the fixed bucket count of every Histogram: one
// log2 bucket per bit of a uint64, so any observable value has a slot
// and recording is branch-free.
const HistogramBuckets = 64

// Histogram is a log2-bucketed distribution over uint64 observations
// (latencies in nanoseconds, batch sizes in packets, ...). Bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds
// v == 0 and bucket i ≥ 1 holds 2^(i-1) <= v < 2^i. Recording is three
// uncontended atomic adds and never allocates.
type Histogram struct {
	buckets [HistogramBuckets]atomic.Uint64 // aitf:atomic
	count   atomic.Uint64                   // aitf:atomic
	sum     atomic.Uint64                   // aitf:atomic
}

// Observe records one value.
//
// aitf:noalloc
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)%HistogramBuckets].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// snapshot copies the bucket array (count-first so the invariant
// sum(buckets) <= count holds on a racing snapshot).
func (h *Histogram) snapshot() (buckets [HistogramBuckets]uint64, count, sum uint64) {
	count = h.count.Load()
	sum = h.sum.Load()
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return buckets, count, sum
}

// metric is one registered instrument.
type metric struct {
	name string
	help string
	kind Kind

	counter     *Counter
	counterFunc func() uint64
	gaugeFunc   func() float64
	hist        *Histogram
}

// Registry holds named metrics. Registration takes a lock; recording
// into registered instruments is lock-free, and scraping takes the
// lock only to snapshot the metric list.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

// register adds m, panicking on a duplicate or empty name: metric names
// are compile-time wiring, so colliding ones are a programming error
// better caught loudly than silently shadowed on the scrape.
func (r *Registry) register(m metric) {
	if m.name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[m.name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.byName[m.name] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns an owned counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(metric{name: name, help: help, kind: KindCounter, counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time; fn must be safe for concurrent use and monotone.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(metric{name: name, help: help, kind: KindCounter, counterFunc: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time; fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(metric{name: name, help: help, kind: KindGauge, gaugeFunc: fn})
}

// Histogram registers and returns an owned histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.register(metric{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}

// sorted returns a name-sorted copy of the metric list, so exposition
// order is stable across scrapes regardless of registration order.
func (r *Registry) sorted() []metric {
	r.mu.Lock()
	out := make([]metric, len(r.metrics))
	copy(out, r.metrics)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// value reads a scalar metric's current value.
func (m *metric) value() float64 {
	switch {
	case m.counter != nil:
		return float64(m.counter.Value())
	case m.counterFunc != nil:
		return float64(m.counterFunc())
	case m.gaugeFunc != nil:
		return m.gaugeFunc()
	default:
		return 0
	}
}

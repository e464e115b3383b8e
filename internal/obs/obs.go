// Package obs is the repository's observability substrate: cheap atomic
// counters, gauges and log-linear histograms organized in named registries,
// plus a virtual-time event tracer (ring buffer) and exporters (Prometheus
// text format, JSON snapshot, expvar, HTTP with pprof).
//
// Design constraints, in order:
//
//   - The hot path is O(1) and allocation-free. Metric handles are resolved
//     once (get-or-create under a lock) and then updated with a single atomic
//     instruction; instrumented code holds *Counter/*Gauge/*Histogram
//     pointers and nil-checks them, so the uninstrumented path costs one
//     predictable branch and nothing else.
//   - Dependency-free: standard library only, and no imports of other
//     internal packages — internal/pipeline, internal/simnet and the three
//     systems all import obs, never the reverse.
//   - Metric names follow Prometheus conventions (`snake_case`, `_total`
//     suffix on counters) and may embed a label set verbatim, e.g.
//     `pipeline_register_accesses_total{program="lrutable",register="nat.key1"}`.
//     The registry treats the full string as the identity; the exporter
//     splits base name from labels when emitting TYPE lines.
package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can go up and down. It stores the
// float64 bit pattern atomically.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d (CAS loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Label renders one `key="value"` label pair with the value escaped per the
// Prometheus text exposition rules (backslash, double quote, newline), for
// embedding in metric names: r.Counter("hits_total{" + obs.Label("store", spec) + "}").
func Label(key, value string) string {
	var b strings.Builder
	b.Grow(len(key) + len(value) + 3)
	b.WriteString(key)
	b.WriteString(`="`)
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Registry is a named set of metrics. Lookup is get-or-create and safe for
// concurrent use; the returned handles are the hot-path API.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	gaugeFns map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		gaugeFns: make(map[string]func() float64),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the CLIs serve.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// export unit u if absent. The unit is fixed at first registration; later
// calls return the original.
func (r *Registry) Histogram(name string, u Unit) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(u)
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a gauge whose value is computed at export time —
// occupancy readouts and other derived quantities that would be wasteful to
// maintain on the hot path. Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// CounterValue returns the value of a registered counter (0 if absent) —
// an exporter-side convenience for progress reporting.
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	return c.Value()
}

// SumCounters returns the summed value of every registered counter whose
// full name starts with prefix.
func (r *Registry) SumCounters(prefix string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total uint64
	for name, c := range r.counters {
		if strings.HasPrefix(name, prefix) {
			total += c.Value()
		}
	}
	return total
}

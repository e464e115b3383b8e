package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time copy of a registry, the payload of the JSON
// exporter and the expvar publisher. Function gauges are evaluated at
// snapshot time and folded into Gauges.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	fns := make(map[string]func() float64, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		fns[k] = v
	}
	r.mu.RUnlock()

	for name, c := range counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range fns {
		s.Gauges[name] = fn() // functions are evaluated outside the lock
	}
	for name, h := range hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// splitName separates a metric name from its embedded label set:
// `foo_total{a="b"}` → (`foo_total`, `a="b"`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// withLabel re-joins a base name with a label set plus one extra pair.
func withLabel(base, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return base
	case labels == "":
		return base + "{" + extra + "}"
	case extra == "":
		return base + "{" + labels + "}"
	}
	return base + "{" + labels + "," + extra + "}"
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): `# TYPE` per metric family, histograms as
// cumulative `_bucket`/`_sum`/`_count` series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder

	typed := map[string]bool{} // one TYPE line per family
	emitType := func(family, kind string) {
		if !typed[family] {
			typed[family] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", family, kind)
		}
	}

	for _, name := range sortedKeys(s.Counters) {
		base, _ := splitName(name)
		emitType(base, "counter")
		fmt.Fprintf(&b, "%s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		base, _ := splitName(name)
		emitType(base, "gauge")
		fmt.Fprintf(&b, "%s %s\n", name, formatFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		base, labels := splitName(name)
		emitType(base, "histogram")
		// Only non-empty buckets are written: the layout is fixed, so a
		// bucket's le never changes, and a count never returns to zero.
		cum := uint64(0)
		for i, n := range h.Counts {
			if n == 0 {
				continue
			}
			cum += n
			le := `le="` + formatFloat(h.Unit.export(BucketHigh(i))) + `"`
			fmt.Fprintf(&b, "%s %d\n", withLabel(base+"_bucket", labels, le), cum)
		}
		fmt.Fprintf(&b, "%s %d\n", withLabel(base+"_bucket", labels, `le="+Inf"`), h.Count)
		fmt.Fprintf(&b, "%s %s\n", withLabel(base+"_sum", labels, ""), formatFloat(h.Unit.export(h.Sum)))
		fmt.Fprintf(&b, "%s %d\n", withLabel(base+"_count", labels, ""), h.Count)
		if ex := h.Exemplar; ex != nil {
			// Exemplars are emitted as a comment so version-0.0.4 text
			// parsers (which predate OpenMetrics '#' exemplar syntax on the
			// sample line) stay compatible; humans and our own tools read it.
			fmt.Fprintf(&b, "# exemplar %s %s span_id=%d\n",
				name, formatFloat(h.Unit.export(ex.Value)), ex.SpanID)
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PublishExpvar exposes the registry under the given expvar name (visible on
// /debug/vars). Publishing the same name twice is a no-op rather than the
// expvar panic, so tests and multiple CLIs can share the default registry.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	reg := r
	expvar.Publish(name, expvar.Func(func() interface{} { return reg.Snapshot() }))
}

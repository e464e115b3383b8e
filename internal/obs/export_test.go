package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter(`pipeline_cache_hits_total{array="nat"}`).Add(7)
	r.Counter(`pipeline_cache_misses_total{array="nat"}`).Add(2)
	r.Gauge("occupancy").Set(3.5)
	r.GaugeFunc("derived", func() float64 { return 9 })
	h := r.Histogram(`latency_seconds{sys="kv"}`, UnitSeconds)
	for _, d := range []time.Duration{50 * time.Millisecond, 500 * time.Millisecond, 5 * time.Second} {
		h.Observe(int64(d))
	}
	return r
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := testRegistry()
	want := r.Snapshot()

	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &got); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch\n got: %+v\nwant: %+v", got, want)
	}
	if got.Gauges["derived"] != 9 {
		t.Fatalf("function gauge not folded in: %+v", got.Gauges)
	}
}

func TestWritePrometheus(t *testing.T) {
	var buf strings.Builder
	if err := testRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	want := []string{
		"# TYPE pipeline_cache_hits_total counter",
		`pipeline_cache_hits_total{array="nat"} 7`,
		`pipeline_cache_misses_total{array="nat"} 2`,
		"# TYPE occupancy gauge",
		"occupancy 3.5",
		"derived 9",
		"# TYPE latency_seconds histogram",
		// le is each occupied bucket's largest value, in seconds.
		`latency_seconds_bucket{sys="kv",le="0.050331647"} 1`,
		`latency_seconds_bucket{sys="kv",le="0.503316479"} 2`, // cumulative
		`latency_seconds_bucket{sys="kv",le="+Inf"} 3`,
		`latency_seconds_sum{sys="kv"} 5.55`,
		`latency_seconds_count{sys="kv"} 3`,
	}
	for _, line := range want {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing line %q in output:\n%s", line, got)
		}
	}
	// Exactly one TYPE line per family even with multiple labeled series.
	if n := strings.Count(got, "# TYPE pipeline_cache_hits_total"); n != 1 {
		t.Errorf("%d TYPE lines for pipeline_cache_hits_total, want 1", n)
	}
}

func TestSplitName(t *testing.T) {
	cases := []struct{ in, base, labels string }{
		{"plain_total", "plain_total", ""},
		{`x_total{a="b"}`, "x_total", `a="b"`},
		{`x_total{a="b",c="d"}`, "x_total", `a="b",c="d"`},
		{"weird{", "weird{", ""}, // unterminated: left alone
	}
	for _, tc := range cases {
		base, labels := splitName(tc.in)
		if base != tc.base || labels != tc.labels {
			t.Errorf("splitName(%q) = (%q, %q), want (%q, %q)",
				tc.in, base, labels, tc.base, tc.labels)
		}
	}
	if got := withLabel("m", `a="b"`, `le="5"`); got != `m{a="b",le="5"}` {
		t.Errorf("withLabel = %q", got)
	}
	if got := withLabel("m", "", ""); got != "m" {
		t.Errorf("withLabel bare = %q", got)
	}
}

func TestNilRegistrySnapshot(t *testing.T) {
	var r *Registry
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestPublishExpvar(t *testing.T) {
	r := testRegistry()
	r.PublishExpvar("obs_test_reg")
	r.PublishExpvar("obs_test_reg") // second publish must not panic
	v := expvar.Get("obs_test_reg")
	if v == nil {
		t.Fatal("registry not published")
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatalf("expvar value is not a JSON snapshot: %v", err)
	}
	if s.Counters[`pipeline_cache_hits_total{array="nat"}`] != 7 {
		t.Fatalf("expvar snapshot wrong: %+v", s)
	}
}

func TestHandler(t *testing.T) {
	srv := httptest.NewServer(testRegistry().Handler())
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, `pipeline_cache_hits_total{array="nat"} 7`) {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	body, ct = get("/metrics.json")
	if ct != "application/json" {
		t.Errorf("/metrics.json content type = %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}

	if body, _ = get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", UnitCount)
	// 10 samples of 15 (a one-value bucket) and 10 of 300 (bucket 288..303).
	for i := 0; i < 10; i++ {
		h.Observe(15)
		h.Observe(300)
	}
	snap := r.Snapshot().Histograms["q"]
	if lo, hi := bucketLow(BucketOf(300)), BucketHigh(BucketOf(300)); lo != 288 || hi != 303 {
		t.Fatalf("bucket of 300 = [%d, %d], want [288, 303]", lo, hi)
	}

	if got := snap.Quantile(0.5); got != 15 {
		t.Errorf("Quantile(0.5) = %v, want 15 (exact one-value bucket)", got)
	}
	if got := snap.Quantile(0.75); got != 295.5 {
		t.Errorf("Quantile(0.75) = %v, want 295.5 (5th of 10 in 288..303)", got)
	}
	if got := snap.Quantile(1); got != 303 {
		t.Errorf("Quantile(1) = %v, want 303 (bucket top)", got)
	}
	if got := snap.UpperBound(0.5); got != 15 {
		t.Errorf("UpperBound(0.5) = %v, want 15", got)
	}
	if got := snap.UpperBound(0.51); got != 303 {
		t.Errorf("UpperBound(0.51) = %v, want 303", got)
	}

	// Every value has a bucket: nothing lands past an overflow guess.
	h.Observe(math.MaxInt64)
	snap = r.Snapshot().Histograms["q"]
	if got := snap.UpperBound(1); got < math.MaxInt64 {
		t.Errorf("UpperBound(1) = %v, want ≥ MaxInt64", got)
	}

	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}

	// Sub leaves only what was observed after the base snapshot.
	base := h.Snapshot()
	h.Observe(15)
	d := h.Snapshot()
	d.Sub(&base)
	if d.Count != 1 || d.Sum != 15 || d.Counts[BucketOf(15)] != 1 {
		t.Errorf("Sub = count %d sum %d, want one observation of 15", d.Count, d.Sum)
	}
}

package obs

import (
	"bufio"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a deterministic registry exercising every exporter
// feature: counters and gauges with and without labels, a histogram with
// observations across six decades of buckets, an attached
// exemplar, and label values that need text-format escaping.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("requests_total").Add(1234)
	r.Counter(`requests_total{shard="0"}`).Add(70)
	r.Counter(`requests_total{shard="1"}`).Add(30)
	r.Counter("weird_total{" + Label("path", `C:\tmp "x"`+"\nend") + "}").Add(5)
	r.Gauge("occupancy").Set(0.75)
	r.Gauge(`queue_depth{shard="0"}`).Set(12)

	h := r.Histogram("latency_seconds", UnitSeconds)
	for _, v := range []float64{0.0005, 0.002, 0.003, 0.05, 0.5, 2.5} {
		h.Observe(int64(v * 1e9))
	}
	h.AttachExemplar(2.5e9, 7)
	return r
}

func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	path := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Prometheus output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPrometheusInvariants re-parses the exporter's own output and checks
// the text-format contracts golden bytes alone can't explain: bucket counts
// are cumulative and monotone, the +Inf bucket equals _count, _sum matches
// the histogram's sum, and escaped label values survive unmangled.
func TestPrometheusInvariants(t *testing.T) {
	r := goldenRegistry()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}

	var buckets []uint64
	var infBucket, count uint64
	var sum float64
	var sawEscaped bool
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Split on the LAST space: escaped label values may contain spaces,
		// the sample value never does.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		name, val := line[:cut], line[cut+1:]
		switch {
		case strings.HasPrefix(name, `latency_seconds_bucket{le="+Inf"}`):
			infBucket, _ = strconv.ParseUint(val, 10, 64)
		case strings.HasPrefix(name, "latency_seconds_bucket"):
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", val, err)
			}
			buckets = append(buckets, n)
		case name == "latency_seconds_sum":
			sum, _ = strconv.ParseFloat(val, 64)
		case name == "latency_seconds_count":
			count, _ = strconv.ParseUint(val, 10, 64)
		case strings.HasPrefix(name, "weird_total"):
			if name == `weird_total{path="C:\\tmp \"x\"\nend"}` {
				sawEscaped = true
			} else {
				t.Fatalf("label escaping mangled: %q", name)
			}
		}
	}

	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Fatalf("buckets not cumulative: %v", buckets)
		}
	}
	if len(buckets) == 0 || infBucket == 0 {
		t.Fatal("histogram series missing from output")
	}
	if buckets[len(buckets)-1] > infBucket {
		t.Fatalf("finite bucket %d exceeds +Inf bucket %d", buckets[len(buckets)-1], infBucket)
	}
	if infBucket != count {
		t.Fatalf("+Inf bucket %d != _count %d", infBucket, count)
	}
	wantSum := 0.0005 + 0.002 + 0.003 + 0.05 + 0.5 + 2.5
	if diff := sum - wantSum; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("_sum %v, want %v", sum, wantSum)
	}
	if count != 6 {
		t.Fatalf("_count %d, want 6", count)
	}
	if !sawEscaped {
		t.Fatal("escaped-label counter missing from output")
	}
}

// TestLabelEscaping pins the Label helper against the three characters the
// text exposition format requires escaping in label values.
func TestLabelEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", `k="plain"`},
		{`ba\ck`, `k="ba\\ck"`},
		{`qu"ote`, `k="qu\"ote"`},
		{"new\nline", `k="new\nline"`},
	}
	for _, c := range cases {
		if got := Label("k", c.in); got != c.want {
			t.Errorf("Label(k, %q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestJSONExemplarRoundTrip verifies the snapshot carries the exemplar.
func TestJSONExemplarRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", UnitSeconds)
	h.Observe(500)
	if ex := r.Snapshot().Histograms["x_seconds"].Exemplar; ex != nil {
		t.Fatalf("exemplar before attach: %+v", ex)
	}
	h.AttachExemplar(500, 99)
	ex := r.Snapshot().Histograms["x_seconds"].Exemplar
	if ex == nil || ex.SpanID != 99 || ex.Value != 500 {
		t.Fatalf("exemplar after attach: %+v", ex)
	}
}

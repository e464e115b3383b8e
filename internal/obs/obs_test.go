package obs

import (
	"runtime"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}

	// A nil counter is a valid no-op handle.
	var nilC *Counter
	nilC.Inc()
	nilC.Add(7)
	if got := nilC.Value(); got != 0 {
		t.Fatalf("nil Value = %d, want 0", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("Value = %v, want 2.5", got)
	}
	g.Add(-1.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("Value = %v, want 1", got)
	}

	var nilG *Gauge
	nilG.Set(3)
	nilG.Add(1)
	if got := nilG.Value(); got != 0 {
		t.Fatalf("nil Value = %v, want 0", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", UnitCount)
	for _, v := range []int64{1, 10, 100, 1000, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 1111 {
		t.Fatalf("Count, Sum = %d, %d, want 5, 1111", s.Count, s.Sum)
	}
	// Each value lands in its own bucket; the negative one records as 0.
	for _, v := range []uint64{0, 1, 10, 100, 1000} {
		if got := s.Counts[BucketOf(v)]; got != 1 {
			t.Fatalf("bucket of %d = %d, want 1 (counts %v)", v, got, s.Counts)
		}
	}
	if len(s.Counts) != BucketOf(1000)+1 {
		t.Fatalf("trailing empty buckets not trimmed: %d counts", len(s.Counts))
	}

	var nilH *Histogram
	nilH.Observe(1)
	if s := nilH.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatal("nil histogram should be a no-op")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total")
	c2 := r.Counter("x_total")
	if c1 != c2 {
		t.Fatal("Counter should return the same handle for the same name")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge should return the same handle for the same name")
	}
	h1 := r.Histogram("h", UnitCount)
	h2 := r.Histogram("h", UnitSeconds) // unit fixed at first registration
	if h1 != h2 {
		t.Fatal("Histogram should return the same handle for the same name")
	}
	if u := h2.Snapshot().Unit; u != UnitCount {
		t.Fatalf("unit changed on re-registration: %v", u)
	}

	// A nil registry hands out nil (no-op) handles.
	var nilR *Registry
	if nilR.Counter("c") != nil || nilR.Gauge("g") != nil || nilR.Histogram("h", UnitSeconds) != nil {
		t.Fatal("nil registry should return nil handles")
	}
	nilR.GaugeFunc("f", func() float64 { return 1 })
	if nilR.CounterValue("c") != 0 || nilR.SumCounters("") != 0 {
		t.Fatal("nil registry reads should be 0")
	}
}

func TestCounterValueAndSum(t *testing.T) {
	r := NewRegistry()
	r.Counter(`nat_hits_total`).Add(3)
	r.Counter(`nat_misses_total`).Add(4)
	r.Counter(`telemetry_packets_total`).Add(100)
	if got := r.CounterValue("nat_hits_total"); got != 3 {
		t.Fatalf("CounterValue = %d, want 3", got)
	}
	if got := r.CounterValue("absent_total"); got != 0 {
		t.Fatalf("CounterValue(absent) = %d, want 0", got)
	}
	if got := r.SumCounters("nat_"); got != 7 {
		t.Fatalf("SumCounters(nat_) = %d, want 7", got)
	}
	if got := r.SumCounters(""); got != 107 {
		t.Fatalf("SumCounters(\"\") = %d, want 107", got)
	}
}

// TestConcurrentUpdates hammers one registry from GOMAXPROCS goroutines; run
// under -race it checks the lock-free hot path and the get-or-create lock.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 10_000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hammer_total")
			g := r.Gauge("hammer_gauge")
			h := r.Histogram("hammer_hist", UnitCount)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 4))
				if i%1000 == 0 { // exercise concurrent readers too
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()

	want := uint64(workers * perWorker)
	if got := r.CounterValue("hammer_total"); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("hammer_gauge").Value(); got != float64(want) {
		t.Fatalf("gauge = %v, want %d", got, want)
	}
	hs := r.Histogram("hammer_hist", UnitCount).Snapshot()
	if hs.Count != want || hs.Sum != want/4*(0+1+2+3) {
		t.Fatalf("histogram count, sum = %d, %d, want %d, %d", hs.Count, hs.Sum, want, want/4*6)
	}
}

// TestHotPathAllocs pins the zero-allocation guarantee of the instrumented
// hot path: resolved handles must not allocate on update, including the nil
// (uninstrumented) handles.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h", UnitSeconds)
	var nilC *Counter
	var nilH *Histogram

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(1) }},
		{"Histogram.Observe", func() { h.Observe(3) }},
		{"nil Counter.Inc", func() { nilC.Inc() }},
		{"nil Histogram.Observe", func() { nilH.Observe(3) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve records from every core at once, spreading
// values over ~16 octaves of buckets; make bench gates it at zero allocs.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", UnitSeconds)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(0x9e3779b97f4a7c15)
		for pb.Next() {
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			h.Observe(int64(v >> 48))
		}
	})
}

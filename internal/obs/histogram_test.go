package obs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkQuantiles feeds data into a fresh histogram and holds p50, p99 and
// p999 within the documented bound: 1/16 of the exact nearest-rank order
// statistic.
func checkQuantiles(t *testing.T, name string, data []int64) {
	t.Helper()
	h := NewHistogram(UnitCount)
	for _, v := range data {
		h.Observe(v)
	}
	s := h.Snapshot()
	sorted := slices.Clone(data)
	slices.Sort(sorted)
	for _, q := range []float64{0.5, 0.99, 0.999} {
		exact := float64(sorted[int(math.Ceil(q*float64(len(sorted))))-1])
		if got := s.Quantile(q); math.Abs(got-exact) > exact/16 {
			t.Errorf("%s: p%v = %v, exact %v (error above 1/16)", name, q*100, got, exact)
		}
	}
}

func TestHistogramQuantileEmptyAndSmall(t *testing.T) {
	if got := NewHistogram(UnitSeconds).Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty: p50 = %v, want 0", got)
	}
	checkQuantiles(t, "one", []int64{7000})
	checkQuantiles(t, "two", []int64{3000, 1000})
	checkQuantiles(t, "four", []int64{40, 10_000, 250, 1_000_000})
}

func TestHistogramQuantileUniform(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := make([]int64, 100_000)
	for i := range data {
		data[i] = r.Int63n(1_000_000)
	}
	checkQuantiles(t, "uniform", data)
}

func TestHistogramQuantileSkewed(t *testing.T) {
	// Exponential latencies: a heavy right tail.
	r := rand.New(rand.NewSource(2))
	data := make([]int64, 200_000)
	for i := range data {
		data[i] = int64(r.ExpFloat64() * 100_000)
	}
	checkQuantiles(t, "skewed", data)
}

func TestHistogramQuantileSorted(t *testing.T) {
	// Monotone streams stress estimators that adapt to arrival order; a
	// histogram must not care.
	asc, desc := make([]int64, 100_000), make([]int64, 100_000)
	for i := range asc {
		asc[i], desc[i] = int64(i), int64(100_000-i)
	}
	checkQuantiles(t, "ascending", asc)
	checkQuantiles(t, "descending", desc)
}

func TestHistogramQuantileConstant(t *testing.T) {
	data := make([]int64, 1000)
	for i := range data {
		data[i] = 42
	}
	checkQuantiles(t, "constant", data)
}

// TestHistogramResolvesTensOfNanos: the core, engine and router hit paths
// cost 19–27ns, so 20ns and 27ns must land in different buckets and read
// back exactly.
func TestHistogramResolvesTensOfNanos(t *testing.T) {
	if BucketOf(20) == BucketOf(27) {
		t.Fatal("20ns and 27ns share a bucket")
	}
	h := NewHistogram(UnitSeconds)
	h.Observe(20)
	h.Observe(27)
	s := h.Snapshot()
	if lo, hi := s.Quantile(0.5), s.Quantile(1); lo != 20 || hi != 27 {
		t.Fatalf("p50, p100 = %v, %v, want 20, 27", lo, hi)
	}
}

// TestBucketLayout pins the layout's edges: contiguous, every value in the
// bucket BucketOf names, and no bucket wider than 1/16 of its lowest value.
func TestBucketLayout(t *testing.T) {
	for i := 0; i < NumBuckets; i++ {
		lo, hi := bucketLow(i), BucketHigh(i)
		if BucketOf(lo) != i || BucketOf(hi) != i {
			t.Fatalf("bucket %d = [%d, %d]: edges map to %d, %d", i, lo, hi, BucketOf(lo), BucketOf(hi))
		}
		if i > 0 && BucketHigh(i-1)+1 != lo {
			t.Fatalf("gap before bucket %d", i)
		}
		if hi-lo > lo/16 {
			t.Fatalf("bucket %d = [%d, %d] wider than 1/16", i, lo, hi)
		}
	}
	if BucketHigh(NumBuckets-1) != math.MaxUint64 {
		t.Fatal("top bucket does not reach MaxUint64")
	}
}

package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Bucket layout, shared by every histogram: values below 2·subBuckets get
// one bucket each; above that, every power-of-two octave [2^k, 2^(k+1))
// splits into subBuckets equal-width buckets. A bucket is never wider than
// 1/subBuckets of its lowest value, so a quantile read from one is within
// 1/16 (6.25%) of the exact order statistic, and the layout covers all of
// uint64 — there is no overflow bucket to guess an edge for.
const (
	subBits    = 4
	subBuckets = 1 << subBits
	// NumBuckets is the bucket count of every histogram.
	NumBuckets = (64 - subBits + 1) * subBuckets
)

// BucketOf returns the index of the bucket holding v.
func BucketOf(v uint64) int {
	shift := bits.Len64(v) - subBits - 1
	if shift < 0 {
		shift = 0
	}
	return shift<<subBits + int(v>>uint(shift))
}

// bucketLow returns the smallest value bucket i holds.
func bucketLow(i int) uint64 {
	shift := i>>subBits - 1
	if shift < 0 {
		shift = 0
	}
	return uint64(i-shift<<subBits) << uint(shift)
}

// BucketHigh returns the largest value bucket i holds.
func BucketHigh(i int) uint64 {
	if i >= NumBuckets-1 {
		return math.MaxUint64
	}
	return bucketLow(i+1) - 1
}

// Unit is a histogram's export unit, the only per-histogram choice.
type Unit uint8

const (
	// UnitSeconds histograms record nanoseconds and export seconds.
	UnitSeconds Unit = iota
	// UnitCount histograms record and export raw integer counts.
	UnitCount
)

// export converts a recorded value to its exported unit (dividing by an
// exact power of ten keeps 3055500000ns printing as 3.0555s).
func (u Unit) export(v uint64) float64 {
	if u == UnitSeconds {
		return float64(v) / 1e9
	}
	return float64(v)
}

// Histogram is the repository's one latency (and size) summary: an integer,
// log-linear histogram over the fixed layout above. Observe is one
// bits.Len64 index plus two atomic adds — the bucket and an integer sum —
// with no lock and no CAS loop.
type Histogram struct {
	unit   Unit
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64
	exVal  atomic.Uint64 // exemplar value
	exID   atomic.Uint64 // exemplar span id (0 = none attached yet)
}

// NewHistogram returns an unregistered histogram — for summaries a run
// reads itself rather than exports.
func NewHistogram(u Unit) *Histogram { return &Histogram{unit: u} }

// Observe records one value (a duration in ns, or a count); negative
// values record as 0.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[BucketOf(uint64(v))].Add(1)
	h.sum.Add(uint64(v))
}

// AttachExemplar pins a representative observation to the histogram: the
// value and the span ID of a captured trace that exhibits it. The exporter
// surfaces the pair so a scraped quantile can be chased back to a concrete
// waterfall on /debug/ops. Last writer wins — two atomic stores, no lock,
// safe (and cheap) from the record path.
func (h *Histogram) AttachExemplar(v int64, spanID uint64) {
	if h == nil || spanID == 0 {
		return
	}
	h.exVal.Store(uint64(max(v, 0)))
	h.exID.Store(spanID)
}

// Load copies the counts and sum into s, reusing s.Counts' storage, so a
// caller that keeps s (with capacity NumBuckets) reads without allocating.
// Trailing empty buckets are trimmed.
func (h *Histogram) Load(s *HistogramSnapshot) {
	s.Unit = h.unit
	s.Count = 0
	s.Counts = s.Counts[:0]
	top := 0
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts = append(s.Counts, c)
		s.Count += c
		if c != 0 {
			top = i + 1
		}
	}
	s.Counts = s.Counts[:top]
	s.Sum = h.sum.Load()
}

// Snapshot returns a fresh copy of the histogram, exemplar included.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	h.Load(&s)
	if id := h.exID.Load(); id != 0 {
		s.Exemplar = &Exemplar{Value: h.exVal.Load(), SpanID: id}
	}
	return s
}

// Exemplar links a histogram to one concrete captured trace: a recorded
// value plus the span ID of the operation that produced it (resolvable on
// the /debug/ops endpoint).
type Exemplar struct {
	Value  uint64 `json:"value"`
	SpanID uint64 `json:"span_id"`
}

// HistogramSnapshot is the exportable state of one histogram, in recorded
// units. Counts[i] is the number of observations in bucket i of the shared
// layout (BucketOf); buckets past the end of Counts are empty.
type HistogramSnapshot struct {
	Unit     Unit      `json:"unit"`
	Count    uint64    `json:"count"`
	Sum      uint64    `json:"sum"`
	Counts   []uint64  `json:"counts"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Sub subtracts an earlier snapshot of the same histogram in place,
// leaving what was observed in between: per-interval quantiles for a live
// console, or a decayed window for the span tracer's tail threshold.
func (s *HistogramSnapshot) Sub(base *HistogramSnapshot) {
	s.Count -= base.Count
	s.Sum -= base.Sum
	for i := range min(len(s.Counts), len(base.Counts)) {
		s.Counts[i] -= base.Counts[i]
	}
}

// rank returns the bucket holding the nearest-rank q-quantile (q clamped to
// [0, 1]) and the sample's 1-based position inside it; ok is false when
// the snapshot is empty.
func (s HistogramSnapshot) rank(q float64) (bucket int, pos uint64, ok bool) {
	if s.Count == 0 {
		return 0, 0, false
	}
	r := uint64(math.Ceil(min(max(q, 0), 1) * float64(s.Count)))
	r = min(max(r, 1), s.Count)
	for i, c := range s.Counts {
		if r <= c {
			return i, r, true
		}
		r -= c
	}
	return 0, 0, false // Count exceeds the bucket sum: a torn concurrent read
}

// Quantile returns the q-quantile in recorded units: the bucket of the
// nearest-rank sample, interpolated linearly by that sample's position in
// it. It is within 1/16 of the exact order statistic; 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	i, pos, ok := s.rank(q)
	if !ok {
		return 0
	}
	lo, hi := bucketLow(i), BucketHigh(i)
	return float64(lo) + float64(hi-lo)*float64(pos)/float64(s.Counts[i])
}

// UpperBound returns the largest value the q-quantile's bucket can hold:
// a conservative (never low) quantile estimate; 0 when empty.
func (s HistogramSnapshot) UpperBound(q float64) uint64 {
	i, _, ok := s.rank(q)
	if !ok {
		return 0
	}
	return BucketHigh(i)
}

// Package span is the per-operation tracing layer: an allocation-free,
// always-on recorder that timestamps each serving operation at stage
// boundaries (wire decode → shard queue wait → policy apply / query fast
// path → miss fetch → backing attempt(s) → reply) and answers the question
// aggregate counters cannot — WHERE a slow op spent its time.
//
// The paper's pipeline argument (§1.2) is exactly this decomposition: a
// hardware P4LRU packet crosses fixed stages with a known per-stage budget,
// so "slow" is always attributable. The software stack re-earns that
// property here: every traced op produces a fixed-width Record whose stage
// durations sum to its end-to-end latency (each interval between marks is
// attributed to exactly one stage), feeding
//
//   - stage-decomposed histograms (span_stage_seconds{stage=...},
//     span_total_seconds) in the caller's obs.Registry, exported through
//     the existing Prometheus/JSON paths with exemplar attachment;
//   - per-shard lock-free ring buffers of captured Records under tail
//     sampling: every op slower than a live-updated p99 threshold is kept,
//     plus one uniform exemplar every SampleN ops, so the rings hold the
//     interesting tail without retaining millions of hits. The threshold
//     is the upper edge of the p99's bucket in the tracer's own total
//     histogram minus a base snapshot; every RecalcEvery ops the base
//     moves halfway to the counts, so older ops weigh half as much per
//     round;
//   - the /debug/ops HTTP handler (see handler.go), which dumps the slowest
//     captured traces as JSON waterfalls.
//
// Hot-path contract: when tracing is off, instrumented code pays one nil
// check plus one atomic load (Tracer.Enabled) and nothing else. When on,
// Span values live on the caller's stack, Records are fixed-width structs
// with no pointers, ring slots are written by index through atomics, and
// nothing on the record path allocates — testing.AllocsPerRun pins this.
//
// Concurrency: the rings are lock-free. A writer claims a slot with one
// atomic cursor increment and publishes through a per-slot sequence word
// (odd while a write is in flight, advanced to even when stable), so
// snapshot readers skip in-flight slots and retry torn reads instead of
// blocking writers. All slot accesses are atomic word operations — the
// race detector sees a clean program.
package span

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/obs"
)

// Stage identifies one latency segment of an operation's life. Stages mirror
// the serving pipeline: not every op visits every stage (a cache hit is
// decode→query→wire; a miss adds miss/fetch), and an unvisited stage simply
// records zero.
type Stage uint8

const (
	// StageDecode is wire decode: bytes off the socket to a parsed message.
	StageDecode Stage = iota
	// StageQueue is shard queue wait: submit-side enqueue to writer dequeue.
	StageQueue
	// StageApply is replacement-state mutation: one batch (or one Apply)
	// under the shard write lock.
	StageApply
	// StageQuery is the read fast path: the shard cache lookup.
	StageQuery
	// StageMiss is miss-path overhead outside the store round trips:
	// singleflight coalescing waits, inflight-slot waits, backoff sleeps,
	// and the install of a fetched value.
	StageMiss
	// StageFetch is time inside backing store round trips (all attempts,
	// hedges included).
	StageFetch
	// StageWire is the reply send: marshalled bytes back onto the socket.
	StageWire

	// NumStages bounds the per-record stage array.
	NumStages
)

var stageNames = [NumStages]string{
	"decode", "queue_wait", "apply", "query", "miss", "fetch", "wire",
}

// String returns the snake_case stage label used in metric names.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage%d", uint8(s))
}

// Kind classifies a finished operation.
type Kind uint8

const (
	// KindNone marks an unwritten record; Finish never emits it.
	KindNone Kind = iota
	// KindHit is a read that found its key resident.
	KindHit
	// KindReadMiss is a plain query miss with no miss path behind it.
	KindReadMiss
	// KindMiss is a miss resolved through the backing store.
	KindMiss
	// KindMissFail is a miss whose fetch failed (retry budget, breaker,
	// timeout).
	KindMissFail
	// KindBatch is one shard-writer batch: queue wait plus batch apply.
	KindBatch
	// KindQuery is a switch/server query-direction packet.
	KindQuery
	// KindReply is a switch/server reply-direction packet.
	KindReply
	// KindShed is an op declined by admission control.
	KindShed
	// KindMigrate is one cluster key-range migration: a range-filtered
	// snapshot streamed from a source peer (StageFetch) and restored into
	// its new owner (StageApply).
	KindMigrate
)

var kindNames = [...]string{
	"none", "hit", "read_miss", "miss", "miss_fail", "batch", "query", "reply", "shed", "migrate",
}

// String returns the kind label used in /debug/ops output.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Flags annotate a record with boolean facts about the op's path.
type Flags uint16

const (
	// FlagHit marks a switch query packet answered from the cache.
	FlagHit Flags = 1 << iota
	// FlagRetried marks a miss that spent more than one fetch attempt.
	FlagRetried
	// FlagHedged marks a fetch that launched a hedged second request.
	FlagHedged
	// FlagBreakerOpen marks a miss rejected by an open circuit breaker.
	FlagBreakerOpen
	// FlagShed marks an op declined by the load shedder.
	FlagShed
	// FlagError marks an op that finished with an error.
	FlagError
	// FlagCoalesced marks a miss served by another Get's in-flight fetch.
	FlagCoalesced
	// FlagTail marks a capture made because the op crossed the live tail
	// threshold.
	FlagTail
	// FlagExemplar marks a capture made by the uniform 1-in-N sampler.
	FlagExemplar
)

var flagNames = []struct {
	f    Flags
	name string
}{
	{FlagHit, "hit"},
	{FlagRetried, "retried"},
	{FlagHedged, "hedged"},
	{FlagBreakerOpen, "breaker_open"},
	{FlagShed, "shed"},
	{FlagError, "error"},
	{FlagCoalesced, "coalesced"},
	{FlagTail, "tail"},
	{FlagExemplar, "exemplar"},
}

// Names expands the flag set into its labels (allocates; diagnostics only).
func (f Flags) Names() []string {
	var out []string
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			out = append(out, fn.name)
		}
	}
	return out
}

// Record is one finished operation's trace: fixed width, no pointers, safe
// to copy by value and to store by index into a preallocated ring. Times are
// nanoseconds; Start is measured from the tracer's epoch.
type Record struct {
	ID       uint64           // capture sequence number (1-based; 0 = never captured)
	Key      uint64           // the op's cache key (0 when unknown, e.g. pre-decode)
	Start    int64            // op start, ns since the tracer epoch
	Total    int64            // end-to-end ns
	Stages   [NumStages]int64 // ns attributed to each stage
	Shard    int32            // home shard (ring index is Shard mod rings)
	Batch    uint16           // ops in the batch, for KindBatch records
	Attempts uint8            // backing store attempts spent
	Kind     Kind
	Flags    Flags
}

// recWords is the ring-slot word count: 4 scalar words, NumStages stage
// words, and one packed metadata word.
const recWords = 4 + int(NumStages) + 1

// encode packs the record into atomic-store-ready words.
func (r *Record) encode(w *[recWords]uint64) {
	w[0] = r.ID
	w[1] = r.Key
	w[2] = uint64(r.Start)
	w[3] = uint64(r.Total)
	for i := 0; i < int(NumStages); i++ {
		w[4+i] = uint64(r.Stages[i])
	}
	w[recWords-1] = uint64(uint16(r.Shard)) | uint64(r.Batch)<<16 |
		uint64(r.Attempts)<<32 | uint64(r.Kind)<<40 | uint64(r.Flags)<<48
}

// decode is encode's inverse.
func (r *Record) decode(w *[recWords]uint64) {
	r.ID = w[0]
	r.Key = w[1]
	r.Start = int64(w[2])
	r.Total = int64(w[3])
	for i := 0; i < int(NumStages); i++ {
		r.Stages[i] = int64(w[4+i])
	}
	meta := w[recWords-1]
	r.Shard = int32(int16(meta))
	r.Batch = uint16(meta >> 16)
	r.Attempts = uint8(meta >> 32)
	r.Kind = Kind(meta >> 40)
	r.Flags = Flags(meta >> 48)
}

// StageSum returns the summed stage nanoseconds — equal to Total up to the
// unattributed sliver between the last Mark and Finish.
func (r *Record) StageSum() int64 {
	var sum int64
	for _, d := range r.Stages {
		sum += d
	}
	return sum
}

// slot is one ring entry: a sequence word (odd while a write is in flight)
// plus the record's words. Everything is atomic, so concurrent snapshot
// reads are race-free and merely skip or retry slots being rewritten.
type slot struct {
	seq atomic.Uint64
	w   [recWords]atomic.Uint64
}

// ring is one shard's capture buffer. The cursor claims slots; the newest
// len(slots) captures survive.
type ring struct {
	pos atomic.Uint64
	_   [56]byte // keep shard cursors off each other's cache line
	buf []slot
}

func (r *ring) store(rec *Record) {
	i := r.pos.Add(1) - 1
	s := &r.buf[i&uint64(len(r.buf)-1)]
	s.seq.Add(1) // odd: write in flight
	var w [recWords]uint64
	rec.encode(&w)
	for j := range w {
		s.w[j].Store(w[j])
	}
	s.seq.Add(1) // even: published
}

// snapshot appends every stable record to out. A slot rewritten mid-read is
// retried a few times, then skipped — readers never block writers.
func (r *ring) snapshot(out []Record) []Record {
	for i := range r.buf {
		s := &r.buf[i]
		for try := 0; try < 3; try++ {
			s1 := s.seq.Load()
			if s1 == 0 || s1&1 == 1 {
				break // never written, or a write is in flight right now
			}
			var w [recWords]uint64
			for j := range w {
				w[j] = s.w[j].Load()
			}
			if s.seq.Load() != s1 {
				continue // torn read: a writer lapped us
			}
			var rec Record
			rec.decode(&w)
			out = append(out, rec)
			break
		}
	}
	return out
}

// Config parameterizes New. The zero value gets sane defaults.
type Config struct {
	// Shards is the ring count; pass the engine's shard count so captures
	// for different shards never contend (0 = 1). Records from shard s land
	// in ring s mod Shards.
	Shards int
	// RingSize is the per-shard capture capacity in records, rounded up to
	// a power of two (0 = 256).
	RingSize int
	// SampleN is the uniform exemplar period: one op in every SampleN is
	// captured regardless of latency (0 = 8192; negative disables uniform
	// sampling).
	SampleN int
	// TailPct is the quantile the live tail threshold tracks: ops slower
	// than the running TailPct-quantile are always captured (0 = 0.99).
	TailPct float64
	// RecalcEvery is how many finished ops pass between threshold
	// recalculations (0 = 1024).
	RecalcEvery int
	// Obs, when non-nil, receives span_stage_seconds{stage=...} and
	// span_total_seconds histograms plus span_ops_total /
	// span_captured_total counters. nil records rings only.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	if c.SampleN == 0 {
		c.SampleN = 8192
	}
	if c.TailPct <= 0 || c.TailPct >= 1 {
		c.TailPct = 0.99
	}
	if c.RecalcEvery <= 0 {
		c.RecalcEvery = 1024
	}
	return c
}

// Tracer owns the rings, the sampling state and the stage histograms. A nil
// *Tracer is a valid disabled tracer: every method no-ops, so call sites
// need no nil checks beyond the Enabled gate they already take.
type Tracer struct {
	cfg     Config
	epoch   time.Time
	enabled atomic.Bool

	rings       []ring
	nextID      atomic.Uint64
	uniformTick atomic.Uint64

	// Live tail threshold, read from totalHist minus a base snapshot. Each
	// recalculation moves the base halfway to the counts, halving the
	// weight of everything seen so far, so the threshold tracks the
	// current workload rather than the all-time distribution.
	tailNS   atomic.Int64
	latOps   atomic.Uint64
	recalcMu sync.Mutex
	window   obs.HistogramSnapshot // scratch: counts minus base (recalcMu)
	base     obs.HistogramSnapshot // decay base, NumBuckets long (recalcMu)

	recorded  *obs.Counter // every finished span
	captured  *obs.Counter // spans written to a ring
	totalHist *obs.Histogram
	stageHist [NumStages]*obs.Histogram
}

// New builds a Tracer. It starts disabled; call SetEnabled(true) to record.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	size := 1
	for size < cfg.RingSize {
		size <<= 1
	}
	t := &Tracer{cfg: cfg, epoch: time.Now()}
	t.rings = make([]ring, cfg.Shards)
	for i := range t.rings {
		t.rings[i].buf = make([]slot, size)
	}
	// Until the first recalculation there is no distribution to threshold
	// against; only uniform exemplars capture.
	t.tailNS.Store(math.MaxInt64)
	// Stats() and the tail threshold need the counters and the total
	// histogram even with no registry; the stage histograms stay nil
	// (nil-safe no-ops) in that case.
	t.recorded = &obs.Counter{}
	t.captured = &obs.Counter{}
	t.totalHist = obs.NewHistogram(obs.UnitSeconds)
	t.window.Counts = make([]uint64, 0, obs.NumBuckets)
	t.base.Counts = make([]uint64, obs.NumBuckets)
	if r := cfg.Obs; r != nil {
		t.recorded = r.Counter("span_ops_total")
		t.captured = r.Counter("span_captured_total")
		t.totalHist = r.Histogram("span_total_seconds", obs.UnitSeconds)
		for i := Stage(0); i < NumStages; i++ {
			t.stageHist[i] = r.Histogram(
				"span_stage_seconds{stage=\""+stageNames[i]+"\"}", obs.UnitSeconds)
		}
		r.GaugeFunc("span_tail_threshold_seconds", func() float64 {
			thr := t.tailNS.Load()
			if thr == math.MaxInt64 {
				return 0
			}
			return float64(thr) / 1e9
		})
	}
	return t
}

// Enabled reports whether spans should be recorded — the single gate
// instrumented code checks on the hot path (nil check + one atomic load).
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled flips recording. Spans started before a flip finish normally.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// now is the tracer clock: monotonic ns since the epoch, allocation-free.
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Clock exposes the tracer clock for callers that must stamp a timestamp to
// carry across goroutines (the engine stamps batch enqueue times with it).
// Returns 0 on a nil tracer.
func (t *Tracer) Clock() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// Start opens a span for one op on the given shard. When tracing is off the
// returned Span is inert and every method on it no-ops.
func (t *Tracer) Start(shard int, key uint64) Span {
	if !t.Enabled() {
		return Span{}
	}
	n := t.now()
	return Span{t: t, last: n, rec: Record{Key: key, Shard: int32(shard), Start: n}}
}

// StartAt opens a span whose clock began at startNS (a prior Clock reading)
// — for ops whose first stage elapsed before the current goroutine saw them,
// like a batch waiting in a shard queue.
func (t *Tracer) StartAt(startNS int64, shard int, key uint64) Span {
	if !t.Enabled() {
		return Span{}
	}
	return Span{t: t, last: startNS, rec: Record{Key: key, Shard: int32(shard), Start: startNS}}
}

// TailThreshold returns the live capture threshold (0 until the first
// recalculation establishes a distribution).
func (t *Tracer) TailThreshold() time.Duration {
	if t == nil {
		return 0
	}
	thr := t.tailNS.Load()
	if thr == math.MaxInt64 {
		return 0
	}
	return time.Duration(thr)
}

// Stats returns (spans finished, spans captured into rings).
func (t *Tracer) Stats() (recorded, captured uint64) {
	if t == nil {
		return 0, 0
	}
	return t.recorded.Value(), t.captured.Value()
}

// Snapshot copies every stable captured record out of the rings (allocates;
// not for the hot path).
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	out := make([]Record, 0, len(t.rings)*len(t.rings[0].buf))
	for i := range t.rings {
		out = t.rings[i].snapshot(out)
	}
	return out
}

// Slowest returns up to n captured records, slowest first.
func (t *Tracer) Slowest(n int) []Record {
	recs := t.Snapshot()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Total > recs[j].Total })
	if n > 0 && len(recs) > n {
		recs = recs[:n]
	}
	return recs
}

// finish is the record path: histograms, threshold bookkeeping, the
// sampling decision, and (for the sampled minority) the ring write and
// exemplar attachment. Allocation-free.
func (t *Tracer) finish(rec *Record) {
	t.recorded.Inc()
	for i := Stage(0); i < NumStages; i++ {
		if d := rec.Stages[i]; d > 0 {
			t.stageHist[i].Observe(d)
		}
	}
	t.totalHist.Observe(rec.Total)
	if n := t.latOps.Add(1); n%uint64(t.cfg.RecalcEvery) == 0 {
		t.recalcThreshold()
	}

	tail := rec.Total > t.tailNS.Load()
	uniform := t.cfg.SampleN > 0 && t.uniformTick.Add(1)%uint64(t.cfg.SampleN) == 0
	if !tail && !uniform {
		return
	}
	if tail {
		rec.Flags |= FlagTail
	}
	if uniform {
		rec.Flags |= FlagExemplar
	}
	rec.ID = t.nextID.Add(1)
	t.captured.Inc()
	t.rings[int(uint32(rec.Shard))%len(t.rings)].store(rec)

	// Exemplar attachment: the total histogram and the op's dominant stage
	// both point at this capture, so a scraped quantile can be chased to
	// the exact waterfall on /debug/ops.
	t.totalHist.AttachExemplar(rec.Total, rec.ID)
	var maxStage Stage
	var maxNS int64
	for i := Stage(0); i < NumStages; i++ {
		if rec.Stages[i] > maxNS {
			maxNS = rec.Stages[i]
			maxStage = i
		}
	}
	if maxNS > 0 {
		t.stageHist[maxStage].AttachExemplar(maxNS, rec.ID)
	}
}

// recalcThreshold sets the tail threshold to the upper edge of the
// TailPct-quantile's bucket in the decayed window (counts minus base), then
// moves the base halfway to the counts. The edge overestimates the quantile
// by at most 1/16 — deliberately conservative: a too-high threshold
// captures fewer, strictly slower ops. Allocation-free; a finisher that
// finds another already recalculating skips the round.
func (t *Tracer) recalcThreshold() {
	if !t.recalcMu.TryLock() {
		return
	}
	defer t.recalcMu.Unlock()
	t.totalHist.Load(&t.window)
	t.window.Sub(&t.base)
	if t.window.Count == 0 {
		return
	}
	t.tailNS.Store(int64(min(t.window.UpperBound(t.cfg.TailPct), math.MaxInt64)))
	for i, c := range t.window.Counts {
		t.base.Counts[i] += c / 2
		t.base.Count += c / 2
	}
}

// Span is one op's in-flight trace, built on the caller's stack. The zero
// Span is inert; all methods are safe on it (and on a nil *Span), so call
// sites thread spans unconditionally and pay nothing when tracing is off.
type Span struct {
	t    *Tracer
	last int64
	rec  Record
}

// Active reports whether this span is recording.
func (s *Span) Active() bool { return s != nil && s.t != nil }

// SetKey fills the op key once known (packets decode after arrival).
func (s *Span) SetKey(k uint64) {
	if s.Active() {
		s.rec.Key = k
	}
}

// SetShard fills the home shard once routed.
func (s *Span) SetShard(i int) {
	if s.Active() {
		s.rec.Shard = int32(i)
	}
}

// SetFlags ORs fact flags into the record.
func (s *Span) SetFlags(f Flags) {
	if s.Active() {
		s.rec.Flags |= f
	}
}

// SetBatch records the op count of a writer batch.
func (s *Span) SetBatch(n int) {
	if s.Active() {
		if n > int(^uint16(0)) {
			n = int(^uint16(0))
		}
		s.rec.Batch = uint16(n)
	}
}

// IncAttempts counts one backing store attempt.
func (s *Span) IncAttempts() {
	if s.Active() && s.rec.Attempts < ^uint8(0) {
		s.rec.Attempts++
	}
}

// Attempts returns the attempts counted so far.
func (s *Span) Attempts() uint8 {
	if !s.Active() {
		return 0
	}
	return s.rec.Attempts
}

// Mark attributes the time since the previous boundary (Start or the last
// Mark) to the given stage and advances the boundary. Because every interval
// lands in exactly one stage, the stage sum tracks the end-to-end total.
func (s *Span) Mark(st Stage) {
	if !s.Active() {
		return
	}
	n := s.t.now()
	s.rec.Stages[st] += n - s.last
	s.last = n
}

// Finish seals the span: stamps the total, classifies it, and hands the
// record to the tracer (histograms always; ring capture when sampled). The
// span is inert afterwards.
func (s *Span) Finish(k Kind) {
	if !s.Active() {
		return
	}
	t := s.t
	s.t = nil
	s.rec.Total = t.now() - s.rec.Start
	if s.rec.Total < 0 {
		s.rec.Total = 0
	}
	s.rec.Kind = k
	t.finish(&s.rec)
}

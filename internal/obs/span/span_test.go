package span

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/obs"
)

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	in := Record{
		ID:       42,
		Key:      0xdeadbeefcafe,
		Start:    123456789,
		Total:    987654,
		Shard:    17,
		Batch:    300,
		Attempts: 3,
		Kind:     KindMiss,
		Flags:    FlagRetried | FlagHedged | FlagTail,
	}
	for i := range in.Stages {
		in.Stages[i] = int64(i+1) * 1000
	}
	var w [recWords]uint64
	in.encode(&w)
	var out Record
	out.decode(&w)
	if out != in {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

func TestDisabledTracerIsInert(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := nilTracer.Start(0, 1)
	sp.Mark(StageQuery)
	sp.SetFlags(FlagHit)
	sp.Finish(KindHit) // must not panic
	if nilTracer.Snapshot() != nil {
		t.Fatal("nil tracer returned records")
	}

	tr := New(Config{})
	if tr.Enabled() {
		t.Fatal("fresh tracer should start disabled")
	}
	sp = tr.Start(0, 1)
	if sp.Active() {
		t.Fatal("span from disabled tracer is active")
	}
	sp.Finish(KindHit)
	if rec, _ := tr.Stats(); rec != 0 {
		t.Fatalf("disabled tracer recorded %d spans", rec)
	}
}

func TestStageSumMatchesTotal(t *testing.T) {
	tr := New(Config{SampleN: 1})
	tr.SetEnabled(true)
	sp := tr.Start(2, 99)
	time.Sleep(2 * time.Millisecond)
	sp.Mark(StageQuery)
	time.Sleep(3 * time.Millisecond)
	sp.Mark(StageFetch)
	sp.Finish(KindMiss)

	recs := tr.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("want 1 captured record, got %d", len(recs))
	}
	rec := recs[0]
	if rec.Key != 99 || rec.Shard != 2 || rec.Kind != KindMiss {
		t.Fatalf("bad record identity: %+v", rec)
	}
	if rec.Stages[StageQuery] < int64(time.Millisecond) {
		t.Fatalf("query stage too small: %v", time.Duration(rec.Stages[StageQuery]))
	}
	if rec.Stages[StageFetch] < int64(2*time.Millisecond) {
		t.Fatalf("fetch stage too small: %v", time.Duration(rec.Stages[StageFetch]))
	}
	// Every interval between marks lands in exactly one stage, so the sum
	// can only miss the sliver between the last Mark and Finish.
	if diff := rec.Total - rec.StageSum(); diff < 0 || diff > int64(time.Millisecond) {
		t.Fatalf("stage sum %v vs total %v (diff %v)",
			time.Duration(rec.StageSum()), time.Duration(rec.Total), time.Duration(diff))
	}
}

func TestUniformSampling(t *testing.T) {
	// RecalcEvery larger than the op count keeps the tail threshold at its
	// initial MaxInt64, so only the uniform sampler captures.
	tr := New(Config{SampleN: 4, RecalcEvery: 1 << 20})
	tr.SetEnabled(true)
	const ops = 100
	for i := 0; i < ops; i++ {
		sp := tr.Start(0, uint64(i))
		sp.Finish(KindHit)
	}
	recorded, captured := tr.Stats()
	if recorded != ops {
		t.Fatalf("recorded = %d, want %d", recorded, ops)
	}
	if captured != ops/4 {
		t.Fatalf("captured = %d, want %d (1 in 4)", captured, ops/4)
	}
	for _, rec := range tr.Snapshot() {
		if rec.Flags&FlagExemplar == 0 {
			t.Fatalf("uniform capture missing FlagExemplar: %+v", rec)
		}
	}
}

func TestTailSampling(t *testing.T) {
	tr := New(Config{SampleN: -1, RecalcEvery: 64, TailPct: 0.99, RingSize: 64})
	tr.SetEnabled(true)
	// Establish a fast distribution (~1µs ops) so the recalculated p99
	// threshold lands far below the upcoming slow op.
	for i := 0; i < 256; i++ {
		sp := tr.StartAt(tr.Clock()-int64(time.Microsecond), 0, uint64(i))
		sp.Finish(KindHit)
	}
	if thr := tr.TailThreshold(); thr <= 0 || thr > time.Millisecond {
		t.Fatalf("tail threshold = %v, want (0, 1ms]", thr)
	}
	_, before := tr.Stats()

	sp := tr.StartAt(tr.Clock()-int64(50*time.Millisecond), 0, 777)
	sp.Mark(StageFetch)
	sp.Finish(KindMiss)

	_, after := tr.Stats()
	if after != before+1 {
		t.Fatalf("slow op not captured: captured %d -> %d", before, after)
	}
	var found bool
	for _, rec := range tr.Snapshot() {
		if rec.Key == 777 {
			found = true
			if rec.Flags&FlagTail == 0 {
				t.Fatalf("tail capture missing FlagTail: %+v", rec)
			}
			if rec.Total < int64(40*time.Millisecond) {
				t.Fatalf("slow op total = %v", time.Duration(rec.Total))
			}
		}
	}
	if !found {
		t.Fatal("slow op not in ring snapshot")
	}
}

// TestTailThresholdHalvingDecay replays a seeded latency stream whose
// distribution shifts part-way and checks every recalculated threshold
// against the halving model: per-bucket counts, each halved after it sets
// the threshold, which is the upper edge of the TailPct-quantile's bucket.
// The exported total histogram keeps every observation.
func TestTailThresholdHalvingDecay(t *testing.T) {
	const every, rounds, pct = 64, 40, 0.99
	reg := obs.NewRegistry()
	tr := New(Config{SampleN: -1, RecalcEvery: every, TailPct: pct, Obs: reg})
	rng := rand.New(rand.NewSource(7))
	var model [obs.NumBuckets]uint64
	for i := 0; i < every*rounds; i++ {
		mean := 1000.0 // ~1µs ops, then ~50µs from round 20 on
		if i >= every*rounds/2 {
			mean = 50_000
		}
		total := int64(rng.ExpFloat64() * mean)
		tr.finish(&Record{Total: total, Kind: KindHit})
		model[obs.BucketOf(uint64(total))]++
		if (i+1)%every != 0 {
			continue
		}
		var n uint64
		for _, c := range model {
			n += c
		}
		rank := uint64(math.Ceil(pct * float64(n)))
		var want uint64
		for b, c := range model {
			if rank <= c {
				want = obs.BucketHigh(b)
				break
			}
			rank -= c
		}
		for b := range model {
			model[b] -= model[b] / 2
		}
		if got := tr.TailThreshold(); got != time.Duration(want) {
			t.Fatalf("round %d: threshold %v, halving model %v", (i+1)/every, got, time.Duration(want))
		}
	}
	if got := reg.Snapshot().Histograms["span_total_seconds"].Count; got != every*rounds {
		t.Fatalf("span_total_seconds count = %d, want every observation (%d)", got, every*rounds)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(Config{SampleN: 1, RingSize: 4, RecalcEvery: 1 << 20})
	tr.SetEnabled(true)
	const ops = 100
	for i := 0; i < ops; i++ {
		sp := tr.Start(0, uint64(i))
		sp.Finish(KindHit)
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot holds %d records, want ring size 4", len(recs))
	}
	for _, rec := range recs {
		if rec.ID <= ops-4 {
			t.Fatalf("stale record survived wrap: ID %d (newest 4 are %d..%d)", rec.ID, ops-3, ops)
		}
	}
}

func TestSlowestOrdersByTotal(t *testing.T) {
	tr := New(Config{SampleN: 1, RingSize: 16, RecalcEvery: 1 << 20})
	tr.SetEnabled(true)
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 2 * time.Millisecond} {
		sp := tr.StartAt(tr.Clock()-int64(d), 0, uint64(d))
		sp.Finish(KindMiss)
	}
	top := tr.Slowest(2)
	if len(top) != 2 {
		t.Fatalf("Slowest(2) returned %d", len(top))
	}
	if top[0].Total < top[1].Total {
		t.Fatalf("not sorted: %v before %v", top[0].Total, top[1].Total)
	}
	if top[0].Key != uint64(5*time.Millisecond) {
		t.Fatalf("slowest is key %d, want the 5ms op", top[0].Key)
	}
}

func TestFinishZeroAllocWithSamplingActive(t *testing.T) {
	// The acceptance gate: sampling ACTIVE (every op captured into the ring
	// plus exemplar attachment) and still zero allocations per op.
	reg := obs.NewRegistry()
	tr := New(Config{SampleN: 1, Obs: reg, RecalcEvery: 64})
	tr.SetEnabled(true)
	key := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		key++
		sp := tr.Start(3, key)
		sp.Mark(StageQuery)
		sp.SetFlags(FlagHit)
		sp.Finish(KindHit)
	})
	if allocs != 0 {
		t.Fatalf("traced op allocated %v times/op, want 0", allocs)
	}
}

func TestObsHistogramsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{SampleN: 1, Obs: reg})
	tr.SetEnabled(true)
	sp := tr.StartAt(tr.Clock()-int64(time.Millisecond), 0, 1)
	sp.Mark(StageQueue)
	sp.Finish(KindBatch)

	snap := reg.Snapshot()
	if h := snap.Histograms["span_total_seconds"]; h.Count != 1 {
		t.Fatalf("span_total_seconds count = %d", h.Count)
	}
	h := snap.Histograms[`span_stage_seconds{stage="queue_wait"}`]
	if h.Count != 1 {
		t.Fatalf("queue_wait stage histogram count = %d", h.Count)
	}
	if h.Exemplar == nil || h.Exemplar.SpanID == 0 {
		t.Fatal("captured span did not attach an exemplar to its dominant stage")
	}
	if snap.Counters["span_ops_total"] != 1 || snap.Counters["span_captured_total"] != 1 {
		t.Fatalf("span counters: %+v", snap.Counters)
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	tr := New(Config{Shards: 4, SampleN: 1, RingSize: 32, RecalcEvery: 16})
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				sp := tr.Start(g, uint64(i))
				sp.Mark(StageQuery)
				sp.Finish(KindHit)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, rec := range tr.Snapshot() {
				if rec.ID == 0 {
					t.Error("snapshot returned an unpublished record")
					return
				}
			}
		}
	}()
	// Let the reader overlap the writers, then stop it and wait for all.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done
	if rec, _ := tr.Stats(); rec != 4*5000 {
		t.Fatalf("recorded %d, want %d", rec, 4*5000)
	}
}

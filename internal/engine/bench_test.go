package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/backing"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/policy"
)

// benchKeys is a shared Zipf-ish key stream: heavy-tailed like the traces,
// wide enough that shards all see traffic.
func benchKeys() []uint64 {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<20)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = zipf.Uint64() + 1
	}
	return keys
}

// BenchmarkEngine measures serving throughput (one Query + one batched
// Submit per op) as the shard count scales 1 → GOMAXPROCS. The memory
// budget is fixed, so this isolates what sharding costs or buys. Reads are
// wait-free at any shard count, so per-op cost only falls as shards climb
// where writer traffic convoys on shard locks across many cores; on a
// 2-vCPU host the curve is flat (BENCH_10: 26.0 ns/op at 1 shard, 26.3 at
// 8). It is a regression guard, not a scaling claim.
func BenchmarkEngine(b *testing.B) {
	shardCounts := []int{1, 2, 4, 8}
	if max := runtime.GOMAXPROCS(0); max > 8 {
		shardCounts = append(shardCounts, max)
	}
	keys := benchKeys()

	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e, err := NewFromSpec(
				policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 1 << 20, Seed: 1},
				Config{Shards: shards, Block: true},
			)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()

			var cursor atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				sub := e.NewSubmitter()
				i := cursor.Add(1 << 40) // decorrelate worker streams
				for pb.Next() {
					k := keys[i&uint64(len(keys)-1)]
					i++
					if _, _, ok := e.Query(k); !ok {
						sub.Submit(Op{Key: k, Value: k})
					}
				}
				sub.Flush()
			})
			e.Flush()
			b.StopTimer()
		})
	}
}

// BenchmarkEngineQuery isolates the read path (shared read locks, no
// writer traffic).
func BenchmarkEngineQuery(b *testing.B) {
	e, err := NewFromSpec(
		policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 1 << 20, Seed: 1},
		Config{Shards: runtime.GOMAXPROCS(0), Block: true},
	)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	keys := benchKeys()
	for _, k := range keys {
		e.Apply(Op{Key: k, Value: k})
	}
	var cursor atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := cursor.Add(1 << 40)
		for pb.Next() {
			e.Query(keys[i&uint64(len(keys)-1)])
			i++
		}
	})
}

// BenchmarkTraceOverhead measures the always-on tracing tax on the engine
// batch-submit path: trace=on runs with an enabled tracer at the default
// sampling rate (per-batch spans, live tail threshold, stage histograms),
// trace=off with no tracer wired at all. The CI bench-smoke gate holds
// trace=on within 5% of trace=off (benchjson -maxratio). Serial on purpose:
// RunParallel contention noise would swamp a single-digit-percent budget.
func BenchmarkTraceOverhead(b *testing.B) {
	keys := benchKeys()
	for _, traced := range []bool{false, true} {
		name := "trace=off"
		var tr *span.Tracer
		if traced {
			name = "trace=on"
			tr = span.New(span.Config{Shards: runtime.GOMAXPROCS(0), Obs: obs.NewRegistry()})
			tr.SetEnabled(true)
		}
		b.Run(name, func(b *testing.B) {
			e, err := NewFromSpec(
				policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 1 << 20, Seed: 1},
				Config{Shards: runtime.GOMAXPROCS(0), Block: true, Span: tr},
			)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			sub := e.NewSubmitter()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i&(len(keys)-1)]
				sub.Submit(Op{Key: k, Value: k})
			}
			sub.Flush()
			e.Flush()
			b.StopTimer()
		})
	}
}

// BenchmarkTiered measures the look-through pair. op=hit is the acceptance
// gate: serving a resident key through GetOrLoad must stay allocation-free
// and within a small factor of the bare Query path (benchjson enforces both
// against the committed baseline). op=miss drives every iteration through
// the loader against an in-memory store and reports end-to-end miss-latency
// p50/p99 as custom metrics, which benchjson folds into the miss-latency
// panel of BENCH_<n>.json.
func BenchmarkTiered(b *testing.B) {
	newTiered := func(b *testing.B, tr *span.Tracer) *Tiered {
		e, err := NewFromSpec(
			policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 1 << 20, Seed: 1},
			Config{Shards: runtime.GOMAXPROCS(0), Block: true, Span: tr},
		)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(e.Close)
		store := backing.NewMapStore()
		store.Synth = true
		return NewTiered(e, store, backing.LoaderConfig{MaxInflight: 256})
	}

	hitBench := func(b *testing.B, t *Tiered) {
		keys := benchKeys()
		for _, k := range keys {
			t.Apply(Op{Key: k, Value: k})
		}
		var resident []uint64
		for _, k := range keys {
			if _, _, ok := t.Query(k); ok {
				resident = append(resident, k)
			}
		}
		if len(resident) == 0 {
			b.Fatal("no resident keys after warmup")
		}
		ctx := context.Background()
		var cursor atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := cursor.Add(1 << 40)
			for pb.Next() {
				k := resident[i%uint64(len(resident))]
				i++
				if _, _, hit, err := t.GetOrLoad(ctx, k); err != nil || !hit {
					b.Errorf("resident key %d: hit=%v err=%v", k, hit, err)
					return
				}
			}
		})
	}

	b.Run("op=hit", func(b *testing.B) {
		hitBench(b, newTiered(b, nil))
	})

	// op=hit-traced re-runs the hit gate with tracing enabled and sampling
	// active: the bench-smoke -zeroalloc gate holds this at 0 allocs/op too,
	// proving the span plumbing never escapes to the heap.
	b.Run("op=hit-traced", func(b *testing.B) {
		tr := span.New(span.Config{Shards: runtime.GOMAXPROCS(0), SampleN: 64, Obs: obs.NewRegistry()})
		tr.SetEnabled(true)
		hitBench(b, newTiered(b, tr))
	})

	b.Run("op=miss", func(b *testing.B) {
		t := newTiered(b, nil)
		ctx := context.Background()
		// Serial on purpose: one op's latency per Observe, and a fresh key
		// per iteration keeps every op a miss.
		lat := obs.NewHistogram(obs.UnitSeconds)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := uint64(1<<40) + uint64(i)
			start := time.Now()
			if _, _, _, err := t.GetOrLoad(ctx, key); err != nil {
				b.Fatal(err)
			}
			lat.Observe(int64(time.Since(start)))
		}
		b.StopTimer()
		if s := lat.Snapshot(); s.Count > 0 {
			b.ReportMetric(s.Quantile(0.5), "p50-miss-ns")
			b.ReportMetric(s.Quantile(0.99), "p99-miss-ns")
		}
	})
}

package lru

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// flatBenchUnits is the array size all three deployed systems use (Table 2):
// 2^16 P4LRU3 units.
const flatBenchUnits = 1 << 16

// flatBenchKeys is a uniform random key stream: accesses spread across all
// 2^16 units, the memory-latency-bound regime the flat layout exists for
// (and the worst case for both cores — a skewed stream only keeps more
// units in cache). 64-bit keys, far more distinct keys than entries, so the
// steady state mixes inserts, hits and evictions.
func flatBenchKeys() []uint64 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return keys
}

// benchFlatLadder is the generic-vs-flat update ladder of one unit width:
// the rungs BenchmarkFlatVsGeneric documents.
func benchFlatLadder(b *testing.B, newGen func() *Array[uint64], newFlat func() FlatCore) {
	keys := flatBenchKeys()
	mask := uint64(len(keys) - 1)

	b.Run("core=generic", func(b *testing.B) {
		a := newGen()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[uint64(i)&mask]
			a.Update(k, k)
		}
	})
	b.Run("core=flat", func(b *testing.B) {
		a := newFlat()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[uint64(i)&mask]
			a.Update(k, k)
		}
	})
	b.Run("core=flat-batch", func(b *testing.B) {
		a := newFlat()
		const batch = 256
		vals := make([]uint64, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			lo := uint64(i) & mask
			end := lo + batch
			if end > uint64(len(keys)) {
				end = uint64(len(keys))
			}
			ks := keys[lo:end]
			a.UpdateBatch(ks, vals[:len(ks)])
		}
	})
}

// BenchmarkFlatVsGeneric replays the same update stream through the generic
// interface-based array and the struct-of-arrays core at 2^16 units:
//
//	core=generic    — Array of *Unit3 behind UnitCache, one Update per op
//	                  (the old engine writer loop)
//	core=flat       — the 3-wide flat core, scalar Update per op
//	core=flat-batch — its UpdateBatch over 256-op batches (the walk the
//	                  engine's shard writers apply)
//
// `make bench` records the result and fails if a flat rung is slower than
// the generic one.
func BenchmarkFlatVsGeneric(b *testing.B) {
	benchFlatLadder(b,
		func() *Array[uint64] { return newGenericArray(3, flatBenchUnits, 1, nil) },
		func() FlatCore { return NewFlatCore(3, flatBenchUnits, 1, nil) })
}

// BenchmarkFlatQuery isolates the read path of both cores over a warmed
// array.
func BenchmarkFlatQuery(b *testing.B) {
	keys := flatBenchKeys()
	mask := uint64(len(keys) - 1)

	b.Run("core=generic", func(b *testing.B) {
		a := NewArray3[uint64](flatBenchUnits, 1, nil)
		for _, k := range keys {
			a.Update(k, k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Lookup(keys[uint64(i)&mask])
		}
	})
	b.Run("core=flat", func(b *testing.B) {
		a := newFlatArray[[3]uint64](flatBenchUnits, 1, nil)
		for _, k := range keys {
			a.Update(k, k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Lookup(keys[uint64(i)&mask])
		}
	})
	b.Run("core=flat-batch", func(b *testing.B) {
		a := newFlatArray[[3]uint64](flatBenchUnits, 1, nil)
		for _, k := range keys {
			a.Update(k, k)
		}
		const batch = 256
		vals := make([]uint64, batch)
		oks := make([]bool, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			lo := uint64(i) & mask
			end := lo + batch
			if end > uint64(len(keys)) {
				end = uint64(len(keys))
			}
			ks := keys[lo:end]
			a.QueryBatch(ks, vals[:len(ks)], oks[:len(ks)])
		}
	})
}

// BenchmarkFlatVsGeneric2 is the BenchmarkFlatVsGeneric ladder for the
// 2-wide core: Array of *Unit2 behind UnitCache against the flat core,
// scalar and batched. `make bench` gates the flat rungs against the generic one.
func BenchmarkFlatVsGeneric2(b *testing.B) {
	benchFlatLadder(b,
		func() *Array[uint64] { return newGenericArray(2, flatBenchUnits, 1, nil) },
		func() FlatCore { return NewFlatCore(2, flatBenchUnits, 1, nil) })
}

// BenchmarkFlatVsGeneric4 is the same ladder for the 4-wide core.
func BenchmarkFlatVsGeneric4(b *testing.B) {
	benchFlatLadder(b,
		func() *Array[uint64] { return newGenericArray(4, flatBenchUnits, 1, nil) },
		func() FlatCore { return NewFlatCore(4, flatBenchUnits, 1, nil) })
}

// BenchmarkFlatVsGenericSeries replays the paper's two-pass access — Query
// for the cached_flag level, then Reply routed by it — through the generic
// Series and the FlatSeries at equal geometry (4 levels, 2^14 units of
// capacity 3 each: the same total entry count as the unit ladders).
func BenchmarkFlatVsGenericSeries(b *testing.B) {
	const levels, units = 4, 1 << 14
	keys := flatBenchKeys()
	mask := uint64(len(keys) - 1)

	b.Run("core=generic", func(b *testing.B) {
		s := NewSeries3[uint64](levels, units, 1, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[uint64(i)&mask]
			_, level, _ := s.Query(k)
			s.Reply(k, k, level)
		}
	})
	b.Run("core=flat", func(b *testing.B) {
		s := NewFlatSeries(3, levels, units, 1, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := keys[uint64(i)&mask]
			_, level, _ := s.Query(k)
			s.Reply(k, k, level)
		}
	})
}

// BenchmarkFlatReaders measures wait-free Query throughput under a live
// writer: one goroutine streams UpdateBatch over the array non-stop while
// 1, 2, 4 or 8 readers split b.N lookups between them. With the seqlock
// there is no reader-writer lock to convoy on, so per-op cost must not
// degrade as readers are added (and scales down with them when the machine
// has the cores); `make bench` gates readers=8 against readers=1.
func BenchmarkFlatReaders(b *testing.B) {
	keys := flatBenchKeys()
	mask := uint64(len(keys) - 1)

	for _, readers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			a := newFlatArray[[3]uint64](flatBenchUnits, 1, nil)
			for _, k := range keys {
				a.Update(k, k)
			}

			var stop atomic.Bool
			var writerDone sync.WaitGroup
			writerDone.Add(1)
			go func() {
				defer writerDone.Done()
				const batch = 256
				vals := make([]uint64, batch)
				for i := 0; !stop.Load(); i += batch {
					lo := uint64(i) & mask
					end := lo + batch
					if end > uint64(len(keys)) {
						end = uint64(len(keys))
					}
					ks := keys[lo:end]
					a.UpdateBatch(ks, vals[:len(ks)])
				}
			}()

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / readers
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(off uint64) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						a.Lookup(keys[(uint64(i)+off)&mask])
					}
				}(uint64(keys[r]))
			}
			wg.Wait()
			b.StopTimer()
			stop.Store(true)
			writerDone.Wait()
		})
	}
}

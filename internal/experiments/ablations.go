package experiments

import (
	"time"

	"github.com/p4lru/p4lru/internal/lru"
	"github.com/p4lru/p4lru/internal/nat"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/trace"
)

// AblationSeries quantifies the §3.2 design choice the paper motivates but
// does not plot: the query/update-separated reply path versus the naive
// immediate-insertion mode, which duplicates keys across levels. One panel
// reports hit rate, the other the fraction of accesses finding the key
// duplicated.
func AblationSeries(s Scale) []Figure {
	keys := trace.ZipfKeys(s.Items, 1.1, s.Queries, s.Seed)
	mem := p4lru3MemoryBytes(s)

	hitFig := Figure{ID: "ablation-series-hit", Title: "series connection: hit rate vs levels",
		XLabel: "levels", YLabel: "hit rate"}
	dupFig := Figure{ID: "ablation-series-dup", Title: "series connection: duplicated-key fraction vs levels",
		XLabel: "levels", YLabel: "duplicate fraction"}

	sepHit := Series{Name: "reply-path"}
	naiveHit := Series{Name: "immediate"}
	sepDup := Series{Name: "reply-path"}
	naiveDup := Series{Name: "immediate"}

	for _, levels := range []int{1, 2, 3, 4, 6} {
		units := mem / levels / 25
		if units < 1 {
			units = 1
		}
		// Reply-path mode.
		sep := lru.NewSeries3[uint64](levels, units, uint64(s.Seed), nil)
		hits, dupes := 0, 0
		for i, k := range keys {
			_, level, ok := sep.Query(k)
			if ok {
				hits++
			}
			sep.Reply(k, uint64(i), level)
			if sep.Contains(k) > 1 {
				dupes++
			}
		}
		sepHit.Points = append(sepHit.Points, Point{X: float64(levels), Y: float64(hits) / float64(len(keys))})
		sepDup.Points = append(sepDup.Points, Point{X: float64(levels), Y: float64(dupes) / float64(len(keys))})

		// Naive immediate mode.
		nai := lru.NewSeries3[uint64](levels, units, uint64(s.Seed), nil)
		hits, dupes = 0, 0
		for i, k := range keys {
			if nai.AccessImmediate(k, uint64(i)) {
				hits++
			}
			if nai.Contains(k) > 1 {
				dupes++
			}
		}
		naiveHit.Points = append(naiveHit.Points, Point{X: float64(levels), Y: float64(hits) / float64(len(keys))})
		naiveDup.Points = append(naiveDup.Points, Point{X: float64(levels), Y: float64(dupes) / float64(len(keys))})
	}
	hitFig.Series = []Series{sepHit, naiveHit}
	dupFig.Series = []Series{sepDup, naiveDup}
	return []Figure{hitFig, dupFig}
}

// AblationP4LRU4 evaluates the §2.3.3 extension: P4LRU4 against P4LRU2/3 at
// equal memory in the LruTable setting. Deeper units approximate LRU better
// but buy fewer units per byte (4 keys + state per unit).
func AblationP4LRU4(s Scale) []Figure {
	tr := traceFor(s, 60)
	fig := Figure{ID: "ablation-p4lru4", Title: "P4LRU2/3/4 at equal memory (LruTable)",
		XLabel: "memory (bytes)", YLabel: "slow-path rate"}
	for _, kind := range []policy.Kind{policy.KindP4LRU2, policy.KindP4LRU3, policy.KindP4LRU4} {
		ser := Series{Name: string(kind)}
		for _, mem := range memorySweep(s) {
			res := nat.Run(tr, nat.Config{
				Cache:         natCache(kind, mem, uint64(s.Seed), 0),
				SlowPathDelay: time.Millisecond,
				Obs:           registry(),
			})
			ser.Points = append(ser.Points, Point{X: float64(mem), Y: slowPathRate(res)})
		}
		fig.Series = append(fig.Series, ser)
	}
	return []Figure{fig}
}

// AblationClock compares the deployable P4LRU3 against the CPU-side cache
// designs the paper's introduction surveys: MemC3's CLOCK approximation and
// the exact list-based LRU, at equal memory in the LruTable setting. CLOCK's
// unbounded eviction sweep cannot run in a pipeline; the question this
// ablation answers is how much hit rate the pipeline-legal design gives up
// against software.
func AblationClock(s Scale) []Figure {
	tr := traceFor(s, 60)
	fig := Figure{ID: "ablation-clock", Title: "P4LRU3 vs CPU-side CLOCK and ideal LRU (LruTable)",
		XLabel: "memory (bytes)", YLabel: "slow-path rate"}
	for _, kind := range []policy.Kind{policy.KindP4LRU1, policy.KindP4LRU3, policy.KindClock, policy.KindIdeal} {
		ser := Series{Name: string(kind)}
		for _, mem := range memorySweep(s) {
			res := nat.Run(tr, nat.Config{
				Cache:         natCache(kind, mem, uint64(s.Seed), 0),
				SlowPathDelay: time.Millisecond,
				Obs:           registry(),
			})
			ser.Points = append(ser.Points, Point{X: float64(mem), Y: slowPathRate(res)})
		}
		fig.Series = append(fig.Series, ser)
	}
	return []Figure{fig}
}

// AblationEncoding measures the cost of the encoded stateful-ALU state
// machines against the generic permutation implementation (same behaviour,
// verified by the differential tests; this reports wall-clock per update).
func AblationEncoding(s Scale) []Figure {
	keys := trace.ZipfKeys(1<<16, 1.1, s.Queries, s.Seed)
	fig := Figure{ID: "ablation-encoding", Title: "encoded vs generic unit update cost",
		XLabel: "unit capacity", YLabel: "ns/op"}

	timeRun := func(u lru.UnitCache[uint64]) float64 {
		start := time.Now()
		for i, k := range keys {
			u.Update(k%64, uint64(i))
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(keys))
	}

	enc := Series{Name: "encoded"}
	gen := Series{Name: "generic"}
	for _, c := range []int{2, 3, 4} {
		enc.Points = append(enc.Points, Point{X: float64(c), Y: timeRun(lru.NewUnitCache[uint64](c, nil))})
		gen.Points = append(gen.Points, Point{X: float64(c), Y: timeRun(lru.NewUnit[uint64](c, nil))})
	}
	fig.Series = []Series{enc, gen}
	return []Figure{fig}
}

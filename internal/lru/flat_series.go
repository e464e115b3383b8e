package lru

import "fmt"

// FlatSeries is the series-connection technique (§3.2) over flat cores: L
// seqlock-versioned flat arrays linked in series, the serving counterpart
// of Series exactly as the flat core is the serving counterpart of Array. The
// level structure, per-level hash seeds and the query/reply split are
// identical to Series (the differential tests pin this), so LruIndex-style
// deployments keep their replacement behaviour while gaining the flat
// layout and wait-free reads on every level.
//
// Concurrency: one writer (Reply, InsertTail demotions, Reset), any number
// of readers (Query, QueryBatch, Len, Contains, Range). A reply that
// demotes an evicted entry down the series moves it between levels in two
// separate unit mutations; a concurrent reader can miss the entry during
// that window (exactly as a packet racing a reply on the switch can), but
// never observes a torn unit or a value the key did not hold.
type FlatSeries struct {
	levels []FlatCore
}

// NewFlatSeries builds a series of `levels` flat arrays of unit capacity
// unitCap (2, 3 or 4 — the capacities with flat cores) and numUnits units
// each. Level i hashes with seed+i*0x9e3779b9, the same per-level family
// walk as NewSeries, so a FlatSeries and a Series with equal parameters
// place every key identically.
func NewFlatSeries(unitCap, levels, numUnits int, seed uint64, merge MergeFunc[uint64]) *FlatSeries {
	if levels < 1 {
		panic(fmt.Sprintf("lru: series with %d levels", levels))
	}
	s := &FlatSeries{levels: make([]FlatCore, levels)}
	for i := range s.levels {
		s.levels[i] = NewFlatCore(unitCap, numUnits, seed+uint64(i)*0x9e3779b9, merge)
	}
	return s
}

// Levels returns the number of series-connected arrays.
func (s *FlatSeries) Levels() int { return len(s.levels) }

// Level returns the i-th flat core (0-based).
func (s *FlatSeries) Level(i int) FlatCore { return s.levels[i] }

// UnitCap returns the per-unit capacity of the levels.
func (s *FlatSeries) UnitCap() int { return s.levels[0].UnitCap() }

// Capacity returns the total entry capacity across levels.
func (s *FlatSeries) Capacity() int {
	total := 0
	for _, a := range s.levels {
		total += a.Capacity()
	}
	return total
}

// Len returns the total number of occupied entries across levels.
func (s *FlatSeries) Len() int {
	total := 0
	for _, a := range s.levels {
		total += a.Len()
	}
	return total
}

// Query is the read-only query path: it consults every level and returns
// the cached value and the 1-based level that holds k (the packet's
// cached_flag), or level 0 on a miss. Wait-free and safe concurrent with
// the writer.
func (s *FlatSeries) Query(k uint64) (v uint64, level int, ok bool) {
	for i, a := range s.levels {
		if val, found := a.Lookup(k); found {
			return val, i + 1, true
		}
	}
	return 0, 0, false
}

// Reply is the cache-modifying reply path, with the same contract as
// Series.Reply: level ≥ 1 promotes k within that level; level 0 inserts at
// level 1 and demotes each level's eviction to the tail of the next, and
// the entry expelled from the last level is returned.
func (s *FlatSeries) Reply(k, v uint64, level int) Result[uint64] {
	if level < 0 || level > len(s.levels) {
		panic(fmt.Sprintf("lru: reply level %d out of range [0,%d]", level, len(s.levels)))
	}
	if level >= 1 {
		return s.levels[level-1].Update(k, v)
	}
	res := s.levels[0].Update(k, v)
	for i := 1; i < len(s.levels) && res.Evicted; i++ {
		res = s.levels[i].InsertTail(res.EvictedKey, res.EvictedValue)
	}
	return res
}

// Contains reports in how many levels k is cached — the duplication
// diagnostic, mirroring Series.Contains.
func (s *FlatSeries) Contains(k uint64) (levels int) {
	for _, a := range s.levels {
		if _, found := a.Lookup(k); found {
			levels++
		}
	}
	return levels
}

// Range calls fn for every cached (key, value) pair across all levels until
// fn returns false; per-unit seqlock snapshots as in the flat arrays.
func (s *FlatSeries) Range(fn func(k, v uint64) bool) {
	for _, a := range s.levels {
		stopped := false
		a.Range(func(k, v uint64) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// Reset empties every level.
func (s *FlatSeries) Reset() {
	for _, a := range s.levels {
		a.Reset()
	}
}

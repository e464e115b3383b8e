// Package sketch implements the approximate counting structures LruMon uses
// to filter mouse flows (§3.3): TowerSketch (the paper's default), the
// Count-Min sketch, and the conservative-update (CU) sketch.
//
// Every sketch supports the data-plane reset discipline of §3.3: each counter
// carries an 8-bit epoch timestamp and is lazily zeroed the first time it is
// touched in a new reset interval — the millisecond-scale "periodic counter
// reset" that bounds how much mouse traffic accumulates. Estimates within an
// interval never under-count a flow (they are one-sided, which is what makes
// LruMon's maximum per-flow error provably at most the filter threshold).
package sketch

import (
	"fmt"
	"time"

	"github.com/p4lru/p4lru/internal/hashing"
)

// Filter is the interface LruMon expects from its pre-filter.
type Filter interface {
	// Add credits delta bytes to key at time now and returns the estimated
	// byte count of key within the current reset interval (including delta).
	Add(key uint64, delta uint32, now time.Duration) uint32
	// Estimate returns the current-interval estimate without modifying
	// counters.
	Estimate(key uint64, now time.Duration) uint32
	// MemoryBytes reports counter memory for equal-memory comparisons.
	MemoryBytes() int
	// Name identifies the filter in experiment output.
	Name() string
}

// counterRow is one array of saturating counters with lazy epoch reset.
type counterRow struct {
	vals   []uint32
	epochs []uint8
	max    uint32 // saturation value (255 for 8-bit, 65535 for 16-bit, ...)
	hash   hashing.Hash
}

func newCounterRow(width int, bits uint, seed uint64) *counterRow {
	if width < 1 {
		panic(fmt.Sprintf("sketch: row width %d", width))
	}
	if bits < 1 || bits > 32 {
		panic(fmt.Sprintf("sketch: counter bits %d", bits))
	}
	return &counterRow{
		vals:   make([]uint32, width),
		epochs: make([]uint8, width),
		max:    uint32(1<<bits - 1),
		hash:   hashing.New(seed),
	}
}

// touch lazily resets the counter if its epoch is stale and returns its index.
func (r *counterRow) touch(key uint64, epoch uint8) int {
	i := r.hash.Index(key, len(r.vals))
	if r.epochs[i] != epoch {
		r.epochs[i] = epoch
		r.vals[i] = 0
	}
	return i
}

func (r *counterRow) add(key uint64, delta uint32, epoch uint8) uint32 {
	i := r.touch(key, epoch)
	v := r.vals[i]
	if v > r.max-delta || v+delta > r.max { // saturating add
		v = r.max
	} else {
		v += delta
	}
	r.vals[i] = v
	return v
}

// read returns the counter value, treating a stale epoch as zero. It does
// not modify state.
func (r *counterRow) read(key uint64, epoch uint8) uint32 {
	i := r.hash.Index(key, len(r.vals))
	if r.epochs[i] != epoch {
		return 0
	}
	return r.vals[i]
}

// epochOf maps a timestamp to the 8-bit epoch counter the data plane keeps.
func epochOf(now, period time.Duration) uint8 {
	if period <= 0 {
		return 0
	}
	return uint8(now / period)
}

// Tower is the TowerSketch: stacked counter arrays of halving width and
// doubling counter bits (the paper's C1: 2^20 8-bit counters over
// C2: 2^19 16-bit counters). The estimate is the minimum across levels,
// treating saturated counters as unbounded.
type Tower struct {
	rows        []*counterRow
	resetPeriod time.Duration
}

// NewTower builds a TowerSketch. widths[i] counters of bits[i] bits per
// level. resetPeriod ≤ 0 disables periodic reset.
func NewTower(widths []int, bits []uint, resetPeriod time.Duration, seed uint64) *Tower {
	if len(widths) == 0 || len(widths) != len(bits) {
		panic("sketch: tower needs matching non-empty widths and bits")
	}
	t := &Tower{resetPeriod: resetPeriod}
	for i := range widths {
		t.rows = append(t.rows, newCounterRow(widths[i], bits[i], seed+uint64(i)*7919))
	}
	return t
}

// NewTowerDefault builds the paper's LruMon configuration scaled by factor f:
// 2^20·f 8-bit counters and 2^19·f 16-bit counters.
func NewTowerDefault(f float64, resetPeriod time.Duration, seed uint64) *Tower {
	w1 := int(float64(1<<20) * f)
	w2 := int(float64(1<<19) * f)
	if w1 < 1 {
		w1 = 1
	}
	if w2 < 1 {
		w2 = 1
	}
	return NewTower([]int{w1, w2}, []uint{8, 16}, resetPeriod, seed)
}

// Name implements Filter.
func (t *Tower) Name() string { return "tower" }

// Add implements Filter.
func (t *Tower) Add(key uint64, delta uint32, now time.Duration) uint32 {
	epoch := epochOf(now, t.resetPeriod)
	est := ^uint32(0)
	for _, r := range t.rows {
		v := r.add(key, delta, epoch)
		if v < r.max && v < est { // saturated ⇒ unbounded
			est = v
		}
	}
	if est == ^uint32(0) {
		// Every level saturated: report the largest saturation bound.
		for _, r := range t.rows {
			if r.max > 0 && (est == ^uint32(0) || r.max > est) {
				est = r.max
			}
		}
	}
	return est
}

// Estimate implements Filter.
func (t *Tower) Estimate(key uint64, now time.Duration) uint32 {
	epoch := epochOf(now, t.resetPeriod)
	est := ^uint32(0)
	for _, r := range t.rows {
		v := r.read(key, epoch)
		if v < r.max && v < est {
			est = v
		}
	}
	if est == ^uint32(0) {
		for _, r := range t.rows {
			if r.max > est || est == ^uint32(0) {
				est = r.max
			}
		}
	}
	return est
}

// MemoryBytes implements Filter.
func (t *Tower) MemoryBytes() int {
	total := 0
	for _, r := range t.rows {
		bits := 0
		for m := r.max; m > 0; m >>= 1 {
			bits++
		}
		total += len(r.vals) * bits / 8
	}
	return total
}

// CountMin is the classical Count-Min sketch: d rows of w 32-bit counters,
// estimate = min over rows.
type CountMin struct {
	rows         []*counterRow
	resetPeriod  time.Duration
	conservative bool
}

// NewCountMin builds a d×w Count-Min sketch.
func NewCountMin(d, w int, resetPeriod time.Duration, seed uint64) *CountMin {
	if d < 1 {
		panic(fmt.Sprintf("sketch: count-min depth %d", d))
	}
	cm := &CountMin{resetPeriod: resetPeriod}
	for i := 0; i < d; i++ {
		cm.rows = append(cm.rows, newCounterRow(w, 32, seed+uint64(i)*104729))
	}
	return cm
}

// NewCU builds a conservative-update sketch: identical shape to Count-Min,
// but Add only increments the rows currently at the minimum, halving typical
// overestimation.
func NewCU(d, w int, resetPeriod time.Duration, seed uint64) *CountMin {
	cm := NewCountMin(d, w, resetPeriod, seed)
	cm.conservative = true
	return cm
}

// Name implements Filter.
func (c *CountMin) Name() string {
	if c.conservative {
		return "cu"
	}
	return "cm"
}

// Add implements Filter.
func (c *CountMin) Add(key uint64, delta uint32, now time.Duration) uint32 {
	epoch := epochOf(now, c.resetPeriod)
	if !c.conservative {
		est := ^uint32(0)
		for _, r := range c.rows {
			if v := r.add(key, delta, epoch); v < est {
				est = v
			}
		}
		return est
	}
	// Conservative update: raise every counter to at most min+delta. The
	// row indexes live on the stack up to 8 rows, so Add does not allocate.
	var buf [8]int
	idx := buf[:]
	if len(c.rows) > len(buf) {
		idx = make([]int, len(c.rows))
	}
	min := ^uint32(0)
	for i, r := range c.rows {
		idx[i] = r.touch(key, epoch)
		if v := r.vals[idx[i]]; v < min {
			min = v
		}
	}
	target := min + delta
	for i, r := range c.rows {
		if r.vals[idx[i]] < target {
			r.vals[idx[i]] = target
		}
	}
	return target
}

// Estimate implements Filter.
func (c *CountMin) Estimate(key uint64, now time.Duration) uint32 {
	epoch := epochOf(now, c.resetPeriod)
	est := ^uint32(0)
	for _, r := range c.rows {
		if v := r.read(key, epoch); v < est {
			est = v
		}
	}
	return est
}

// MemoryBytes implements Filter.
func (c *CountMin) MemoryBytes() int {
	total := 0
	for _, r := range c.rows {
		total += len(r.vals) * 4
	}
	return total
}

var (
	_ Filter = (*Tower)(nil)
	_ Filter = (*CountMin)(nil)
)

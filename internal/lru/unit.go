package lru

import (
	"fmt"

	"github.com/p4lru/p4lru/internal/perm"
)

// MergeFunc combines the cached value with an incoming value on a hit.
// A nil MergeFunc means "replace" (read-cache semantics); write-caches such
// as LruMon use addition.
type MergeFunc[V any] func(old, incoming V) V

// Result reports the outcome of a state-modifying cache access.
type Result[V any] struct {
	// Hit is true when the key was already cached.
	Hit bool
	// Evicted is true when an older entry was expelled to make room.
	Evicted bool
	// EvictedKey/EvictedValue hold the expelled entry when Evicted.
	EvictedKey   uint64
	EvictedValue V
}

// UnitCache is the behaviour shared by Unit, Unit2, Unit3 and Unit4 — a
// single P4LRU cache unit of small fixed capacity. Array and Series build
// larger caches out of UnitCache values.
type UnitCache[V any] interface {
	// Update performs the paper's Algorithm 1: the key becomes the most
	// recently used entry, its value is merged (hit) or stored (miss), and
	// the least recently used entry is evicted when the unit is full.
	Update(k uint64, v V) Result[V]
	// Lookup returns the value mapped to k without modifying the unit.
	Lookup(k uint64) (V, bool)
	// InsertTail stores k as the least recently used entry without touching
	// the cache state — the series-connection demotion path (§3.2). If the
	// unit is full the previous LRU entry is evicted; if k is already
	// present only its value is replaced.
	InsertTail(k uint64, v V) Result[V]
	// Len is the number of occupied entries; Cap is the unit capacity n.
	Len() int
	Cap() int
	// KeyAt returns the i-th key in LRU order (0 = most recently used).
	// It panics if i ≥ Len. For tests, debugging and similarity tracking.
	KeyAt(i int) uint64
}

// Unit is the generic P4LRUn cache unit of Algorithm 1, storing the cache
// state as an explicit permutation. It exists as the readable reference
// implementation and supports any n ≥ 1; the encoded Unit2/Unit3/Unit4 are
// verified against it.
type Unit[V any] struct {
	keys  []uint64
	vals  []V
	state perm.Perm
	size  int
	merge MergeFunc[V]
}

var _ UnitCache[int] = (*Unit[int])(nil)

// NewUnit returns an empty P4LRUn unit of capacity n. merge may be nil for
// replace-on-hit semantics.
func NewUnit[V any](n int, merge MergeFunc[V]) *Unit[V] {
	if n < 1 {
		panic(fmt.Sprintf("lru: unit capacity %d < 1", n))
	}
	return &Unit[V]{
		keys:  make([]uint64, n),
		vals:  make([]V, n),
		state: perm.Identity(n),
		merge: merge,
	}
}

// NewUnitCache returns an empty unit of capacity n: the encoded data-plane
// Unit2, Unit3 or Unit4 for n = 2, 3, 4, the generic Unit otherwise.
func NewUnitCache[V any](n int, merge MergeFunc[V]) UnitCache[V] {
	switch n {
	case 2:
		return NewUnit2(merge)
	case 3:
		return NewUnit3(merge)
	case 4:
		return NewUnit4(merge)
	}
	return NewUnit(n, merge)
}

// Len returns the number of occupied entries.
func (u *Unit[V]) Len() int { return u.size }

// Cap returns the unit capacity n.
func (u *Unit[V]) Cap() int { return len(u.keys) }

// KeyAt returns the i-th key in LRU order (0 = most recently used).
func (u *Unit[V]) KeyAt(i int) uint64 {
	if i < 0 || i >= u.size {
		panic(fmt.Sprintf("lru: KeyAt(%d) with %d entries", i, u.size))
	}
	return u.keys[i]
}

// State returns a copy of the cache state permutation S_lru.
func (u *Unit[V]) State() perm.Perm { return u.state.Clone() }

// Lookup scans the key array and returns the value at val[S_lru(i)] for the
// matching position i, without modifying the unit.
func (u *Unit[V]) Lookup(k uint64) (V, bool) {
	for i := 0; i < u.size; i++ {
		if u.keys[i] == k {
			return u.vals[u.state.Apply(i)], true
		}
	}
	var zero V
	return zero, false
}

// Update implements Algorithm 1's three steps:
//
//  1. maintain the key array in LRU order (swap-scan, evicting key[n-1] on a
//     full miss),
//  2. pre-multiply the cache state by the inverse rotation R^-1,
//  3. merge or store the value at val[S_lru(1)].
func (u *Unit[V]) Update(k uint64, v V) Result[V] {
	n := len(u.keys)

	// Step 1: find the rotation endpoint.
	hitPos := -1
	for i := 0; i < u.size; i++ {
		if u.keys[i] == k {
			hitPos = i
			break
		}
	}

	var res Result[V]
	var rot int // 0-based rotation endpoint i of Rotation(n, i)
	switch {
	case hitPos >= 0:
		res.Hit = true
		rot = hitPos
	case u.size < n:
		// Insert into an empty slot: equivalent to a hit on the first free
		// position — the free slot "rotates" to the front.
		rot = u.size
		u.size++
	default:
		// Full miss: evict the least recently used key.
		rot = n - 1
		res.Evicted = true
		res.EvictedKey = u.keys[n-1]
	}

	// Rotate keys[0..rot] forward by one; the incoming key takes position 0.
	copy(u.keys[1:rot+1], u.keys[:rot])
	u.keys[0] = k

	// Step 2: S_lru ← R^-1 × S_lru.
	u.state = perm.RotationInverse(n, rot).Compose(u.state)

	// Step 3: the value slot of the (new) most recently used key.
	slot := u.state.Apply(0)
	if res.Evicted {
		res.EvictedValue = u.vals[slot]
	}
	if res.Hit && u.merge != nil {
		u.vals[slot] = u.merge(u.vals[slot], v)
	} else {
		u.vals[slot] = v
	}
	return res
}

// InsertTail stores k as the least recently used entry (series-connection
// demotion). The cache state is untouched except for value placement.
func (u *Unit[V]) InsertTail(k uint64, v V) Result[V] {
	var res Result[V]
	// Guard against intra-unit duplicates (possible when replies race).
	for i := 0; i < u.size; i++ {
		if u.keys[i] == k {
			res.Hit = true
			u.vals[u.state.Apply(i)] = v
			return res
		}
	}
	if u.size < len(u.keys) {
		u.keys[u.size] = k
		u.vals[u.state.Apply(u.size)] = v
		u.size++
		return res
	}
	last := len(u.keys) - 1
	slot := u.state.Apply(last)
	res.Evicted = true
	res.EvictedKey = u.keys[last]
	res.EvictedValue = u.vals[slot]
	u.keys[last] = k
	u.vals[slot] = v
	return res
}

// Reset empties the unit and restores the identity cache state.
func (u *Unit[V]) Reset() {
	u.size = 0
	u.state = perm.Identity(len(u.keys))
}

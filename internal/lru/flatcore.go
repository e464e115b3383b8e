package lru

import (
	"fmt"
	"runtime"

	"github.com/p4lru/p4lru/internal/hashing"
)

// FlatCore is the interface of the flat struct-of-arrays serving cores:
// concrete uint64 key/value slabs with seqlock-versioned units, one writer,
// wait-free concurrent readers. FlatSeries composes levels of it, and the
// policy layer builds the default serving cache for every P4LRU spec kind
// on top of it; the generic Array/Unit types remain the differential
// oracle.
type FlatCore interface {
	// Units is the unit count; UnitCap the per-unit entry capacity;
	// Capacity their product; Len the current occupancy.
	Units() int
	UnitCap() int
	Capacity() int
	Len() int
	// UnitIndex is the paper's per-packet register index h(k).
	UnitIndex(k uint64) int
	// Lookup and QueryBatch are the wait-free read paths, safe concurrent
	// with the single writer.
	Lookup(k uint64) (uint64, bool)
	QueryBatch(keys []uint64, vals []uint64, oks []bool)
	// Update, InsertTail, UpdateBatch and Reset are writer operations; the
	// caller serializes them.
	Update(k, v uint64) Result[uint64]
	InsertTail(k, v uint64) Result[uint64]
	UpdateBatch(keys, vals []uint64) (hits, evictions int)
	Reset()
	// Range snapshots each unit through its seqlock, so fn never sees a
	// torn unit.
	Range(fn func(k, v uint64) bool)
}

// NewFlatCore builds the flat array for unit capacity 2, 3 or 4 — the three
// data-plane unit designs of §2.3. seed selects the index-hash family member
// exactly as the generic constructors do, so a flat core and the generic
// Array of the same width and seed place every key in the same unit; merge
// may be nil for replace-on-hit semantics. Other capacities have no flat
// core (the generic Array serves them) and panic.
func NewFlatCore(unitCap, numUnits int, seed uint64, merge MergeFunc[uint64]) FlatCore {
	switch unitCap {
	case 2:
		return newFlatArray[[2]uint64](numUnits, seed, merge)
	case 3:
		return newFlatArray[[3]uint64](numUnits, seed, merge)
	case 4:
		return newFlatArray[[4]uint64](numUnits, seed, merge)
	default:
		panic(fmt.Sprintf("lru: no flat core for unit capacity %d", unitCap))
	}
}

// flatArray is the parallel-connection array of P4LRUn units (§1.2,
// n = len(R)) in a struct-of-arrays layout: instead of m heap-allocated
// units behind an interface, the state of all units lives in three
// contiguous slabs
//
//	keys : []R, one n-register row per unit — the key registers of
//	       stages 1–n, in LRU order (0 = MRU)
//	vals : []R, one row per unit — the value registers, in fixed slots
//	       permuted by the unit's cache state
//	meta : []uint32, 1 per unit — the seqlock word: version<<8 | packed
//	       state byte (bits 0–4 the permutation code, bits 5–7 the
//	       occupancy)
//
// indexed by unit number. This is the memory model of the hardware itself:
// on Tofino each stage owns one register array indexed by h(key), and a
// packet's unit index addresses the same row of every array ("Packet
// Transactions" formalizes exactly this per-stage register-array
// discipline). In software the layout removes the per-access interface
// dispatch and pointer chase of Array — a unit's address is computed
// arithmetically from slab bases already in registers, so the key/value
// line loads issue in parallel instead of serializing behind an interface
// data-pointer load.
//
// The one body serves every width: gc stencils it once per row type, so
// len(R) is a constant in each instantiation. The widths differ only in
// how the permutation code is encoded and advanced, which lives in
// flatTables: P4LRU2's one swap bit, P4LRU3's Table 1 code, and P4LRU4's
// (s3, v4) pair as s3 | v4<<3.
//
// A flat array is behaviourally identical to the generic Array of the same
// width and seed: same index hash, same key rotation, same state
// arithmetic, same value-slot placement. The differential tests pin this
// equivalence, so the generic Array remains the readable oracle while the
// flat array is the serving core. Update, Lookup, InsertTail and the batch
// walks perform zero heap allocations.
//
// Concurrency: one writer, any number of readers. Lookup, QueryBatch, Len
// and Range are safe to run concurrently with the writer's Update,
// InsertTail, UpdateBatch and Reset — every unit mutation is bracketed by
// its seqlock word (see flatseq.go), and readers retry the rare snapshot
// that a concurrent mutation tears. Mutators themselves must still be
// serialized by the caller; the serving engine gives each shard a private
// array behind its single writer.
type flatArray[R [2]uint64 | [3]uint64 | [4]uint64] struct {
	keys  []R
	vals  []R
	meta  []uint32
	hash  hashing.Hash
	merge MergeFunc[uint64]

	// batchUnits is the reusable scratch of the writer's batch walk: unit
	// indexes are hashed up front so the apply pass streams through the
	// slabs with the next units' lines already warming (see UpdateBatch).
	// Writer-owned; the reader-side QueryBatch uses stack scratch instead.
	batchUnits []int32
}

const (
	flatCodeMask  = 0x1f // bits 0–4: the permutation code
	flatSizeShift = 5    // bits 5–7: occupancy (0–n)
)

// batchLookahead is how many ops ahead of the apply cursor the batch walks
// touch the target unit's key line. Far enough to cover a main
// memory load, near enough that the lines survive until use.
const batchLookahead = 8

// flatQueryChunk is the stack-scratch width of QueryBatch: keys are hashed
// and walked in chunks of this many, so the read path needs no shared
// scratch and stays safe under concurrent readers.
const flatQueryChunk = 64

// flatTable is one unit width's state arithmetic on the packed state byte.
type flatTable struct {
	// valPos[code][i] is the value slot of key position i.
	valPos [32][4]uint8
	// next[op][meta] is the successor state byte under operation op (a
	// hit at position op, or the insert/evict rotation ending at op): the
	// permutation transition and the occupancy bump on insertion, folded
	// into one load. A uint8 index needs no bounds check.
	next [4][256]uint8
	// empty is the state byte of an empty unit.
	empty uint8
}

// flatTables[n-2] holds the tables of width n, built from the oracle
// units' own transition functions and slot maps so the generic units stay
// the single source of the state arithmetic.
var flatTables = [3]flatTable{
	newFlatTable(2, 0, []uint8{0, 1},
		func(c uint8, op int) uint8 {
			if op == 0 {
				return State2Op1(c)
			}
			return State2Op2(c)
		},
		func(c uint8, i int) uint8 { return uint8((&Unit2[uint64]{state: c}).valPos(i)) }),
	newFlatTable(3, State3Initial, []uint8{0, 1, 2, 3, 4, 5},
		func(c uint8, op int) uint8 {
			return [3]func(State3) State3{State3Op1, State3Op2, State3Op3}[op](c)
		},
		func(c uint8, i int) uint8 { return state3ValPos[c][i] }),
	newFlatTable(4, State3Initial, func() (codes []uint8) {
		for h := uint8(0); h < 4; h++ {
			for c := uint8(0); c < 6; c++ {
				codes = append(codes, c|h<<3)
			}
		}
		return
	}(),
		func(c uint8, op int) uint8 {
			s3, v4 := c&0x07, c>>3
			return unit4Tables.s3Next[op][s3] | (v4^unit4Tables.v4Xor[op][s3])<<3
		},
		func(c uint8, i int) uint8 { return unit4Tables.valPos[c&0x07][c>>3][i] }),
}

// newFlatTable tabulates width n over its valid permutation codes: step is
// the oracle's transition under each operation, slot its value-slot map.
func newFlatTable(n int, empty uint8, codes []uint8, step func(code uint8, op int) uint8, slot func(code uint8, i int) uint8) (t flatTable) {
	t.empty = empty
	for _, c := range codes {
		for i := 0; i < n; i++ {
			t.valPos[c][i] = slot(c, i)
		}
		for op := 0; op < n; op++ {
			// Update relies on the new MRU key inheriting position op's slot.
			if slot(step(c, op), 0) != slot(c, op) {
				panic(fmt.Sprintf("lru: width %d op %d moves the value slot of state %d", n, op, c))
			}
			for size := 0; size <= n; size++ {
				newSize := size
				// Update on a non-full unit with op == size is an insertion.
				if size < n && op == size {
					newSize++
				}
				t.next[op][int(c)|size<<flatSizeShift] = step(c, op) | uint8(newSize)<<flatSizeShift
			}
		}
	}
	return t
}

// newFlatArray builds numUnits empty units of width len(R).
func newFlatArray[R [2]uint64 | [3]uint64 | [4]uint64](numUnits int, seed uint64, merge MergeFunc[uint64]) *flatArray[R] {
	if numUnits < 1 {
		panic(fmt.Sprintf("lru: flat array with %d units", numUnits))
	}
	a := &flatArray[R]{
		keys:  make([]R, numUnits),
		vals:  make([]R, numUnits),
		meta:  make([]uint32, numUnits),
		hash:  hashing.New(seed),
		merge: merge,
	}
	var row R
	empty := uint32(flatTables[len(row)-2].empty)
	for u := range a.meta {
		a.meta[u] = empty
	}
	return a
}

// Units returns the number of units.
func (a *flatArray[R]) Units() int { return len(a.meta) }

// UnitCap returns the per-unit capacity n.
func (a *flatArray[R]) UnitCap() int {
	var row R
	return len(row)
}

// Capacity returns the total entry capacity (n per unit).
func (a *flatArray[R]) Capacity() int { return a.UnitCap() * len(a.meta) }

// Len returns the total number of occupied entries across all units. Safe
// concurrent with the writer; each unit's occupancy is one word read, so
// the sum is per-unit consistent but not a cross-unit snapshot.
func (a *flatArray[R]) Len() int {
	total := 0
	for u := range a.meta {
		total += a.UnitLen(u)
	}
	return total
}

// UnitIndex returns the unit addressed by h(k) — the paper's per-packet
// register index. The hot paths spell it out as a.hash.Index(k,
// len(a.meta)): the stenciled UnitIndex is just over gc's inlining budget.
func (a *flatArray[R]) UnitIndex(k uint64) int {
	return a.hash.Index(k, len(a.meta))
}

// UnitLen returns the occupancy of unit u.
func (a *flatArray[R]) UnitLen(u int) int {
	return int(seqLoad32(&a.meta[u])&flatMetaMask) >> flatSizeShift
}

// UnitState returns the packed permutation code of unit u: the State2 bit,
// the State3 code, or Unit4's pair as s3 | v4<<3.
func (a *flatArray[R]) UnitState(u int) uint8 {
	return uint8(seqLoad32(&a.meta[u]) & flatCodeMask)
}

// UnitKeyAt returns the i-th key of unit u in LRU order (0 = most recently
// used). It panics if i ≥ UnitLen(u). For the differential tests and
// debugging, mirroring UnitCache.KeyAt; unlike Lookup it does not retry
// torn snapshots, so call it only while the writer is quiescent.
func (a *flatArray[R]) UnitKeyAt(u, i int) uint64 {
	if i < 0 || i >= a.UnitLen(u) {
		panic(fmt.Sprintf("lru: UnitKeyAt(%d) with %d entries", i, a.UnitLen(u)))
	}
	return seqLoad64(&a.keys[u][i])
}

// Lookup returns the value for k without modifying the array. Safe
// concurrent with the writer.
func (a *flatArray[R]) Lookup(k uint64) (uint64, bool) {
	return a.lookupInUnit(a.hash.Index(k, len(a.meta)), k)
}

func (a *flatArray[R]) lookupInUnit(u int, k uint64) (uint64, bool) {
	var row R // len(row) is the unit width, a constant in each stencil
	n, t := len(row), &flatTables[len(row)-2]
	keys, vals := a.keys, a.vals
	_, _ = &keys[u], &vals[u] // hoist the row bounds checks out of the loop; reads nothing
	for spin := 0; ; spin++ {
		w := seqLoad32(&a.meta[u])
		if w&flatSeqOdd == 0 {
			size := int(w&flatMetaMask) >> flatSizeShift
			pos := &t.valPos[w&flatCodeMask]
			var v uint64
			found := false
			for i := range min(size, n) {
				if seqLoad64(&keys[u][i]) == k {
					v = seqLoad64(&vals[u][pos[i]])
					found = true
					break
				}
			}
			// An unchanged word proves no mutation overlapped the reads
			// above, so the (key, value, state) triple is consistent.
			if seqLoad32(&a.meta[u]) == w {
				return v, found
			}
		}
		if spin&seqSpinMask == seqSpinMask {
			runtime.Gosched()
		}
	}
}

// Update inserts or refreshes k in its unit: Algorithm 1 operating
// directly on the slabs. It is step-for-step the slab form of the oracle
// unit's Update, with the register rewrites seqlock-bracketed so
// concurrent readers never observe a half-applied transition.
func (a *flatArray[R]) Update(k, v uint64) Result[uint64] {
	return a.updateInUnit(a.hash.Index(k, len(a.meta)), k, v)
}

func (a *flatArray[R]) updateInUnit(u int, k, v uint64) Result[uint64] {
	var res Result[uint64]
	var row R // len(row) is the unit width, a constant in each stencil
	n, t := len(row), &flatTables[len(row)-2]
	keys, vals := a.keys, a.vals
	w := a.meta[u]
	m := uint8(w)
	size := int(m >> flatSizeShift)

	// Find the rotation endpoint: the hit position, the first free slot, or
	// the LRU slot on a full miss. The writer owns all mutation, so its own
	// reads need no snapshot protocol.
	_, _ = &keys[u], &vals[u] // hoist the row bounds checks; reads nothing
	op := size
	for i := range min(size, n) {
		if keys[u][i] == k {
			res.Hit = true
			op = i
			break
		}
	}
	if !res.Hit && size >= n {
		op = n - 1
		res.Evicted = true
		res.EvictedKey = keys[u][n-1]
	}

	// Stateful-ALU arithmetic transition, with the occupancy bump folded
	// in (op < n ≤ 4; the masks drop the bounds checks). The new most
	// recently used key takes over the value slot of position op — the hit
	// key's, the free one, or the evicted key's — so the slot is read off
	// the current state, off the transition's critical path.
	nm := t.next[op&3][m]
	slot := int(t.valPos[m&flatCodeMask][op&3])
	if res.Evicted {
		res.EvictedValue = vals[u][slot]
	}
	nv := v
	if res.Hit && a.merge != nil {
		nv = a.merge(vals[u][slot], v)
	}

	// Publish: mark the unit in-flight, rotate keys[0..op] forward with the
	// incoming key at position 0, store the value, land the new word.
	seqBegin(&a.meta[u])
	for i := op; i > 0; i-- {
		seqStore64(&keys[u][i], keys[u][i-1])
	}
	seqStore64(&keys[u][0], k)
	seqStore64(&vals[u][slot], nv)
	seqPublish(&a.meta[u], (w+flatSeqStep)&^uint32(flatMetaMask)|uint32(nm))
	return res
}

// InsertTail stores k as the least recently used entry of its unit without
// a state transition (series-connection demotion, §3.2) — the slab form of
// the oracle unit's InsertTail, seqlock-bracketed like Update.
func (a *flatArray[R]) InsertTail(k, v uint64) Result[uint64] {
	u := a.hash.Index(k, len(a.meta))
	var res Result[uint64]
	var row R // len(row) is the unit width, a constant in each stencil
	n := len(row)
	keys, vals := a.keys, a.vals
	w := a.meta[u]
	m := uint8(w)
	pos := &flatTables[n-2].valPos[m&flatCodeMask]
	size := int(m >> flatSizeShift)

	_, _ = &keys[u], &vals[u] // hoist the row bounds checks; reads nothing
	for i := range min(size, n) {
		if keys[u][i] == k {
			res.Hit = true
			seqBegin(&a.meta[u])
			seqStore64(&vals[u][pos[i]], v)
			seqPublish(&a.meta[u], w+flatSeqStep)
			return res
		}
	}
	if size < n {
		seqBegin(&a.meta[u])
		seqStore64(&keys[u][size], k)
		seqStore64(&vals[u][pos[size]], v)
		seqPublish(&a.meta[u], w+flatSeqStep+1<<flatSizeShift)
		return res
	}
	slot := pos[n-1]
	res.Evicted = true
	res.EvictedKey = keys[u][n-1]
	res.EvictedValue = vals[u][slot]
	seqBegin(&a.meta[u])
	seqStore64(&keys[u][n-1], k)
	seqStore64(&vals[u][slot], v)
	seqPublish(&a.meta[u], w+flatSeqStep)
	return res
}

// units ensures the writer's batch scratch covers n ops and returns it. The
// scratch is grown amortized, so steady-state batch walks allocate nothing.
func (a *flatArray[R]) units(n int) []int32 {
	if cap(a.batchUnits) < n {
		a.batchUnits = make([]int32, n)
	}
	return a.batchUnits[:n]
}

// QueryBatch looks up every keys[i], writing the value into vals[i] and the
// residency into oks[i]. Keys are hashed and walked in stack-scratch chunks
// with the next units' key lines touched ahead of the cursor — the
// cache-friendly counterpart of len(keys) Lookup calls. vals and oks must
// be at least len(keys) long. Zero heap allocations; safe concurrent with
// the writer and with other readers (no shared scratch).
func (a *flatArray[R]) QueryBatch(keys []uint64, vals []uint64, oks []bool) {
	var units [flatQueryChunk]int32
	var touched uint64
	for start := 0; start < len(keys); start += flatQueryChunk {
		part := keys[start:min(start+flatQueryChunk, len(keys))]
		for i, k := range part {
			units[i] = int32(a.hash.Index(k, len(a.meta)))
		}
		for i, k := range part {
			if j := i + batchLookahead; j < len(part) {
				touched += seqLoad64(&a.keys[units[j]][0])
			}
			vals[start+i], oks[start+i] = a.lookupInUnit(int(units[i]), k)
		}
	}
	sinkUint64(touched)
}

// UpdateBatch applies Update(keys[i], vals[i]) for every i in order and
// reports the hit and eviction totals. Like QueryBatch it hashes all keys
// up front and streams through the slabs with lookahead line touches; the
// serving engine's shard writers apply whole op batches through this walk.
// vals must be at least len(keys) long. Zero heap allocations at steady
// state.
func (a *flatArray[R]) UpdateBatch(keys, vals []uint64) (hits, evictions int) {
	units := a.units(len(keys))
	for i, k := range keys {
		units[i] = int32(a.hash.Index(k, len(a.meta)))
	}
	var touched uint64
	for i, k := range keys {
		if j := i + batchLookahead; j < len(units) {
			touched += seqLoad64(&a.keys[units[j]][0])
		}
		res := a.updateInUnit(int(units[i]), k, vals[i])
		if res.Hit {
			hits++
		}
		if res.Evicted {
			evictions++
		}
	}
	sinkUint64(touched)
	return hits, evictions
}

// Range calls fn for every cached (key, value) pair until fn returns false.
// Iteration order is unit order, then LRU order within a unit — the same
// order as Array.Range. Safe concurrent with the writer: each unit is
// snapshotted through its seqlock before fn sees it, so fn never observes a
// torn unit (though the walk as a whole is not a cross-unit snapshot).
func (a *flatArray[R]) Range(fn func(k, v uint64) bool) {
	var ks, vs R
	t := &flatTables[len(ks)-2]
	keys, vals := a.keys, a.vals
	for u := range a.meta {
		size := 0
		for spin := 0; ; spin++ {
			w := seqLoad32(&a.meta[u])
			if w&flatSeqOdd == 0 {
				size = int(w&flatMetaMask) >> flatSizeShift
				pos := &t.valPos[w&flatCodeMask]
				for i := range min(size, len(ks)) {
					ks[i] = seqLoad64(&keys[u][i])
					vs[i] = seqLoad64(&vals[u][pos[i]])
				}
				if seqLoad32(&a.meta[u]) == w {
					break
				}
			}
			if spin&seqSpinMask == seqSpinMask {
				runtime.Gosched()
			}
		}
		for i := range min(size, len(ks)) {
			if !fn(ks[i], vs[i]) {
				return
			}
		}
	}
}

// Reset empties every unit and restores the initial cache state. A writer
// operation: each unit is cleared under its seqlock bracket (versions keep
// advancing, so concurrent readers see either the old unit or the empty
// one, never a mix).
func (a *flatArray[R]) Reset() {
	var row R
	empty := uint32(flatTables[len(row)-2].empty)
	keys, vals := a.keys, a.vals
	for u := range a.meta {
		w := a.meta[u]
		seqBegin(&a.meta[u])
		for i := range len(row) {
			seqStore64(&keys[u][i], 0)
			seqStore64(&vals[u][i], 0)
		}
		seqPublish(&a.meta[u], (w+flatSeqStep)&^uint32(flatMetaMask)|empty)
	}
}

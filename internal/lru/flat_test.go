package lru

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// flatWidths are the unit capacities with a flat core — the three
// data-plane unit designs of §2.3.
var flatWidths = []int{2, 3, 4}

// flatOps is the flat-core surface plus the per-unit introspection the
// differential helpers read.
type flatOps interface {
	FlatCore
	UnitLen(u int) int
	UnitKeyAt(u, i int) uint64
	UnitState(u int) uint8
}

var (
	_ flatOps = (*flatArray[[2]uint64])(nil)
	_ flatOps = (*flatArray[[3]uint64])(nil)
	_ flatOps = (*flatArray[[4]uint64])(nil)
)

// newFlatOps builds the flat core of a unit capacity with its introspection.
func newFlatOps(unitCap, units int, seed uint64, merge MergeFunc[uint64]) flatOps {
	return NewFlatCore(unitCap, units, seed, merge).(flatOps)
}

// newGenericArray builds the generic oracle array for a unit capacity.
func newGenericArray(unitCap, units int, seed uint64, merge MergeFunc[uint64]) *Array[uint64] {
	switch unitCap {
	case 2:
		return NewArray(units, seed, func() UnitCache[uint64] { return NewUnit2[uint64](merge) })
	case 4:
		return NewArray(units, seed, func() UnitCache[uint64] { return NewUnit4[uint64](merge) })
	default:
		return NewArray3[uint64](units, seed, merge)
	}
}

// oracleState is the flat core's packed permutation code of a generic
// unit: the State2 bit, the State3 code, or Unit4's (s3, v4) pair as
// s3 | v4<<3.
func oracleState(t *testing.T, u UnitCache[uint64]) uint8 {
	switch gu := u.(type) {
	case *Unit2[uint64]:
		return gu.State()
	case *Unit3[uint64]:
		return gu.State()
	case *Unit4[uint64]:
		s3, v4 := gu.StatePair()
		return s3 | v4<<3
	}
	t.Fatalf("no packed state for %T", u)
	return 0
}

// checkFlatOpsEquivalence asserts a flat core and the generic oracle array
// agree on every observable: total occupancy, per-unit occupancy, per-unit
// packed state, per-unit LRU key order, and the value mapping.
func checkFlatOpsEquivalence(t *testing.T, flat flatOps, gen *Array[uint64]) {
	t.Helper()
	if flat.Len() != gen.Len() {
		t.Fatalf("len diverged: flat %d generic %d", flat.Len(), gen.Len())
	}
	for u := 0; u < flat.Units(); u++ {
		gu := gen.units[u]
		if flat.UnitLen(u) != gu.Len() {
			t.Fatalf("unit %d occupancy diverged: flat %d generic %d", u, flat.UnitLen(u), gu.Len())
		}
		if fs, gs := flat.UnitState(u), oracleState(t, gu); fs != gs {
			t.Fatalf("unit %d state diverged: flat %d generic %d", u, fs, gs)
		}
		for i := 0; i < gu.Len(); i++ {
			if fk, gk := flat.UnitKeyAt(u, i), gu.KeyAt(i); fk != gk {
				t.Fatalf("unit %d key[%d] diverged: flat %d generic %d", u, i, fk, gk)
			}
			k := gu.KeyAt(i)
			fv, fok := flat.Lookup(k)
			gv, gok := gen.Lookup(k)
			if fok != gok || fv != gv {
				t.Fatalf("lookup(%d) diverged: flat (%d,%v) generic (%d,%v)", k, fv, fok, gv, gok)
			}
		}
	}
}

// applyFlatOp drives one decoded op through a flat core and the generic
// array and fails on any divergence in the returned Result.
func applyFlatOp(t *testing.T, flat flatOps, gen *Array[uint64], kind uint8, k, v uint64) {
	t.Helper()
	var fr, gr Result[uint64]
	switch kind % 3 {
	case 0, 1: // Update is twice as likely — it is the hot path.
		fr = flat.Update(k, v)
		gr = gen.Update(k, v)
	case 2:
		fr = flat.InsertTail(k, v)
		gr = gen.InsertTail(k, v)
	}
	if fr != gr {
		t.Fatalf("op %d on key %d diverged: flat %+v generic %+v", kind%3, k, fr, gr)
	}
}

// testFlatDifferential replays long random op streams (Update, InsertTail,
// Lookup) through the flat core of one width and the generic oracle array
// with the same seed, with and without a merge function, and requires
// identical hit/evict results and identical unit states throughout — the
// property that lets every figure in results/ run on the flat core
// unchanged.
func testFlatDifferential(t *testing.T, unitCap int) {
	add := func(old, in uint64) uint64 { return old + in }
	for _, tc := range []struct {
		name  string
		merge MergeFunc[uint64]
	}{
		{"replace", nil},
		{"merge-add", add},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				const units = 64
				flat := newFlatOps(unitCap, units, uint64(seed), tc.merge)
				gen := newGenericArray(unitCap, units, uint64(seed), tc.merge)
				r := rand.New(rand.NewSource(seed))
				// Few distinct keys relative to capacity so hits, merges
				// and full-unit evictions all occur often.
				keySpace := uint64(units * (unitCap + 2))
				for step := 0; step < 50000; step++ {
					k := uint64(r.Int63n(int64(keySpace))) + 1
					applyFlatOp(t, flat, gen, uint8(r.Intn(3)), k, uint64(step+1))
					if step%500 == 0 {
						checkFlatOpsEquivalence(t, flat, gen)
					}
				}
				checkFlatOpsEquivalence(t, flat, gen)
			}
		})
	}
}

// TestFlatVsGenericDifferential pins the 3-wide flat core to Array+Unit3,
// including the Table 1 state code.
func TestFlatVsGenericDifferential(t *testing.T) { testFlatDifferential(t, 3) }

// TestFlat2VsGenericDifferential pins the 2-wide flat core to Array+Unit2,
// including the one-bit state.
func TestFlat2VsGenericDifferential(t *testing.T) { testFlatDifferential(t, 2) }

// TestFlat4VsGenericDifferential pins the 4-wide flat core to Array+Unit4,
// including the (s3, v4) pair encoding.
func TestFlat4VsGenericDifferential(t *testing.T) { testFlatDifferential(t, 4) }

// FuzzFlatVsGeneric, FuzzFlat2VsGeneric and FuzzFlat4VsGeneric decode the
// fuzz input as a stream of (op, key, value) records and differentially
// execute it against the flat core of each width and its oracle. The
// fuzzer explores op interleavings the random streams may miss.
func FuzzFlatVsGeneric(f *testing.F)  { fuzzFlatWidth(f, 3) }
func FuzzFlat2VsGeneric(f *testing.F) { fuzzFlatWidth(f, 2) }
func FuzzFlat4VsGeneric(f *testing.F) { fuzzFlatWidth(f, 4) }

func fuzzFlatWidth(f *testing.F, unitCap int) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 0, 0, 0, 2, 0, 0, 1, 2, 0, 0, 2, 2, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFlatVsGeneric(t, data, newFlatOps(unitCap, 8, 7, nil), newGenericArray(unitCap, 8, 7, nil))
	})
}

func fuzzFlatVsGeneric(t *testing.T, data []byte, flat flatOps, gen *Array[uint64]) {
	for len(data) >= 3 {
		kind := data[0]
		k := uint64(data[1]%32) + 1 // small key space forces collisions
		v := uint64(data[2])
		data = data[3:]
		if len(data) >= 8 { // occasionally take a full-width key
			if kind&0x80 != 0 {
				k = binary.LittleEndian.Uint64(data)%64 + 1
				data = data[8:]
			}
		}
		applyFlatOp(t, flat, gen, kind, k, v)
	}
	checkFlatOpsEquivalence(t, flat, gen)
}

// TestFlatBatchMatchesScalar and TestFlat24BatchMatchesScalar pin
// QueryBatch/UpdateBatch to the scalar paths at widths 3 and 2/4: a batch
// walk must be exactly equivalent to the loop of single-key calls it
// replaces.
func TestFlatBatchMatchesScalar(t *testing.T) { testFlatBatchMatchesScalar(t, 3) }

func TestFlat24BatchMatchesScalar(t *testing.T) {
	for _, unitCap := range []int{2, 4} {
		t.Run(fmt.Sprintf("unitcap=%d", unitCap), func(t *testing.T) {
			testFlatBatchMatchesScalar(t, unitCap)
		})
	}
}

func testFlatBatchMatchesScalar(t *testing.T, unitCap int) {
	const units = 128
	batched := newFlatOps(unitCap, units, 3, nil)
	scalar := newFlatOps(unitCap, units, 3, nil)
	r := rand.New(rand.NewSource(9))

	for round := 0; round < 50; round++ {
		n := r.Intn(200) + 1
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(r.Int63n(units*4)) + 1
			vals[i] = uint64(r.Int63())
		}

		wantHits, wantEv := 0, 0
		for i := range keys {
			res := scalar.Update(keys[i], vals[i])
			if res.Hit {
				wantHits++
			}
			if res.Evicted {
				wantEv++
			}
		}
		hits, ev := batched.UpdateBatch(keys, vals)
		if hits != wantHits || ev != wantEv {
			t.Fatalf("round %d: UpdateBatch (%d hits, %d ev) != scalar (%d hits, %d ev)",
				round, hits, ev, wantHits, wantEv)
		}

		gotV := make([]uint64, n)
		gotOK := make([]bool, n)
		batched.QueryBatch(keys, gotV, gotOK)
		for i, k := range keys {
			wv, wok := scalar.Lookup(k)
			if gotV[i] != wv || gotOK[i] != wok {
				t.Fatalf("round %d: QueryBatch[%d] key %d = (%d,%v), want (%d,%v)",
					round, i, k, gotV[i], gotOK[i], wv, wok)
			}
		}
	}

	// Same end state.
	for u := 0; u < units; u++ {
		if batched.UnitState(u) != scalar.UnitState(u) || batched.UnitLen(u) != scalar.UnitLen(u) {
			t.Fatalf("unit %d diverged after batched rounds", u)
		}
	}
}

// TestFlatZeroAlloc and TestFlat24ZeroAlloc pin the zero-allocation
// contract of the hot paths at widths 3 and 2/4: Update, Lookup,
// InsertTail and the steady-state batch walks.
func TestFlatZeroAlloc(t *testing.T) { testFlatZeroAlloc(t, 3) }

func TestFlat24ZeroAlloc(t *testing.T) {
	for _, unitCap := range []int{2, 4} {
		t.Run(fmt.Sprintf("unitcap=%d", unitCap), func(t *testing.T) {
			testFlatZeroAlloc(t, unitCap)
		})
	}
}

func testFlatZeroAlloc(t *testing.T, unitCap int) {
	a := NewFlatCore(unitCap, 1<<10, 1, nil)
	keys := make([]uint64, 256)
	vals := make([]uint64, 256)
	oks := make([]bool, 256)
	r := rand.New(rand.NewSource(2))
	for i := range keys {
		keys[i] = uint64(r.Int63n(1 << 12))
	}

	var k uint64
	if n := testing.AllocsPerRun(1000, func() {
		k++
		a.Update(k&0xfff, k)
	}); n != 0 {
		t.Errorf("Update allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		k++
		a.Lookup(k & 0xfff)
	}); n != 0 {
		t.Errorf("Lookup allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		k++
		a.InsertTail(k&0xfff, k)
	}); n != 0 {
		t.Errorf("InsertTail allocates %v/op, want 0", n)
	}

	a.UpdateBatch(keys, vals) // grow the batch scratch once
	if n := testing.AllocsPerRun(100, func() {
		a.UpdateBatch(keys, vals)
	}); n != 0 {
		t.Errorf("UpdateBatch allocates %v/batch, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		a.QueryBatch(keys, vals, oks)
	}); n != 0 {
		t.Errorf("QueryBatch allocates %v/batch, want 0", n)
	}
}

// TestFlatInvariants runs the structural invariant checks of
// invariants_test.go over the flat array's units at every width: bounded
// occupancy, a state that decodes to a permutation, distinct keys, keys
// in the unit they hash to, and Len/Range agreeing with the units.
func TestFlatInvariants(t *testing.T) {
	for _, unitCap := range flatWidths {
		t.Run(fmt.Sprintf("unitcap=%d", unitCap), func(t *testing.T) {
			const units = 16
			a := newFlatOps(unitCap, units, 5, nil)
			r := rand.New(rand.NewSource(13))
			for step := 0; step < 20000; step++ {
				k := uint64(r.Int63n(units*6)) + 1
				if r.Intn(4) == 0 {
					a.InsertTail(k, uint64(step))
				} else {
					a.Update(k, uint64(step))
				}
			}
			total := 0
			for u := 0; u < units; u++ {
				size := a.UnitLen(u)
				total += size
				if size > unitCap {
					t.Fatalf("unit %d occupancy %d > %d", u, size, unitCap)
				}
				pos := flatTables[unitCap-2].valPos[a.UnitState(u)]
				var slots [4]bool
				for i := 0; i < unitCap; i++ {
					if int(pos[i]) >= unitCap || slots[pos[i]] {
						t.Fatalf("unit %d state %d decodes to %v, not a permutation", u, a.UnitState(u), pos[:unitCap])
					}
					slots[pos[i]] = true
				}
				seen := map[uint64]bool{}
				for i := 0; i < size; i++ {
					k := a.UnitKeyAt(u, i)
					if seen[k] {
						t.Fatalf("unit %d holds duplicate key %d", u, k)
					}
					seen[k] = true
					if a.UnitIndex(k) != u {
						t.Fatalf("key %d stored in unit %d but hashes to %d", k, u, a.UnitIndex(k))
					}
					if _, ok := a.Lookup(k); !ok {
						t.Fatalf("resident key %d not found by Lookup", k)
					}
				}
			}
			if total != a.Len() {
				t.Fatalf("Len() %d != summed occupancy %d", a.Len(), total)
			}
			count := 0
			a.Range(func(k, v uint64) bool { count++; return true })
			if count != total {
				t.Fatalf("Range visited %d pairs, want %d", count, total)
			}
		})
	}
}

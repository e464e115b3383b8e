package policy

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// flatWidths are the unit capacities FlatP4LRU serves.
var flatWidths = []int{2, 3, 4}

// TestFlatP4LRU3MatchesGeneric replays a random access stream through the
// flat-core policy and the generic-array oracle with identical parameters,
// at every width, and requires identical Query/Update observables — the
// policy-level form of the lru differential tests, covering the fromLRU
// lifting too.
func TestFlatP4LRU3MatchesGeneric(t *testing.T) {
	add := func(old, in uint64) uint64 { return old + in }
	for _, tc := range []struct {
		name  string
		merge MergeFunc
	}{
		{"replace", nil},
		{"merge-add", add},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range flatWidths {
				t.Run(fmt.Sprintf("p4lru%d", n), func(t *testing.T) {
					const units = 128
					flat := NewFlatP4LRU(n, units, 3, tc.merge)
					gen := NewP4LRU(n, units, 3, tc.merge)
					if flat.Name() != gen.Name() {
						t.Fatalf("name diverged: flat %q generic %q", flat.Name(), gen.Name())
					}
					if flat.Capacity() != gen.Capacity() {
						t.Fatalf("capacity diverged: flat %d generic %d", flat.Capacity(), gen.Capacity())
					}
					r := rand.New(rand.NewSource(5))
					for step := 0; step < 40000; step++ {
						k := uint64(r.Int63n(units*4)) + 1
						fv, ftok, fok := flat.Query(k)
						gv, gtok, gok := gen.Query(k)
						if fv != gv || ftok != gtok || fok != gok {
							t.Fatalf("Query(%d) diverged: flat (%d,%v,%v) generic (%d,%v,%v)",
								k, fv, ftok, fok, gv, gtok, gok)
						}
						v := uint64(step + 1)
						fr := flat.Update(k, v, ftok, time.Duration(step))
						gr := gen.Update(k, v, gtok, time.Duration(step))
						if fr != gr {
							t.Fatalf("Update(%d) diverged: flat %+v generic %+v", k, fr, gr)
						}
						if step%1000 == 0 && flat.Len() != gen.Len() {
							t.Fatalf("Len diverged at step %d: flat %d generic %d", step, flat.Len(), gen.Len())
						}
					}
					// Same final contents.
					want := map[uint64]uint64{}
					gen.Range(func(k, v uint64) bool { want[k] = v; return true })
					got := map[uint64]uint64{}
					flat.Range(func(k, v uint64) bool { got[k] = v; return true })
					if len(got) != len(want) {
						t.Fatalf("final contents diverged: flat %d entries, generic %d", len(got), len(want))
					}
					for k, v := range want {
						if got[k] != v {
							t.Fatalf("final value diverged for key %d: flat %d generic %d", k, got[k], v)
						}
					}
				})
			}
		})
	}
}

// TestFlatP4LRU3UpdateBatchMatchesLoop pins the BatchUpdater contract at
// every width: UpdateBatch(ops) must leave the cache in exactly the state
// of the equivalent Update loop.
func TestFlatP4LRU3UpdateBatchMatchesLoop(t *testing.T) {
	for _, n := range flatWidths {
		t.Run(fmt.Sprintf("p4lru%d", n), func(t *testing.T) {
			const units = 64
			batched := NewFlatP4LRU(n, units, 9, nil)
			looped := NewFlatP4LRU(n, units, 9, nil)
			r := rand.New(rand.NewSource(17))
			for round := 0; round < 40; round++ {
				ops := make([]Op, r.Intn(300)+1)
				for i := range ops {
					ops[i] = Op{Key: uint64(r.Int63n(units*4)) + 1, Value: uint64(r.Int63())}
				}
				batched.UpdateBatch(ops)
				for _, op := range ops {
					looped.Update(op.Key, op.Value, op.Token, op.Now)
				}
			}
			if batched.Len() != looped.Len() {
				t.Fatalf("Len diverged: batched %d looped %d", batched.Len(), looped.Len())
			}
			looped.Range(func(k, v uint64) bool {
				got, _, ok := batched.Query(k)
				if !ok || got != v {
					t.Fatalf("key %d: batched (%d,%v), want (%d,true)", k, got, ok, v)
				}
				return true
			})
		})
	}
}

// TestFlatP4LRU3ZeroAlloc pins 0 allocs/op on the policy hot paths at every
// width.
func TestFlatP4LRU3ZeroAlloc(t *testing.T) {
	for _, n := range flatWidths {
		t.Run(fmt.Sprintf("p4lru%d", n), func(t *testing.T) {
			p := NewFlatP4LRU(n, 1<<10, 1, nil)
			ops := make([]Op, 256)
			for i := range ops {
				ops[i] = Op{Key: uint64(i * 2654435761), Value: uint64(i)}
			}
			var k uint64
			if n := testing.AllocsPerRun(1000, func() {
				k++
				p.Update(k&0xfff, k, NoToken, 0)
			}); n != 0 {
				t.Errorf("Update allocates %v/op, want 0", n)
			}
			if n := testing.AllocsPerRun(1000, func() {
				k++
				p.Query(k & 0xfff)
			}); n != 0 {
				t.Errorf("Query allocates %v/op, want 0", n)
			}
			p.UpdateBatch(ops) // grow the scratch once
			if n := testing.AllocsPerRun(100, func() {
				p.UpdateBatch(ops)
			}); n != 0 {
				t.Errorf("UpdateBatch allocates %v/batch, want 0", n)
			}
		})
	}
}

// TestSpecBuildsFlatCore pins the construction route: every data-plane
// unit capacity (p4lru2/3/4) and the series build flat seqlock cores that
// report ConcurrentQuery, while the generic array remains the oracle behind
// NewP4LRU/NewSeriesUnitCap.
func TestSpecBuildsFlatCore(t *testing.T) {
	c, err := NewFromSpec(Spec{Kind: KindP4LRU3, MemBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	flat, ok := c.(*FlatP4LRU)
	if !ok {
		t.Fatalf("p4lru3 spec built %T, want *FlatP4LRU", c)
	}
	if _, ok := c.(BatchUpdater); !ok {
		t.Fatal("flat core does not implement BatchUpdater")
	}
	if c.Name() != "p4lru3" {
		t.Fatalf("flat core reports name %q, want p4lru3", c.Name())
	}
	// Same sizing as the generic cost model.
	gen := NewP4LRU(3, atLeast1(64*1024/(3*bytesPerEntryKV+bytesPerUnitMeta)), 0, nil)
	if flat.Capacity() != gen.Capacity() {
		t.Fatalf("flat capacity %d != generic cost-model capacity %d", flat.Capacity(), gen.Capacity())
	}

	for _, tc := range []struct {
		kind Kind
		want string
	}{
		{KindP4LRU2, "p4lru2"},
		{KindP4LRU4, "p4lru4"},
	} {
		c, err := NewFromSpec(Spec{Kind: tc.kind, MemBytes: 64 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.(*FlatP4LRU); !ok {
			t.Fatalf("%s spec built %T, want *FlatP4LRU", tc.kind, c)
		}
		if c.Name() != tc.want {
			t.Fatalf("%s spec reports name %q, want %q", tc.kind, c.Name(), tc.want)
		}
		if cr, ok := c.(ConcurrentReader); !ok || !cr.ConcurrentQuery() {
			t.Fatalf("%s flat core does not report ConcurrentQuery", tc.kind)
		}
	}
	c, err = NewFromSpec(Spec{Kind: KindSeries, MemBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	fs, ok := c.(*FlatSeries)
	if !ok {
		t.Fatalf("series spec built %T, want *FlatSeries", c)
	}
	if fs.Name() != "series4" {
		t.Fatalf("flat series reports name %q, want series4", fs.Name())
	}
	if cr, ok := c.(ConcurrentReader); !ok || !cr.ConcurrentQuery() {
		t.Fatal("flat series does not report ConcurrentQuery")
	}
	// Odd unit capacities stay on the generic series.
	c, err = NewFromSpec(Spec{Kind: KindSeries, UnitCap: 5, MemBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*Series); !ok {
		t.Fatalf("unitcap=5 series spec built %T, want the generic *Series", c)
	}
}

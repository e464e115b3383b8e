package backing

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/kvindex"
	"github.com/p4lru/p4lru/internal/policy"
)

func TestBTreeGetReturnsIndex(t *testing.T) {
	b := NewBTree(100)
	ctx := context.Background()

	idx, err := b.Get(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(2 * kvindex.ValueSize); idx != want {
		t.Fatalf("Get(3) = %d, want arena offset %d", idx, want)
	}
	if _, err := b.Get(ctx, 1000); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
	taken, skipped, nodes := b.Stats()
	if taken != 2 || skipped != 0 || nodes == 0 {
		t.Errorf("Stats = (%d, %d, %d), want 2 walks taken and nodes > 0", taken, skipped, nodes)
	}
}

func TestBTreeHintSkipsWalk(t *testing.T) {
	b := NewBTree(100)
	ctx := context.Background()

	idx, err := b.Get(ctx, 7) // full walk resolves the hint
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.GetHinted(ctx, 7, idx, true)
	if err != nil || got != idx {
		t.Fatalf("hinted Get = %d, %v, want %d", got, err, idx)
	}
	taken, skipped, nodesAfter := b.Stats()
	if taken != 1 || skipped != 1 {
		t.Errorf("Stats = (%d taken, %d skipped), want (1, 1)", taken, skipped)
	}
	// A corrupt hint falls back to the walk instead of failing.
	got, err = b.GetHinted(ctx, 7, 1<<40, true)
	if err != nil || got != idx {
		t.Fatalf("corrupt-hint Get = %d, %v, want fallback to %d", got, err, idx)
	}
	taken2, _, nodes2 := b.Stats()
	if taken2 != 2 || nodes2 <= nodesAfter {
		t.Errorf("corrupt hint did not charge a walk: taken=%d nodes=%d", taken2, nodes2)
	}
}

func TestBTreePutWritesArena(t *testing.T) {
	b := NewBTree(100)
	ctx := context.Background()
	if err := b.Put(ctx, 5, 12345); err != nil {
		t.Fatal(err)
	}
	idx, err := b.Get(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, value, _, ok := b.Server().Resolve(5, idx, true)
	if !ok {
		t.Fatal("Resolve failed after Put")
	}
	var got uint64
	for i := 7; i >= 0; i-- {
		got = got<<8 | uint64(value[i])
	}
	if got != 12345 {
		t.Errorf("arena word = %d, want 12345", got)
	}
	if err := b.Put(ctx, 1000, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("Put(absent) = %v, want ErrNotFound", err)
	}
}

// TestBTreeDifferentialVsKvindex replays the kvindex closed-loop simulation
// (Threads=1, so query order is strict) through the backing adapter and
// requires identical miss-cost accounting: same hit count and the same total
// B+ tree nodes walked. This pins the adapter's GetHinted to the wire
// server's resolution semantics.
func TestBTreeDifferentialVsKvindex(t *testing.T) {
	const (
		items   = 10_000
		queries = 20_000
		skew    = 1.1
		seed    = 7
	)
	for _, specStr := range []string{
		"p4lru3:mem=64KiB,seed=5",
		"series:levels=4,mem=64KiB,seed=5",
	} {
		t.Run(specStr, func(t *testing.T) {
			spec, err := policy.ParseSpec(specStr)
			if err != nil {
				t.Fatal(err)
			}
			simCache := policy.MustFromSpec(spec)
			repCache := policy.MustFromSpec(spec)

			simRes := kvindex.Run(kvindex.Config{
				Items: items, Threads: 1, Queries: queries,
				ZipfSkew: skew, Seed: seed, Cache: simCache,
			})

			// Replica: same seeded workload, same cache construction, the
			// adapter standing in for the server.
			bt := NewBTree(items)
			rng := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(rng, skew, 1, uint64(items-1))
			ctx := context.Background()
			hits := 0
			for i := 0; i < queries; i++ {
				key := zipf.Uint64() + 1
				cachedIdx, tok, hit := repCache.Query(key)
				if hit {
					hits++
				}
				idx, err := bt.GetHinted(ctx, key, cachedIdx, hit)
				if err != nil {
					t.Fatalf("query %d key %d: %v", i, key, err)
				}
				// The P4LRU-family policies ignore the timestamp, so any
				// monotone clock reproduces the simulator's update sequence.
				repCache.Update(key, idx, tok, time.Duration(i))
			}

			if hits != simRes.Hits {
				t.Errorf("replica hits = %d, simulator hits = %d", hits, simRes.Hits)
			}
			taken, skipped, nodes := bt.Stats()
			if int64(nodes) != simRes.NodesWalked {
				t.Errorf("replica walked %d nodes, simulator walked %d", nodes, simRes.NodesWalked)
			}
			if int(skipped) != hits {
				t.Errorf("walks skipped = %d, want one per hit (%d)", skipped, hits)
			}
			if int(taken) != queries-hits {
				t.Errorf("walks taken = %d, want %d", taken, queries-hits)
			}
			if simRes.Errors != 0 {
				t.Errorf("simulator reported %d value errors", simRes.Errors)
			}
		})
	}
}

// TestBTreeConcurrentGetPut runs lock-free Gets against serialized Puts on
// overlapping keys. Run under -race it pins the locking contract: Gets read
// only the B+ tree, Puts write only the arena, so the two never race, and
// every Put still lands.
func TestBTreeConcurrentGetPut(t *testing.T) {
	const items, rounds = 512, 4000
	b := NewBTree(items)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := uint64((i*7+g)%items) + 1
				want := (key - 1) * kvindex.ValueSize
				idx, err := b.GetHinted(ctx, key, want, i%3 == 0) // every third skips the walk
				if err == nil && idx != want {
					err = fmt.Errorf("Get(%d) = %d, want %d", key, idx, want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := uint64((i*5+g)%items) + 1
				if err := b.Put(ctx, key, key<<8|uint64(g)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for key := uint64(1); key <= items; key++ {
		_, value, _, ok := b.Server().Resolve(key, 0, false)
		if !ok {
			t.Fatalf("key %d vanished", key)
		}
		if w := binary.LittleEndian.Uint64(value); w>>8 != key {
			t.Fatalf("key %d arena word %#x: not one of its Puts", key, w)
		}
	}
}

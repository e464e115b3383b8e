package cluster

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/policy"
)

// BenchmarkClusterRouter prices the router's veneer over a single engine:
// path=single queries the engine directly, path=local routes the same hits
// through a one-node router (ring lookup, hot-key touch, breaker liveness
// check, LocalPeer hop). The bench gate holds the local-owner overhead to
// ≤1.3× the bare engine. path=fan and path=update price the multi-node
// paths on a 3-node, Replicas-2 ring: hot-key reads fanned across replicas,
// and updates to hot keys (owner plus replica) and cold keys (owner only).
// path=hot-parallel queries a Zipf stream from every core on that ring with
// hot-key tracking live. All five router paths are gated zero-alloc.
func BenchmarkClusterRouter(b *testing.B) {
	const keys = 4096
	newFilled := func(b *testing.B) *engine.Engine {
		b.Helper()
		e, err := engine.NewFromSpec(
			policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 1 << 20, Seed: 9},
			engine.Config{Shards: 4, Block: true},
		)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(e.Close)
		for k := uint64(1); k <= keys; k++ {
			e.Apply(engine.Op{Key: k, Value: k})
		}
		return e
	}
	// Bench over keys that are actually resident so both paths measure the
	// hit path, not miss handling.
	resident := func(e *engine.Engine) []uint64 {
		var out []uint64
		e.Range(func(k, v uint64) bool {
			out = append(out, k)
			return true
		})
		if len(out) == 0 {
			b.Fatal("no resident keys")
		}
		return out
	}

	b.Run("path=single", func(b *testing.B) {
		e := newFilled(b)
		res := resident(e)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Query(res[i%len(res)])
		}
	})

	b.Run("path=local", func(b *testing.B) {
		e := newFilled(b)
		res := resident(e)
		r := New(Config{Seed: testSeed, HeartbeatEvery: -1})
		defer r.Close()
		if err := r.Join("node-0", NewLocalPeer(e, testSeed)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Query(res[i%len(res)])
		}
	})

	// path=selfheal is path=local with the whole self-healing stack armed:
	// gossip membership live on the heartbeat plane, the read-repair queue
	// and arc-digest sweeper running, hinted handoff enabled. The gate holds
	// the local-owner fast path to the same ≤1.3× / zero-alloc bar — the
	// robustness machinery must price in at nothing on the hit path.
	b.Run("path=selfheal", func(b *testing.B) {
		e := newFilled(b)
		res := resident(e)
		lp := NewLocalPeer(e, testSeed)
		lp.AttachMembership(NewMembership("node-0", "", ""))
		r := New(Config{
			Seed:             testSeed,
			Gossip:           true,
			HotK:             64,
			HeartbeatEvery:   25 * time.Millisecond,
			RepairRate:       128,
			RepairSweepEvery: 50 * time.Millisecond,
		})
		defer r.Close()
		if err := r.Join("node-0", lp); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Query(res[i%len(res)])
		}
	})

	// newFanRing joins 3 filled engines under a Replicas-2 router and
	// publishes a hot set of keys that every replica holds.
	newFanRing := func(b *testing.B) (*Router, []uint64) {
		r := New(Config{Seed: testSeed, Replicas: 2, HeartbeatEvery: -1})
		b.Cleanup(r.Close)
		for i := 0; i < 3; i++ {
			if err := r.Join(fmt.Sprintf("node-%d", i), NewLocalPeer(newFilled(b), testSeed)); err != nil {
				b.Fatal(err)
			}
		}
		hot := make([]uint64, 64)
		for i := range hot {
			hot[i] = uint64(i + 1)
			for j := uint32(0); j < 64; j++ {
				r.hot.Touch(hot[i], j) // every 8th draw is sampled
			}
		}
		r.hot.Publish()
		for _, k := range hot {
			if !r.hot.Hot(k) {
				b.Fatalf("key %d missing from the published hot set", k)
			}
			if err := r.Update(k, k); err != nil { // fans to both replicas
				b.Fatal(err)
			}
		}
		return r, hot
	}

	b.Run("path=fan", func(b *testing.B) {
		r, hot := newFanRing(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Query(hot[i%len(hot)])
		}
	})

	// path=hot-parallel drives the hot-key tracker the way a serving cluster
	// does: every core queries one seeded Zipf(1.2) stream on the fan ring,
	// so sampled touches, sketch adds, prunes and publishes race each other
	// between owner and fan reads.
	b.Run("path=hot-parallel", func(b *testing.B) {
		r, _ := newFanRing(b)
		z := rand.NewZipf(rand.New(rand.NewSource(int64(testSeed))), 1.2, 1, keys-1)
		stream := make([]uint64, 1<<16)
		for i := range stream {
			stream[i] = z.Uint64() + 1
		}
		var offset atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(offset.Add(int64(len(stream) / 8))) // each goroutine starts elsewhere
			for pb.Next() {
				r.Query(stream[i%len(stream)])
				i++
			}
		})
	})

	b.Run("path=update", func(b *testing.B) {
		r, hot := newFanRing(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := hot[i%len(hot)]
			if i&1 == 1 {
				k += keys // cold: never queried, so never hot
			}
			r.Update(k, uint64(i))
		}
	})
}

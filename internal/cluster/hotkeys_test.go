package cluster

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/p4lru/p4lru/internal/sketch"
)

// newTestHotKeys builds a tracker whose sketch never decays, so what it
// publishes depends on the touches alone and not on how long they took
// (a slow host or the race detector could otherwise cross a decay epoch).
func newTestHotKeys(k int) *hotKeys {
	h := newHotKeys(k, testSeed)
	h.sk = sketch.NewCU(hotSketchDepth, hotSketchWidth, 0, testSeed)
	return h
}

// TestHotKeysTopKUnderContention checks that dropping contended samples
// keeps the tracker's answer: four goroutines touching one seeded Zipf(1.2)
// stream concurrently must publish a top-k that overlaps the top-k of a
// single goroutine touching the same stream by at least 90%.
func TestHotKeysTopKUnderContention(t *testing.T) {
	const (
		k       = 32
		touches = 1 << 20
		passes  = 4 // over the stream: more samples at the same memory
		workers = 4
	)
	// Each touch carries its own sampling draw, as Router.Query's does, so
	// every goroutine's share of the stream reaches the sketch.
	rng := rand.New(rand.NewSource(7))
	z := rand.NewZipf(rng, 1.2, 1, 1<<16-1)
	stream, draws := make([]uint64, touches), make([]uint32, touches)
	for i := range stream {
		stream[i], draws[i] = z.Uint64()+1, rng.Uint32()
	}

	solo := newTestHotKeys(k)
	for p := 0; p < passes; p++ {
		for i, key := range stream {
			solo.Touch(key, draws[i])
		}
	}
	solo.Publish()

	shared := newTestHotKeys(k)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for p := 0; p < passes; p++ {
				for i := w; i < len(stream); i += workers {
					shared.Touch(stream[i], draws[i])
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	shared.Publish()
	t.Logf("contended run kept %.0f%% of the hottest key's sampled touches",
		100*float64(shared.sk.Estimate(1, 0))/float64(solo.sk.Estimate(1, 0)))

	want, got := solo.Keys(), shared.Keys()
	if len(want) != k || len(got) != k {
		t.Fatalf("published %d (solo) and %d (shared) keys, want %d each", len(want), len(got), k)
	}
	overlap := 0
	for _, key := range got {
		if solo.Hot(key) {
			overlap++
		}
	}
	if overlap*10 < k*9 {
		t.Fatalf("contended top-%d shares %d keys with the single-goroutine top-%d, want ≥90%%", k, overlap, k)
	}
}

// TestHotKeysSoloTouchesAreKept pins that one goroutine's sampled touches
// all reach the sketch: only a touch that finds the lock held is dropped.
func TestHotKeysSoloTouchesAreKept(t *testing.T) {
	h := newTestHotKeys(4)
	const sampled = 3 * hotPublishEvery / 2
	for i := uint32(0); i < sampled*hotSampleStride; i++ {
		h.Touch(42, i)
	}
	if got := h.sk.Estimate(42, 0); got != sampled {
		t.Fatalf("sketch counts %d touches of key 42, want all %d sampled ones", got, sampled)
	}
	h.mu.Lock() // another core mid-sample
	h.Touch(42, 0)
	h.mu.Unlock()
	if got := h.sk.Estimate(42, 0); got != sampled {
		t.Fatalf("a touch that found the sketch locked was counted: %d, want %d", got, sampled)
	}
	if h.since != sampled-hotPublishEvery || !h.Hot(42) {
		t.Fatalf("since = %d, Hot(42) = %v: want one publish, %d touches after it",
			h.since, h.Hot(42), sampled-hotPublishEvery)
	}
}

// TestHotSetTable drives the open-addressed hot set through its edge cases:
// the empty set, key 0 (indistinguishable from an empty slot, so a flag),
// and probe chains that fill the table to its bound and wrap past its end.
func TestHotSetTable(t *testing.T) {
	const k = 16
	// keysHomedAt returns n nonzero keys whose probe chain starts at the
	// given slot of a table sized for k keys.
	keysHomedAt := func(home func(*hotSet) uint64, n int) []uint64 {
		empty := newHotSet(make([]keyCount, k)) // k copies of key 0: all slots empty
		var out []uint64
		for key := uint64(1); len(out) < n; key++ {
			if empty.slot(key) == home(empty) {
				out = append(out, key)
			}
		}
		return out
	}
	last := func(s *hotSet) uint64 { return uint64(len(s.slots) - 1) }
	first := func(*hotSet) uint64 { return 0 }
	wrap := keysHomedAt(last, k+4) // k members plus 4 absent keys on the same chain

	cases := []struct {
		name    string
		members []uint64
		absent  []uint64
	}{
		{"empty", nil, []uint64{0, 1, 2, 1 << 63}},
		{"only-zero", []uint64{0}, []uint64{1, 2}},
		{"zero-and-colliders", append([]uint64{0}, keysHomedAt(first, 3)...), []uint64{keysHomedAt(first, 4)[3]}},
		{"no-zero", []uint64{1, 2, 3}, []uint64{0, 4}},
		{"full-chain-wraps", wrap[:k], wrap[k:]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			top := make([]keyCount, len(tc.members))
			for i, key := range tc.members {
				top[i] = keyCount{key: key, n: uint32(len(top) - i)}
			}
			s := newHotSet(top)
			if len(s.slots) < 2*len(tc.members) || len(s.slots)&(len(s.slots)-1) != 0 {
				t.Fatalf("%d slots for %d keys: want a power of two ≥ 2×keys", len(s.slots), len(tc.members))
			}
			for _, key := range tc.members {
				if !s.has(key) {
					t.Errorf("member %d not found", key)
				}
			}
			for _, key := range tc.absent {
				if s.has(key) {
					t.Errorf("absent key %d found", key)
				}
			}
			h := &hotKeys{}
			h.hot.Store(s)
			got, want := h.Keys(), slices.Clone(tc.members)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("Keys() = %v, want %v", got, want)
			}
		})
	}
}

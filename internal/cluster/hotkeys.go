package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/sketch"
)

// hotKeys tracks the cluster's top-K keys by query frequency — the set the
// router replicates to successor nodes and fans reads across. Estimation
// reuses the CU sketch from the paper's LruMon tier; the published hot set
// is an immutable map behind an atomic pointer so the query path can test
// membership with one load and one lookup, no locks.
//
// Touches are sampled (1 in hotSampleStride, on a random word the caller
// draws from the runtime's per-thread generator rather than a shared
// counter) before they reach the sketch: at cluster query rates the sketch
// mutex would otherwise serialize the routers' hottest path, and top-K
// membership only needs relative frequencies, which survive uniform
// sampling.
type hotKeys struct {
	k int

	hot atomic.Pointer[map[uint64]bool] // published top-K set

	mu    sync.Mutex
	sk    *sketch.CountMin
	cand  map[uint64]uint32 // candidate key → latest sketch estimate
	since uint64            // sampled touches since last publish
	epoch time.Time
}

const (
	hotSampleStride  = 8    // 1 in 8 touches reach the sketch
	hotPublishEvery  = 1024 // sampled touches between top-K publishes
	hotCandidateCap  = 8    // candidate map is bounded at hotCandidateCap*k
	hotSketchDepth   = 4
	hotSketchWidth   = 4096
	hotSketchResetMS = 4000 // estimates decay so yesterday's elephants cool off
)

func newHotKeys(k int, seed uint64) *hotKeys {
	if k <= 0 {
		return nil // replication disabled; all methods are nil-safe
	}
	return &hotKeys{
		k:     k,
		sk:    sketch.NewCU(hotSketchDepth, hotSketchWidth, hotSketchResetMS*time.Millisecond, seed^0x9e3779b97f4a7c15),
		cand:  make(map[uint64]uint32, hotCandidateCap*k),
		epoch: time.Now(),
	}
}

// Hot reports whether key is currently in the published top-K set.
// Lock-free: one atomic load and one map read of an immutable map.
func (h *hotKeys) Hot(key uint64) bool {
	if h == nil {
		return false
	}
	m := h.hot.Load()
	return m != nil && (*m)[key]
}

// Touch records one query against key when rnd, a uniform random word,
// falls in the 1-in-hotSampleStride sample (its low bits decide).
func (h *hotKeys) Touch(key uint64, rnd uint32) {
	if h == nil || rnd%hotSampleStride != 0 {
		return
	}
	h.mu.Lock()
	est := h.sk.Add(key, 1, time.Since(h.epoch))
	h.cand[key] = est
	h.since++
	if len(h.cand) > hotCandidateCap*h.k {
		h.prune()
	}
	if h.since >= hotPublishEvery {
		h.since = 0
		h.publish()
	}
	h.mu.Unlock()
}

// Publish forces an immediate top-K publish (tests and membership changes
// that want a fresh set without waiting out the touch interval).
func (h *hotKeys) Publish() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.publish()
	h.mu.Unlock()
}

// Keys returns the published hot set (unordered copy).
func (h *hotKeys) Keys() []uint64 {
	if h == nil {
		return nil
	}
	m := h.hot.Load()
	if m == nil {
		return nil
	}
	out := make([]uint64, 0, len(*m))
	for k := range *m {
		out = append(out, k)
	}
	return out
}

// publish rebuilds the top-K set from the candidates. Caller holds h.mu.
func (h *hotKeys) publish() {
	type kc struct {
		key uint64
		n   uint32
	}
	all := make([]kc, 0, len(h.cand))
	for k, n := range h.cand {
		all = append(all, kc{k, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].key < all[j].key // deterministic ties
	})
	if len(all) > h.k {
		all = all[:h.k]
	}
	m := make(map[uint64]bool, len(all))
	for _, e := range all {
		m[e.key] = true
	}
	h.hot.Store(&m)
}

// prune drops the coldest half of the candidate map. Caller holds h.mu.
func (h *hotKeys) prune() {
	counts := make([]uint32, 0, len(h.cand))
	for _, n := range h.cand {
		counts = append(counts, n)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	cut := counts[len(counts)/2]
	for k, n := range h.cand {
		if n <= cut && len(h.cand) > hotCandidateCap*h.k/2 {
			delete(h.cand, k)
		}
	}
}

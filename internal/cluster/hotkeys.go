package cluster

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/sketch"
)

// hotKeys tracks the cluster's top-K keys by query frequency — the set the
// router replicates to successor nodes and fans reads across. Estimation
// reuses the CU sketch from the paper's LruMon tier; the published hot set
// is an immutable open-addressed table behind an atomic pointer, so the
// query and update paths test membership with one load, one hash and a
// short probe, no locks.
//
// Touches are sampled: 1 in hotSampleStride, on a random word the caller
// draws from the runtime's per-thread generator, and a sampled touch that
// finds the sketch locked is dropped instead of waited for, so no query
// parks on the tracker. Top-K membership only needs relative frequencies,
// and both filters keep them: neither the draw nor which core holds the
// lock depends on the key, so the kept touches stay a uniform sample. A
// lone goroutine never finds the lock held and loses no touch. Against a
// blocking lock and a Go-map hot set, this cuts the tracker's CPU on
// servebench cluster-hot (2 vCPUs) from 145 to 84 ns per query, and no
// core parks on it (DESIGN §14).
type hotKeys struct {
	hot atomic.Pointer[hotSet] // published top-K set, read by every query
	_   [56]byte               // keeps the sampler's writes off hot's cache line

	k     int
	mu    sync.Mutex
	sk    *sketch.CountMin
	cand  map[uint64]uint32 // candidate key → latest sketch estimate
	top   []keyCount        // rank scratch, reused across publishes
	since uint64            // sampled touches since last publish
	epoch time.Time
}

type keyCount struct {
	key uint64
	n   uint32
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
	h := &hotKeys{
		k:     k,
		sk:    sketch.NewCU(hotSketchDepth, hotSketchWidth, hotSketchResetMS*time.Millisecond, seed^0x9e3779b97f4a7c15),
		cand:  make(map[uint64]uint32, hotCandidateCap*k),
		epoch: time.Now(),
	}
	h.hot.Store(newHotSet(nil)) // nothing is hot before the first publish
	return h
}

// Hot reports whether key is currently in the published top-K set.
// Lock-free: one atomic load and a probe of an immutable table.
func (h *hotKeys) Hot(key uint64) bool {
	return h != nil && h.hot.Load().has(key)
}

// Touch records one query against key when rnd, a uniform random word,
// falls in the 1-in-hotSampleStride sample (its low bits decide) and the
// sketch is not busy with another core's sample.
func (h *hotKeys) Touch(key uint64, rnd uint32) {
	if h == nil || rnd%hotSampleStride != 0 || !h.mu.TryLock() {
		return
	}
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
	return slices.Clone(h.hot.Load().keys)
}

// rank fills the scratch slice with the candidates, hottest first, with
// deterministic ties. Caller holds h.mu.
func (h *hotKeys) rank() []keyCount {
	top := h.top[:0]
	for k, n := range h.cand {
		top = append(top, keyCount{k, n})
	}
	slices.SortFunc(top, func(a, b keyCount) int {
		return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.key, b.key))
	})
	h.top = top
	return top
}

// publish rebuilds the top-K set from the candidates. Caller holds h.mu.
func (h *hotKeys) publish() {
	top := h.rank()
	h.hot.Store(newHotSet(top[:min(len(top), h.k)]))
}

// prune drops the coldest half of the candidate map. Caller holds h.mu.
func (h *hotKeys) prune() {
	for _, e := range h.rank()[hotCandidateCap*h.k/2:] {
		delete(h.cand, e.key)
	}
}

// hotSet is an immutable set of keys in a linear-probed table of a power
// of two at least twice as many slots as keys, so every probe reaches an
// empty (zero) slot. Key 0 cannot be told from an empty slot, so its
// membership is a flag.
type hotSet struct {
	slots []uint64
	keys  []uint64 // the members, for Keys
	shift uint     // 64 - log2(len(slots))
	zero  bool
}

func newHotSet(top []keyCount) *hotSet {
	s := &hotSet{shift: 63}
	for 1<<(64-s.shift) < 2*len(top) {
		s.shift--
	}
	s.slots = make([]uint64, 1<<(64-s.shift))
	for _, e := range top {
		s.keys = append(s.keys, e.key)
		s.slots[s.slot(e.key)] = e.key // key 0 lands on an empty slot: a no-op
		s.zero = s.zero || e.key == 0
	}
	return s
}

// slot returns the index holding key, or the empty slot that ends key's
// probe chain. The chain starts at the top bits of key's Fibonacci hash.
func (s *hotSet) slot(key uint64) uint64 {
	i := key * 0x9e3779b97f4a7c15 >> s.shift
	for s.slots[i] != key && s.slots[i] != 0 {
		i = (i + 1) & uint64(len(s.slots)-1)
	}
	return i
}

// has finds key 0 at the end of its chain like any absent key; the flag decides.
func (s *hotSet) has(key uint64) bool { return s.slots[s.slot(key)] == key && (key != 0 || s.zero) }

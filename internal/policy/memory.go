package policy

import (
	"fmt"
	"time"

	"github.com/p4lru/p4lru/internal/hashing"
)

// indexHash is a thin wrapper so bucket-array policies share one index-hash
// implementation.
type indexHash struct{ h hashing.Hash }

func newIndexHash(seed uint64) indexHash       { return indexHash{h: hashing.New(seed)} }
func (ih indexHash) index(k uint64, n int) int { return ih.h.Index(k, n) }

// Data-plane per-bucket memory cost model, in bytes. Keys and values are
// 32-bit on the switch (fingerprints, IPv4 addresses, counter words); every
// policy is charged the metadata it actually keeps so the equal-memory
// sweeps of Figures 12–15 are fair:
//
//	p4lruN unit : N×(key+val) + 1B state  = 8N+1
//	hash (p4lru1): key+val                = 8
//	timeout     : key+val + 4B timestamp  = 12
//	elastic     : key+val + 2×2B votes    = 12
//	coco        : key+val + 4B counter    = 12
//	ideal       : key+val (charitably free bookkeeping) = 8
const (
	bytesPerEntryKV  = 8
	bytesPerUnitMeta = 1
	bytesPerAuxWord  = 4
)

// Kind names a replacement policy for NewForMemory.
type Kind string

// The policy kinds the experiments sweep.
const (
	KindP4LRU1  Kind = "p4lru1" // plain hash table — the testbed Baseline
	KindP4LRU2  Kind = "p4lru2"
	KindP4LRU3  Kind = "p4lru3"
	KindP4LRU4  Kind = "p4lru4"
	KindIdeal   Kind = "ideal"
	KindTimeout Kind = "timeout"
	KindElastic Kind = "elastic"
	KindCoco    Kind = "coco"
	// KindClock is the MemC3-style CLOCK approximation — a CPU-only
	// reference point (its eviction sweep cannot run in a pipeline).
	KindClock Kind = "clock"
)

// Options tunes policy-specific knobs for NewForMemory.
type Options struct {
	// Merge is applied on hits (nil = replace).
	Merge MergeFunc
	// TimeoutThreshold is the timeout policy's expiry (0 picks 100ms, a
	// mid-sweep value; experiments tune it as the paper did).
	TimeoutThreshold time.Duration
	// ElasticLambda is the eviction vote ratio (0 picks 8).
	ElasticLambda uint32
	// Seed selects hash functions and coco randomness.
	Seed uint64
}

// NewForMemory builds the named policy sized to memBytes using the cost
// model above.
func NewForMemory(kind Kind, memBytes int, opt Options) Cache {
	if memBytes < 16 {
		panic(fmt.Sprintf("policy: memory budget %dB too small", memBytes))
	}
	if opt.TimeoutThreshold == 0 {
		opt.TimeoutThreshold = 100 * time.Millisecond
	}
	if opt.ElasticLambda == 0 {
		opt.ElasticLambda = 8
	}
	switch kind {
	case KindP4LRU1:
		return NewP4LRU(1, atLeast1(memBytes/bytesPerEntryKV), opt.Seed, opt.Merge)
	case KindP4LRU2, KindP4LRU3, KindP4LRU4:
		// The deployed configuration runs on the flat struct-of-arrays core;
		// NewP4LRU(n, ...) remains the generic oracle the differential tests
		// compare against. Same unit count, seed and semantics.
		n := map[Kind]int{KindP4LRU2: 2, KindP4LRU3: 3, KindP4LRU4: 4}[kind]
		return NewFlatP4LRU(n, atLeast1(memBytes/(n*bytesPerEntryKV+bytesPerUnitMeta)), opt.Seed, opt.Merge)
	case KindIdeal:
		return NewIdeal(atLeast1(memBytes/bytesPerEntryKV), opt.Merge)
	case KindTimeout:
		return NewTimeout(atLeast1(memBytes/(bytesPerEntryKV+bytesPerAuxWord)), opt.TimeoutThreshold, opt.Seed, opt.Merge)
	case KindElastic:
		return NewElastic(atLeast1(memBytes/(bytesPerEntryKV+bytesPerAuxWord)), opt.ElasticLambda, opt.Seed, opt.Merge)
	case KindCoco:
		return NewCoco(atLeast1(memBytes/(bytesPerEntryKV+bytesPerAuxWord)), opt.Seed, opt.Merge)
	case KindClock:
		// key+val plus the reference bit (charged a byte).
		return NewClock(atLeast1(memBytes/(bytesPerEntryKV+1)), opt.Merge)
	default:
		panic(fmt.Sprintf("policy: unknown kind %q", kind))
	}
}

func atLeast1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

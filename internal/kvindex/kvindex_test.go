package kvindex

import (
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/policy"
)

func seriesCache(levels, units int) policy.Cache {
	return policy.NewSeries(levels, units, 1, nil)
}

func TestServer(t *testing.T) {
	srv := NewServer(10000)
	if srv.Items() != 10000 {
		t.Fatalf("items = %d", srv.Items())
	}
	if srv.IndexHeight() < 3 {
		t.Errorf("index height = %d, implausibly flat", srv.IndexHeight())
	}
	// Walk path and cached path agree.
	idx, val, nodes, ok := srv.lookup(42, 0, false)
	if !ok || nodes != srv.IndexHeight() {
		t.Fatalf("walk lookup: ok=%v nodes=%d", ok, nodes)
	}
	idx2, val2, nodes2, ok2 := srv.lookup(42, idx, true)
	if !ok2 || nodes2 != 0 || idx2 != idx || val2 != val {
		t.Fatalf("cached lookup mismatch: (%d,%d,%d) vs (%d,%d)", idx2, val2, nodes2, idx, val)
	}
	// Corrupt cached index falls back to the walk.
	_, val3, nodes3, ok3 := srv.lookup(42, 1<<60, true)
	if !ok3 || nodes3 == 0 || val3 != val {
		t.Fatalf("corrupt-index fallback: ok=%v nodes=%d", ok3, nodes3)
	}
}

func TestRunNaive(t *testing.T) {
	res := Run(Config{Items: 10000, Threads: 2, Queries: 20000, Seed: 1})
	if res.Queries != 20000 {
		t.Fatalf("queries = %d", res.Queries)
	}
	if res.Errors != 0 {
		t.Fatalf("%d value errors", res.Errors)
	}
	if res.Hits != 0 || res.HitRate != 0 {
		t.Errorf("naive run recorded hits: %d", res.Hits)
	}
	if res.ThroughputTPS <= 0 || res.AvgLatency <= 0 {
		t.Errorf("throughput %v latency %v", res.ThroughputTPS, res.AvgLatency)
	}
	if res.P50Latency <= 0 || res.P99Latency < res.P50Latency {
		t.Errorf("latency percentiles implausible: p50=%v p99=%v", res.P50Latency, res.P99Latency)
	}
	// Every query walked the full index.
	if res.NodesWalked == 0 {
		t.Error("no nodes walked")
	}
}

func TestRunCached(t *testing.T) {
	res := Run(Config{
		Items: 10000, Threads: 4, Queries: 40000, Seed: 2,
		Cache: seriesCache(4, 1024),
	})
	if res.Errors != 0 {
		t.Fatalf("%d value errors (stale cached index?)", res.Errors)
	}
	if res.HitRate <= 0.2 {
		t.Errorf("hit rate = %.3f, expected a warm cache on Zipf keys", res.HitRate)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := func() Config {
		return Config{Items: 5000, Threads: 4, Queries: 10000, Seed: 3,
			Cache: seriesCache(2, 256)}
	}
	a, b := Run(cfg()), Run(cfg())
	if a != b {
		t.Errorf("runs differ:\n%+v\n%+v", a, b)
	}
}

// TestCacheAcceleratesThroughput reproduces Figure 10(b)'s premise: the
// cached system outruns the naive one, and the P4LRU3 series beats the
// hash-table baseline.
func TestCacheAcceleratesThroughput(t *testing.T) {
	base := Config{Items: 50_000, Threads: 8, Queries: 60_000, Seed: 4}

	naive := Run(base)

	cached := base
	cached.Cache = seriesCache(4, 2048)
	withCache := Run(cached)

	baseline := base
	baseline.Cache = policy.NewP4LRU(1, 4*2048*3, 1, nil)
	withBaseline := Run(baseline)

	if withCache.ThroughputTPS <= naive.ThroughputTPS {
		t.Errorf("cached throughput %.0f not above naive %.0f",
			withCache.ThroughputTPS, naive.ThroughputTPS)
	}
	if withCache.ThroughputTPS <= withBaseline.ThroughputTPS {
		t.Errorf("p4lru3 series %.0f not above hash baseline %.0f",
			withCache.ThroughputTPS, withBaseline.ThroughputTPS)
	}
	speedup := withCache.ThroughputTPS / naive.ThroughputTPS
	if speedup < 1.05 || speedup > 3 {
		t.Errorf("speedup = %.2f, expected a moderate acceleration", speedup)
	}
}

// TestThroughputScalesWithThreads reproduces Figure 10(a)'s shape:
// throughput grows with the thread count, sublinearly once server cores
// saturate.
func TestThroughputScalesWithThreads(t *testing.T) {
	tps := map[int]float64{}
	for _, threads := range []int{1, 4, 8} {
		cfg := Config{Items: 20_000, Threads: threads, Queries: 30_000, Seed: 5,
			Cache: seriesCache(4, 1024), ServerCores: 4}
		tps[threads] = Run(cfg).ThroughputTPS
	}
	if !(tps[8] > tps[4] && tps[4] > tps[1]) {
		t.Errorf("throughput not increasing: %v", tps)
	}
	// Sublinear at 8 threads on 4 cores.
	if tps[8] >= 8*tps[1] {
		t.Errorf("throughput 8 threads %.0f implausibly linear vs 1 thread %.0f", tps[8], tps[1])
	}
}

// TestHitsSkipIndexWalk: cached queries must not walk the B+ tree.
func TestHitsSkipIndexWalk(t *testing.T) {
	cfg := Config{Items: 10_000, Threads: 1, Queries: 20_000, Seed: 6,
		Cache: seriesCache(4, 1024)}
	res := Run(cfg)
	srv := NewServer(cfg.Items)
	maxWalk := int64(res.Queries-res.Hits) * int64(srv.IndexHeight())
	if res.NodesWalked > maxWalk {
		t.Errorf("nodes walked %d exceeds misses × height %d", res.NodesWalked, maxWalk)
	}
	if res.NodesWalked == 0 {
		t.Error("no walks at all")
	}
}

// TestLatencyIncludesRTT: average latency is at least the RTT plus the
// arena fetch.
func TestLatencyIncludesRTT(t *testing.T) {
	rtt := 50 * time.Microsecond
	res := Run(Config{Items: 1000, Threads: 1, Queries: 2000, Seed: 7, RTT: rtt})
	if res.AvgLatency < rtt {
		t.Errorf("latency %v below RTT %v", res.AvgLatency, rtt)
	}
}

func TestFewerQueriesThanThreads(t *testing.T) {
	res := Run(Config{Items: 1000, Threads: 16, Queries: 3, Seed: 8})
	if res.Queries != 3 {
		t.Errorf("queries = %d, want 3", res.Queries)
	}
}

// TestLocateMatchesResolve: Locate is Resolve without the arena read, so
// it must return the same (idx, nodes, ok) for every way a lookup can go.
func TestLocateMatchesResolve(t *testing.T) {
	srv := NewServer(10000)
	walkIdx, _, _, _ := srv.Resolve(42, 0, false)
	for _, c := range []struct {
		name   string
		key    uint64
		hint   uint64
		hinted bool
	}{
		{"unhinted", 42, 0, false},
		{"unhinted-ignores-hint", 42, 7 * ValueSize, false},
		{"valid-hint", 42, walkIdx, true},
		{"hint-of-another-slot", 42, 7 * ValueSize, true}, // trusted: the server cannot tell
		{"corrupt-hint", 42, 1 << 60, true},
		{"hint-at-arena-end", 42, uint64(10000*ValueSize - 4), true},
		{"absent-unhinted", 20000, 0, false},
		{"absent-corrupt-hint", 20000, 1 << 60, true},
		{"key-zero", 0, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			idx, _, nodes, ok := srv.Resolve(c.key, c.hint, c.hinted)
			lidx, lnodes, lok := srv.Locate(c.key, c.hint, c.hinted)
			if lidx != idx || lnodes != nodes || lok != ok {
				t.Fatalf("Locate = (%d, %d, %v), Resolve = (%d, %d, %v)", lidx, lnodes, lok, idx, nodes, ok)
			}
		})
	}
}

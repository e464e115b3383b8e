package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/resilience"
)

const testSeed = 42

// newTestEngine builds a node engine big enough that the test keyspaces
// never evict (Ideal = true LRU, no hash-placement collisions), so
// assertions about resident keys are deterministic.
func newTestEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.NewFromSpec(
		policy.Spec{Kind: policy.KindIdeal, MemBytes: 1 << 20, Seed: 9},
		engine.Config{Shards: 2, Block: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// newTestCluster stands up n LocalPeer nodes behind one router. The
// heartbeat loop is off unless cfg enables it — membership tests drive
// Join/Leave/Fail explicitly.
func newTestCluster(t *testing.T, n int, cfg Config) (*Router, map[string]*LocalPeer) {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = testSeed
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = -1
	}
	r := New(cfg)
	t.Cleanup(r.Close)
	peers := make(map[string]*LocalPeer, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node-%d", i)
		p := NewLocalPeer(newTestEngine(t), cfg.Seed)
		peers[id] = p
		if err := r.Join(id, p); err != nil {
			t.Fatalf("Join(%s): %v", id, err)
		}
	}
	return r, peers
}

func TestRouterEmptyRing(t *testing.T) {
	r := New(Config{Seed: testSeed, HeartbeatEvery: -1})
	defer r.Close()
	if _, _, err := r.Query(1); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Query on empty ring: %v, want ErrNoNodes", err)
	}
	if err := r.Update(1, 2); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Update on empty ring: %v, want ErrNoNodes", err)
	}
	if _, err := r.GetOrLoad(1, func(uint64) (uint64, error) { return 0, nil }); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("GetOrLoad on empty ring: %v, want ErrNoNodes", err)
	}
}

func TestRouterSingleNode(t *testing.T) {
	r, _ := newTestCluster(t, 1, Config{})
	if _, ok, err := r.Query(7); ok || err != nil {
		t.Fatalf("Query(7) on cold node = (ok=%v, err=%v)", ok, err)
	}
	if err := r.Update(7, 70); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if v, ok, err := r.Query(7); !ok || v != 70 || err != nil {
		t.Fatalf("Query(7) = (%d, %v, %v), want (70, true, nil)", v, ok, err)
	}
	loads := 0
	v, err := r.GetOrLoad(8, func(k uint64) (uint64, error) { loads++; return k * 10, nil })
	if err != nil || v != 80 || loads != 1 {
		t.Fatalf("GetOrLoad miss = (%d, %v), loads=%d", v, err, loads)
	}
	v, err = r.GetOrLoad(8, func(k uint64) (uint64, error) { loads++; return k * 10, nil })
	if err != nil || v != 80 || loads != 1 {
		t.Fatalf("GetOrLoad hit = (%d, %v), loads=%d (loader ran again)", v, err, loads)
	}
}

func TestRouterRoutesToOwner(t *testing.T) {
	r, peers := newTestCluster(t, 3, Config{})
	ring := r.Ring()
	for k := uint64(1); k <= 500; k++ {
		if err := r.Update(k, k*2); err != nil {
			t.Fatalf("Update(%d): %v", k, err)
		}
	}
	for k := uint64(1); k <= 500; k++ {
		owner := ring.Owner(k)
		if v, _, ok := peers[owner].Engine().Query(k); !ok || v != k*2 {
			t.Fatalf("key %d not on its owner %q (got %d, %v)", k, owner, v, ok)
		}
		for id, p := range peers {
			if id == owner {
				continue
			}
			if _, _, ok := p.Engine().Query(k); ok {
				t.Fatalf("non-hot key %d replicated to %q", k, id)
			}
		}
	}
}

// TestRouterJoinMigratesWarm: a joining node receives its hash ranges as a
// snapshot stream before taking ownership, so its first queries already hit.
func TestRouterJoinMigratesWarm(t *testing.T) {
	r, peers := newTestCluster(t, 2, Config{})
	const keys = 3000
	for k := uint64(1); k <= keys; k++ {
		if err := r.Update(k, k+9); err != nil {
			t.Fatal(err)
		}
	}
	joiner := NewLocalPeer(newTestEngine(t), testSeed)
	peers["node-9"] = joiner
	if err := r.Join("node-9", joiner); err != nil {
		t.Fatalf("Join: %v", err)
	}
	// The new node's engine was warmed by migration, not by traffic.
	ring := r.Ring()
	owned, resident := 0, 0
	for k := uint64(1); k <= keys; k++ {
		if ring.Owner(k) != "node-9" {
			continue
		}
		owned++
		if v, _, ok := joiner.Engine().Query(k); ok && v == k+9 {
			resident++
		}
	}
	if owned == 0 {
		t.Fatal("joining node owns no test keys")
	}
	if resident != owned {
		t.Fatalf("joiner holds %d of its %d keys after migration", resident, owned)
	}
	// And the full keyspace still serves through the router.
	for k := uint64(1); k <= keys; k++ {
		if v, ok, err := r.Query(k); !ok || v != k+9 || err != nil {
			t.Fatalf("Query(%d) after join = (%d, %v, %v)", k, v, ok, err)
		}
	}
}

// TestRouterLeaveKeepsServing: a graceful leave streams the departing
// node's ranges to their new owners; nothing acked is lost.
func TestRouterLeaveKeepsServing(t *testing.T) {
	r, _ := newTestCluster(t, 3, Config{})
	const keys = 3000
	for k := uint64(1); k <= keys; k++ {
		if err := r.Update(k, k^0xbeef); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Leave("node-1"); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if got := len(r.Members()); got != 2 {
		t.Fatalf("%d members after leave, want 2", got)
	}
	for k := uint64(1); k <= keys; k++ {
		if v, ok, err := r.Query(k); !ok || v != k^0xbeef || err != nil {
			t.Fatalf("Query(%d) after leave = (%d, %v, %v)", k, v, ok, err)
		}
	}
}

// TestRouterDualReadWindow exercises the miss-retry path directly: a key
// resident only at the previous holder of its arc is found through the
// window and re-installed at the current owner.
func TestRouterDualReadWindow(t *testing.T) {
	r, peers := newTestCluster(t, 2, Config{})
	ring := r.Ring()
	// Find a key owned by node-0.
	var key uint64
	for k := uint64(1); ; k++ {
		if ring.Owner(k) == "node-0" {
			key = k
			break
		}
	}
	// The value lives only on node-1, as if the arc just moved 1 → 0.
	if err := peers["node-1"].Update(key, 777); err != nil {
		t.Fatal(err)
	}
	st := r.state.Load()
	manual := &ringState{
		ring:  st.ring,
		peers: st.peers,
		windows: []dualWindow{{
			arcs:   [][2]uint64{{0, 0}}, // degenerate arc: whole circle
			source: "node-1",
			until:  time.Now().Add(time.Minute),
		}},
	}
	manual.index(r.gate, r.replicas())
	r.state.Store(manual)
	if v, ok, err := r.Query(key); !ok || v != 777 || err != nil {
		t.Fatalf("dual read = (%d, %v, %v), want (777, true, nil)", v, ok, err)
	}
	if v, _, ok := peers["node-0"].Engine().Query(key); !ok || v != 777 {
		t.Fatalf("dual-read hit not re-installed at owner (got %d, %v)", v, ok)
	}
}

// TestRouterHotKeyReplication: keys promoted to the hot set fan updates to
// the replica successors and survive the owner's death.
func TestRouterHotKeyReplication(t *testing.T) {
	r, peers := newTestCluster(t, 4, Config{Replicas: 3, HotK: 8})
	hotKey := uint64(12345)
	if err := r.Update(hotKey, 1); err != nil {
		t.Fatal(err)
	}
	// Hammer the key so the sampled sketch sees it, then force a publish.
	for i := 0; i < 4096; i++ {
		if _, _, err := r.Query(hotKey); err != nil {
			t.Fatal(err)
		}
	}
	r.hot.Publish()
	if !r.hot.Hot(hotKey) {
		t.Fatal("key not promoted to the hot set")
	}
	if err := r.Update(hotKey, 2); err != nil {
		t.Fatal(err)
	}
	ring := r.Ring()
	reps := ring.Replicas(hotKey, 3)
	for _, id := range reps {
		if v, _, ok := peers[id].Engine().Query(hotKey); !ok || v != 2 {
			t.Fatalf("replica %q missing the hot key (got %d, %v)", id, v, ok)
		}
	}
	// Kill the owner: the read fan still reaches a live replica.
	owner := reps[0]
	peers[owner].Kill()
	hits := 0
	for i := 0; i < 8; i++ {
		if v, ok, err := r.Query(hotKey); ok && v == 2 && err == nil {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("only %d/8 reads survived the owner's death", hits)
	}
	// Failing the owner migrates its arcs from surviving replicas.
	if err := r.Fail(owner); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if v, ok, err := r.Query(hotKey); !ok || v != 2 || err != nil {
		t.Fatalf("Query after failover = (%d, %v, %v)", v, ok, err)
	}
}

// TestRouterHeartbeatAutoFail: the failure detector notices a dead peer,
// trips its breaker, and removes it from the ring without operator help.
func TestRouterHeartbeatAutoFail(t *testing.T) {
	r, peers := newTestCluster(t, 3, Config{
		HeartbeatEvery: 10 * time.Millisecond,
		Breaker: resilience.BreakerConfig{
			ConsecutiveFailures: 2,
			OpenFor:             10 * time.Second, // stay open; no flapping mid-test
		},
	})
	peers["node-2"].Kill()
	deadline := time.Now().Add(5 * time.Second)
	for len(r.Members()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("dead node never auto-failed; members = %v", r.Members())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, m := range r.Members() {
		if m == "node-2" {
			t.Fatal("dead node still a member")
		}
	}
}

// flakyPeer fails every every-th Query like an unreachable node and serves
// the rest from the wrapped LocalPeer. Being a distinct type, it also keeps
// the router off its devirtualized in-process path.
type flakyPeer struct {
	*LocalPeer
	every uint64
	n     atomic.Uint64
}

func (p *flakyPeer) Query(key uint64) (uint64, bool, error) {
	if p.n.Add(1)%p.every == 0 {
		return 0, false, ErrPeerDown
	}
	return p.LocalPeer.Query(key)
}

// TestRouterSporadicFailuresKeepBreakerClosed: a healthy peer that fails one
// query in 200 must never trip its breaker (5 consecutive failures), even
// when every key it serves has nonzero low bits — successes must count
// whatever the keys look like.
func TestRouterSporadicFailuresKeepBreakerClosed(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			r := New(Config{Seed: testSeed, HeartbeatEvery: -1})
			t.Cleanup(r.Close)
			for i := 0; i < nodes; i++ {
				p := &flakyPeer{LocalPeer: NewLocalPeer(newTestEngine(t), testSeed), every: 200}
				if err := r.Join(fmt.Sprintf("node-%d", i), p); err != nil {
					t.Fatal(err)
				}
			}
			const queries = 100_000
			fails := 0
			for i := 0; i < queries; i++ {
				key := uint64(i)<<4 | uint64(1+i%15) // key&15 != 0
				if _, _, err := r.Query(key); err != nil {
					fails++
				}
			}
			if fails == 0 {
				t.Fatal("no query failed; the flaky peer is not in the path")
			}
			for _, id := range r.Members() {
				if s := r.gate.Peer(id).State(); s != resilience.Closed {
					t.Fatalf("%s breaker %v after %d sporadic failures in %d queries", id, s, fails, queries)
				}
			}
		})
	}
}

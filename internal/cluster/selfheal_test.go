package cluster

import (
	"errors"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/resilience"
)

// keyOwnedBy finds a key the given member owns under r's current ring.
func keyOwnedBy(t *testing.T, r *Router, id string, from uint64) uint64 {
	t.Helper()
	for k := from; k < from+100000; k++ {
		if r.Ring().Owner(k) == id {
			return k
		}
	}
	t.Fatalf("no key owned by %s in 100k probes", id)
	return 0
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHintLogParkDedupeEvict(t *testing.T) {
	h := newHintLog(3)
	for i, kv := range [][2]uint64{{1, 10}, {2, 20}, {3, 30}} {
		if h.park("a", kv[0], kv[1]) {
			t.Fatalf("park #%d evicted below capacity", i)
		}
	}
	// Re-parking a known key updates in place — no eviction, no growth.
	if h.park("a", 2, 21) {
		t.Fatal("duplicate key park evicted")
	}
	if got := h.pendingFor("a"); got != 3 {
		t.Fatalf("pendingFor = %d, want 3", got)
	}
	// A fourth distinct key evicts the oldest (key 1).
	if !h.park("a", 4, 40) {
		t.Fatal("park at capacity did not evict")
	}
	got := h.take("a")
	want := map[uint64]uint64{2: 21, 3: 30, 4: 40}
	if len(got) != len(want) {
		t.Fatalf("take = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("take[%d] = %d, want %d", k, got[k], v)
		}
	}
	if h.take("a") != nil || h.pending() != 0 {
		t.Fatal("take did not drain the log")
	}
}

func TestPushPairsSynthesizedReplay(t *testing.T) {
	p := NewLocalPeer(newTestEngine(t), testSeed)
	// Pre-install one key: keep-existing replay must not roll it back.
	if err := p.Update(5, 555); err != nil {
		t.Fatal(err)
	}
	n, err := pushPairs(p, map[uint64]uint64{5: 50, 6: 60, 7: 70})
	if err != nil {
		t.Fatalf("pushPairs: %v", err)
	}
	if n != 2 {
		t.Fatalf("installed %d pairs, want 2 (key 5 already resident)", n)
	}
	if v, _, ok := p.eng.Query(5); !ok || v != 555 {
		t.Fatalf("resident key rolled back to %d by hint replay", v)
	}
	for k, want := range map[uint64]uint64{6: 60, 7: 70} {
		if v, _, ok := p.eng.Query(k); !ok || v != want {
			t.Fatalf("replayed key %d = (%d, %v), want %d", k, v, ok, want)
		}
	}
}

// TestUpdateParksHintAndReplaysOnRecovery: updates to a dead owner return
// ErrHinted instead of failing outright, and the parked writes replay when
// the owner's breaker closes again.
func TestUpdateParksHintAndReplaysOnRecovery(t *testing.T) {
	r, peers := newTestCluster(t, 2, Config{
		Breaker: resilience.BreakerConfig{
			ConsecutiveFailures: 1,
			OpenFor:             20 * time.Millisecond,
			HalfOpenProbes:      1,
		},
	})
	const victim = "node-0"
	k1 := keyOwnedBy(t, r, victim, 1)
	k2 := keyOwnedBy(t, r, victim, k1+1)

	peers[victim].Kill()
	if err := r.Update(k1, 100); !errors.Is(err, ErrHinted) {
		t.Fatalf("Update to dead owner = %v, want ErrHinted", err)
	}
	// The breaker is open now; the rejection is hinted too.
	if err := r.Update(k2, 200); !errors.Is(err, ErrHinted) {
		t.Fatalf("Update behind open breaker = %v, want ErrHinted", err)
	}
	if got := r.hints.pendingFor(victim); got != 2 {
		t.Fatalf("%d hints parked, want 2", got)
	}

	peers[victim].Revive()
	time.Sleep(25 * time.Millisecond) // let the cool-down lapse
	// Queries probe the half-open breaker; a success closes it, and the
	// recovery edge replays the hints in the background.
	waitFor(t, 2*time.Second, "hint replay after recovery", func() bool {
		_, _, _ = r.Query(k1)
		v1, _, ok1 := peers[victim].eng.Query(k1)
		v2, _, ok2 := peers[victim].eng.Query(k2)
		return ok1 && v1 == 100 && ok2 && v2 == 200
	})
	if got := r.hints.pendingFor(victim); got != 0 {
		t.Fatalf("%d hints still parked after replay", got)
	}
}

// TestReadRepairHealsMissingReplica: a hot key present at its owner but
// absent at a replica is observed divergent by the fan read and re-filled
// through the repair queue.
func TestReadRepairHealsMissingReplica(t *testing.T) {
	r, peers := newTestCluster(t, 3, Config{
		Replicas:   2,
		HotK:       8,
		RepairRate: 100000, // drain instantly; the rate is not under test
	})
	const key = uint64(12345)
	// Install while cold: only the owner holds the key.
	if err := r.Update(key, 777); err != nil {
		t.Fatal(err)
	}
	// Make it hot, then force a publish so the fan path engages.
	for i := 0; i < 4096; i++ {
		r.hot.Touch(key, uint32(i))
	}
	r.hot.Publish()
	if !r.hot.Hot(key) {
		t.Fatal("key did not reach the published hot set")
	}
	st := r.state.Load()
	ids := st.ring.ReplicasAt(st.ring.Pos(key), 2)
	replica := peers[ids[1]]
	if _, _, ok := replica.eng.Query(key); ok {
		t.Fatal("replica already holds the key; divergence scenario void")
	}
	// Fan reads rotate the probe order; repeated queries must eventually
	// observe replica-miss-then-owner-hit and enqueue the repair.
	waitFor(t, 2*time.Second, "read repair to fill the replica", func() bool {
		if v, ok, err := r.Query(key); err != nil || !ok || v != 777 {
			t.Fatalf("Query(%d) = (%d, %v, %v)", key, v, ok, err)
		}
		v, _, ok := replica.eng.Query(key)
		return ok && v == 777
	})
}

// TestSweepRepairsValueDivergence: a replica holding a *stale value* answers
// hits, so the read path never sees the divergence — the arc-digest sweep
// must catch it and re-fill the replica from the owner.
func TestSweepRepairsValueDivergence(t *testing.T) {
	r, peers := newTestCluster(t, 3, Config{
		Replicas:         2,
		HotK:             8,
		RepairRate:       100000,
		RepairSweepEvery: -1, // driven by hand for determinism
	})
	const key = uint64(54321)
	for i := 0; i < 4096; i++ {
		r.hot.Touch(key, uint32(i))
	}
	r.hot.Publish()
	if !r.hot.Hot(key) {
		t.Fatal("key did not reach the published hot set")
	}
	// Hot update fans to owner and replica.
	if err := r.Update(key, 1000); err != nil {
		t.Fatal(err)
	}
	st := r.state.Load()
	ids := st.ring.ReplicasAt(st.ring.Pos(key), 2)
	owner, replica := peers[ids[0]], peers[ids[1]]
	if v, _, ok := replica.eng.Query(key); !ok || v != 1000 {
		t.Fatalf("replica = (%d, %v) after hot update, want 1000", v, ok)
	}
	// Diverge the replica behind the router's back.
	if err := replica.Update(key, 31337); err != nil {
		t.Fatal(err)
	}
	r.sweepOnce()
	waitFor(t, 2*time.Second, "sweep-triggered repair", func() bool {
		v, _, ok := replica.eng.Query(key)
		return ok && v == 1000
	})
	if v, _, ok := owner.eng.Query(key); !ok || v != 1000 {
		t.Fatalf("owner disturbed by repair: (%d, %v)", v, ok)
	}
}

// TestDegradedModeShedsRemoteMisses: with the majority of peers behind open
// breakers the router enters degraded mode, serving local arcs normally but
// shedding GetOrLoad misses caused by unreachable owners.
func TestDegradedModeShedsRemoteMisses(t *testing.T) {
	r, peers := newTestCluster(t, 3, Config{
		Breaker: resilience.BreakerConfig{
			ConsecutiveFailures: 1,
			OpenFor:             50 * time.Millisecond,
			HalfOpenProbes:      1,
		},
	})
	// Cut links to two of three nodes and trip their breakers.
	cut := []string{"node-1", "node-2"}
	for _, id := range cut {
		peers[id].CutLink()
		k := keyOwnedBy(t, r, id, 1)
		if _, _, err := r.Query(k); err == nil {
			t.Fatalf("query to cut peer %s succeeded", id)
		}
	}
	r.refreshDegraded()
	if !r.Degraded() {
		t.Fatal("router not degraded with 2/3 peers unreachable")
	}

	// A remote miss is shed without consulting the loader.
	loads := 0
	load := func(k uint64) (uint64, error) { loads++; return k, nil }
	remote := keyOwnedBy(t, r, "node-1", 1)
	if _, err := r.GetOrLoad(remote, load); !errors.Is(err, ErrDegraded) {
		t.Fatalf("remote miss while degraded = %v, want ErrDegraded", err)
	}
	if loads != 0 {
		t.Fatal("loader consulted for a shed remote miss")
	}
	// Local arcs keep full service, including miss loads.
	local := keyOwnedBy(t, r, "node-0", 1)
	if v, err := r.GetOrLoad(local, load); err != nil || v != local || loads != 1 {
		t.Fatalf("local miss while degraded = (%d, %v), loads=%d", v, err, loads)
	}

	// Heal: links restored, half-open probes re-prove the peers, mode clears.
	for _, id := range cut {
		peers[id].HealLink()
	}
	waitFor(t, 2*time.Second, "breakers to close after heal", func() bool {
		for _, id := range cut {
			_, _, _ = r.Query(keyOwnedBy(t, r, id, 1)) // probe
			if r.gate.Peer(id).State() != resilience.Closed {
				return false
			}
		}
		return true
	})
	r.refreshDegraded()
	if r.Degraded() {
		t.Fatal("router still degraded after heal")
	}
	if _, err := r.GetOrLoad(remote, load); err != nil {
		t.Fatalf("remote load after heal: %v", err)
	}
}

// TestGossipBootstrapFromSingleSeed: a router configured with gossip joins
// ONE seed node and learns the other members from the seed's membership
// table, resolving and joining them without any explicit Join calls.
func TestGossipBootstrapFromSingleSeed(t *testing.T) {
	ids := []string{"node-0", "node-1", "node-2"}
	peers := map[string]*LocalPeer{}
	for _, id := range ids {
		p := NewLocalPeer(newTestEngine(t), testSeed)
		p.AttachMembership(NewMembership(id, "", ""))
		peers[id] = p
	}
	// The nodes already know each other (their own gossip mesh converged).
	for _, id := range ids {
		for _, other := range ids {
			if other != id {
				peers[id].Membership().Alive(other, "", "")
			}
		}
	}
	r := New(Config{
		Seed:           testSeed,
		Gossip:         true,
		HeartbeatEvery: 10 * time.Millisecond,
		Resolver: func(d netproto.MemberDigest) (Peer, error) {
			if p := peers[d.ID]; p != nil {
				return p, nil
			}
			return nil, nil
		},
	})
	defer r.Close()
	if err := r.Join("node-0", peers["node-0"]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "gossip to assemble the full ring", func() bool {
		return len(r.Members()) == 3
	})
	for _, id := range ids {
		if !containsStr(r.Members(), id) {
			t.Fatalf("member %s missing after bootstrap: %v", id, r.Members())
		}
	}
}

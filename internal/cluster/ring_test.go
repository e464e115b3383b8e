package cluster

import (
	"fmt"
	"testing"
)

func ringMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%02d", i)
	}
	return out
}

func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	a := NewRing(7, 64, []string{"a", "b", "c"})
	b := NewRing(7, 64, []string{"c", "a", "b", "a"}) // shuffled + duplicate
	for k := uint64(0); k < 5000; k++ {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %d: owner %q vs %q for the same membership", k, a.Owner(k), b.Owner(k))
		}
	}
	if a.Size() != 3 || b.Size() != 3 {
		t.Fatalf("sizes %d/%d, want 3", a.Size(), b.Size())
	}
}

func TestRingReplicasDistinctOwnerFirst(t *testing.T) {
	r := NewRing(3, 32, ringMembers(5))
	for k := uint64(0); k < 2000; k++ {
		reps := r.Replicas(k, 3)
		if len(reps) != 3 {
			t.Fatalf("key %d: %d replicas, want 3", k, len(reps))
		}
		if reps[0] != r.Owner(k) {
			t.Fatalf("key %d: replicas[0] = %q, owner = %q", k, reps[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, m := range reps {
			if seen[m] {
				t.Fatalf("key %d: duplicate replica %q", k, m)
			}
			seen[m] = true
		}
	}
	// Asking for more replicas than members returns every member once.
	if got := len(r.Replicas(1, 99)); got != 5 {
		t.Fatalf("Replicas(1, 99) returned %d members, want 5", got)
	}
}

// TestRingStabilityOnJoin is the consistent-hashing contract: adding one
// node to an N-node ring moves at most ~1/(N+1) of the keyspace (plus vnode
// placement noise), and every moved key moves *to* the new node.
func TestRingStabilityOnJoin(t *testing.T) {
	const n, keys = 8, 20000
	old := NewRing(11, 128, ringMembers(n))
	next := NewRing(11, 128, append(ringMembers(n), "node-new"))
	moved := 0
	for k := uint64(0); k < keys; k++ {
		was, now := old.Owner(k), next.Owner(k)
		if was == now {
			continue
		}
		moved++
		if now != "node-new" {
			t.Fatalf("key %d moved %q → %q, not to the joining node", k, was, now)
		}
	}
	frac := float64(moved) / keys
	if limit := 1.0/float64(n+1) + 0.05; frac > limit {
		t.Fatalf("join moved %.1f%% of keys, limit %.1f%%", frac*100, limit*100)
	}
	if moved == 0 {
		t.Fatal("join moved nothing — the new node owns no keys")
	}
}

// TestRingStabilityOnLeave: removing a node moves exactly the keys it
// owned (~1/N of the keyspace) and disturbs nothing else.
func TestRingStabilityOnLeave(t *testing.T) {
	const n, keys = 8, 20000
	members := ringMembers(n)
	old := NewRing(11, 128, members)
	gone := members[3]
	next := NewRing(11, 128, append(append([]string{}, members[:3]...), members[4:]...))
	moved := 0
	for k := uint64(0); k < keys; k++ {
		was, now := old.Owner(k), next.Owner(k)
		if was == gone {
			moved++
			if now == gone {
				t.Fatalf("key %d still owned by the removed node", k)
			}
			continue
		}
		if was != now {
			t.Fatalf("key %d moved %q → %q though its owner never left", k, was, now)
		}
	}
	frac := float64(moved) / keys
	if limit := 1.0/float64(n) + 0.05; frac > limit {
		t.Fatalf("leave moved %.1f%% of keys, limit %.1f%%", frac*100, limit*100)
	}
}

// TestRingVnodeBalanceSweep: more virtual nodes bound ownership imbalance
// tighter. At 128 vnodes an 8-node ring should be within ~35% of perfectly
// even, and strictly better than the 4-vnode ring.
func TestRingVnodeBalanceSweep(t *testing.T) {
	const n, keys = 8, 40000
	imbalance := func(vnodes int) float64 {
		r := NewRing(11, vnodes, ringMembers(n))
		counts := map[string]int{}
		for k := uint64(0); k < keys; k++ {
			counts[r.Owner(k)]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / (float64(keys) / n) // 1.0 = perfectly even
	}
	sweep := map[int]float64{}
	for _, v := range []int{4, 16, 64, 128} {
		sweep[v] = imbalance(v)
		t.Logf("vnodes=%3d max/mean ownership = %.3f", v, sweep[v])
	}
	if sweep[128] > 1.35 {
		t.Fatalf("128 vnodes: max/mean = %.3f, want ≤ 1.35", sweep[128])
	}
	if sweep[128] >= sweep[4] {
		t.Fatalf("imbalance did not improve with vnodes: 4→%.3f, 128→%.3f", sweep[4], sweep[128])
	}
}

// TestPlanJoinArcsCoverMovedKeys: the migration plan for a join names
// exactly the hash ranges whose keys change owner.
func TestPlanJoinArcsCoverMovedKeys(t *testing.T) {
	old := NewRing(5, 64, ringMembers(4))
	next := NewRing(5, 64, append(ringMembers(4), "node-new"))
	transfers := Plan(old, next, 1)
	if len(transfers) == 0 {
		t.Fatal("empty plan for a join")
	}
	var arcs [][2]uint64
	for _, tr := range transfers {
		if tr.Dest != "node-new" {
			t.Fatalf("join plan has dest %q; with replicas=1 only the joining node gains", tr.Dest)
		}
		if len(tr.Sources) == 0 {
			t.Fatal("transfer with no sources")
		}
		for _, s := range tr.Sources {
			if !containsStr(old.Members(), s) {
				t.Fatalf("source %q is not an old member", s)
			}
		}
		arcs = append(arcs, tr.Arcs...)
	}
	for k := uint64(0); k < 20000; k++ {
		movedKey := old.Owner(k) != next.Owner(k)
		inArcs := arcsContain(arcs, old.Pos(k))
		if movedKey && !inArcs {
			t.Fatalf("key %d moved but no transfer arc covers it", k)
		}
		if !movedKey && inArcs {
			t.Fatalf("key %d did not move but a transfer arc claims it", k)
		}
	}
}

// TestPlanDeathUsesSurvivingReplicas: with replication, removing a node
// produces transfers whose sources include survivors — the replica copies
// the failover migration streams from.
func TestPlanDeathUsesSurvivingReplicas(t *testing.T) {
	members := ringMembers(4)
	old := NewRing(5, 64, members)
	dead := members[1]
	next := NewRing(5, 64, append(append([]string{}, members[:1]...), members[2:]...))
	transfers := Plan(old, next, 3)
	if len(transfers) == 0 {
		t.Fatal("empty plan for a death with replicas=3")
	}
	for _, tr := range transfers {
		if tr.Dest == dead {
			t.Fatalf("plan streams into the dead node %q", dead)
		}
		survivors := 0
		for _, s := range tr.Sources {
			if s != dead {
				survivors++
			}
		}
		if survivors == 0 {
			t.Fatalf("transfer to %q has no surviving source (sources %v)", tr.Dest, tr.Sources)
		}
	}
}

func TestArcContainsWraparound(t *testing.T) {
	cases := []struct {
		arc  [2]uint64
		h    uint64
		want bool
	}{
		{[2]uint64{10, 20}, 10, false}, // (from, to] excludes from
		{[2]uint64{10, 20}, 15, true},
		{[2]uint64{10, 20}, 20, true}, // includes to
		{[2]uint64{10, 20}, 21, false},
		{[2]uint64{^uint64(0) - 5, 5}, ^uint64(0), true}, // wraps through zero
		{[2]uint64{^uint64(0) - 5, 5}, 0, true},
		{[2]uint64{^uint64(0) - 5, 5}, 6, false},
		{[2]uint64{7, 7}, 123, true}, // degenerate arc covers the circle
	}
	for _, c := range cases {
		if got := arcContains(c.arc, c.h); got != c.want {
			t.Errorf("arcContains(%v, %d) = %v, want %v", c.arc, c.h, got, c.want)
		}
	}
}

// TestRingReplicaTable pins the router's swap-time replica table to
// ReplicasAt, at every point boundary.
func TestRingReplicaTable(t *testing.T) {
	for _, c := range []struct{ members, vnodes, replicas int }{
		{1, 1, 2}, {1, 64, 1}, {3, 64, 2}, {5, 32, 3}, {70, 16, 3}, {300, 64, 2},
	} {
		r := NewRing(5, c.vnodes, ringMembers(c.members))
		probes := []uint64{0, 1, ^uint64(0), ^uint64(0) - 1}
		for _, p := range r.points {
			probes = append(probes, p.pos-1, p.pos, p.pos+1)
		}
		x := uint64(c.members)
		for i := 0; i < 2000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			probes = append(probes, x)
		}
		table, stride := r.replicaTable(c.replicas)
		if stride != min(c.replicas, c.members) {
			t.Fatalf("%+v: stride %d", c, stride)
		}
		for _, h := range probes {
			got := r.ceil(h)
			reps := r.ReplicasAt(h, c.replicas)
			row := table[got*stride : (got+1)*stride]
			for j, id := range reps {
				if r.members[row[j]] != id {
					t.Fatalf("%+v: table row for %#x = %v, ReplicasAt = %v", c, h, row, reps)
				}
			}
		}
	}
	if got := NewRing(5, 64, nil).ceil(12345); got != 0 {
		t.Fatalf("empty ring ceil = %d", got)
	}
}

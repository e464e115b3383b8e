package netproto

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/policy"
)

func engineOp(k, v uint64) engine.Op {
	return engine.Op{Key: k, Value: v, Token: policy.NoToken}
}

func TestMemberDigestRoundTrip(t *testing.T) {
	in := []MemberDigest{
		{ID: "node-a", UDPAddr: "10.0.0.1:7000", TCPAddr: "10.0.0.1:7001", Status: MemberAlive, Incarnation: 0},
		{ID: "node-b", Status: MemberSuspect, Incarnation: 3},
		{ID: "node-c", UDPAddr: "x", TCPAddr: "y", Status: MemberDead, Incarnation: ^uint64(0)},
		{ID: "node-d", Status: MemberLeft, Incarnation: 1},
	}
	buf, err := appendMemberDigests(make([]byte, 0, packetBufSize), in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := parseMemberDigests(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestMemberDigestEmptyAndTruncated(t *testing.T) {
	buf, err := appendMemberDigests(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := parseMemberDigests(buf); err != nil || len(out) != 0 {
		t.Fatalf("empty digest list = (%v, %v)", out, err)
	}
	full, err := appendMemberDigests(nil, []MemberDigest{{ID: "node", UDPAddr: "u", TCPAddr: "t", Incarnation: 9}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		if _, err := parseMemberDigests(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes parsed successfully", cut, len(full))
		}
	}
}

func TestMemberDigestOverflowRejected(t *testing.T) {
	long := make([]MemberDigest, MaxGossipEntries)
	for i := range long {
		long[i] = MemberDigest{
			ID:      fmt.Sprintf("node-%02d-%s", i, string(make([]byte, 40))),
			UDPAddr: "203.0.113.255:65535",
			TCPAddr: "203.0.113.255:65534",
		}
	}
	if _, err := appendMemberDigests(make([]byte, 0, packetBufSize), long); err == nil {
		t.Fatal("digest list exceeding the datagram bound encoded without error")
	}
}

func TestPairDigestOrderIndependence(t *testing.T) {
	// The arc digest folds with xor, so the pair mix must vary with both key
	// and value and a set's digest must not depend on iteration order.
	if PairDigest(1, 2) == PairDigest(2, 1) {
		t.Fatal("PairDigest symmetric in (key, value)")
	}
	if PairDigest(1, 2) == PairDigest(1, 3) {
		t.Fatal("PairDigest ignores the value")
	}
	var fwd, rev uint64
	for k := uint64(1); k <= 100; k++ {
		fwd ^= PairDigest(k, k*7)
	}
	for k := uint64(100); k >= 1; k-- {
		rev ^= PairDigest(k, k*7)
	}
	if fwd != rev || fwd == 0 {
		t.Fatalf("xor fold not order-independent or degenerate: fwd=%x rev=%x", fwd, rev)
	}
}

// TestNodeGossipExchange runs a digest exchange over the live UDP plane: the
// node's handler merges what the client sends and answers with its own view.
func TestNodeGossipExchange(t *testing.T) {
	eng := newNodeEngine(t)
	nodeView := []MemberDigest{
		{ID: "self", UDPAddr: "u", TCPAddr: "t", Status: MemberAlive, Incarnation: 2},
		{ID: "other", Status: MemberSuspect, Incarnation: 1},
	}
	// The handler runs on the server's reader goroutine (again, if the
	// client retries), so the test reads what it saw under a lock.
	var mu sync.Mutex
	var sawIn []MemberDigest
	s, err := NewNodeServer("127.0.0.1:0", NodeConfig{
		Engine:   eng,
		RingSeed: 7,
		Gossip: func(in []MemberDigest) []MemberDigest {
			mu.Lock()
			sawIn = in
			mu.Unlock()
			return nodeView
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialTestNode(t, s)

	sent := []MemberDigest{{ID: "router-knows", Status: MemberAlive, Incarnation: 4}}
	reply, err := c.Gossip(sent)
	if err != nil {
		t.Fatalf("Gossip: %v", err)
	}
	mu.Lock()
	got := sawIn
	mu.Unlock()
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("handler saw %+v, want %+v", got, sent)
	}
	if !reflect.DeepEqual(reply, nodeView) {
		t.Fatalf("reply = %+v, want the node's view %+v", reply, nodeView)
	}

	// A node with no handler ignores the payload but still answers.
	mute, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: newNodeEngine(t), RingSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	mc := dialTestNode(t, mute)
	if reply, err := mc.Gossip(sent); err != nil || len(reply) != 0 {
		t.Fatalf("mute node gossip = (%v, %v), want empty reply", reply, err)
	}
}

// TestNodeArcDigest compares the TCP-plane digest against a locally computed
// one and checks divergence detection between two nodes.
func TestNodeArcDigest(t *testing.T) {
	const ringSeed = 7
	a, b := newNodeEngine(t), newNodeEngine(t)
	for k := uint64(1); k <= 500; k++ {
		a.Apply(engineOp(k, k*3))
		b.Apply(engineOp(k, k*3))
	}
	sa, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: a, RingSeed: ringSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: b, RingSeed: ringSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	ca, cb := dialTestNode(t, sa), dialTestNode(t, sb)

	whole := [][2]uint64{{0, 0}} // degenerate arc covers the full circle
	da, err := ca.Digest(whole)
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	if da.Pairs != 500 {
		t.Fatalf("digest pairs = %d, want 500", da.Pairs)
	}
	db, err := cb.Digest(whole)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("identical nodes digest differently: %+v vs %+v", da, db)
	}
	// One divergent value must flip the digest.
	b.Apply(engineOp(250, 999))
	if db, err = cb.Digest(whole); err != nil {
		t.Fatal(err)
	}
	if da == db {
		t.Fatal("digest blind to a divergent value")
	}
}

package netproto

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/resilience"
)

// TestServerCloseUnderLoad is the regression test for the close/drain race:
// Close used to tear the socket down before waiting for the reader
// goroutines, so handlers mid-resolve lost their replies. With the drain
// order every query the server read gets its reply out before the conn
// closes, so queries == replies must hold exactly.
func TestServerCloseUnderLoad(t *testing.T) {
	const items = 1000
	srv, err := NewServer("127.0.0.1:0", items)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.DialUDP("udp", nil, srv.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			key := uint64(g * 251)
			for {
				select {
				case <-stop:
					return
				default:
				}
				msg := Message{Type: MsgQuery, Key: key%items + 1}
				key++
				_, _ = conn.Write(msg.Marshal())
			}
		}(g)
	}

	// Let traffic build, then close mid-stream.
	time.Sleep(30 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close under load: %v", err)
	}
	close(stop)
	wg.Wait()

	st := srv.Stats()
	if st.Queries == 0 {
		t.Fatal("no queries reached the server before Close — test proves nothing")
	}
	if st.Replies != st.Queries {
		t.Fatalf("Close dropped in-flight replies: queries=%d replies=%d", st.Queries, st.Replies)
	}
}

// TestSwitchWarmRestart snapshots a warm switch cache and restores it into a
// fresh switch of the same geometry: the restart comes back with a non-empty
// cache whose indexes still resolve to correct values (no stale serving).
func TestSwitchWarmRestart(t *testing.T) {
	const items = 500
	srv, err := NewServer("127.0.0.1:0", items)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sw1, err := NewSwitch(SwitchConfig{
		ServerAddr: srv.Addr(), Policy: seriesSpec(2, 64), Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl1, err := NewClient(sw1.Addr(), ClientConfig{Items: items, Skew: 1.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := cl1.Run(1500)
	cl1.Close()
	if st.Queries == 0 || st.Invalid > 0 {
		t.Fatalf("warm-up run: %+v", st)
	}
	if sw1.CacheLen() == 0 {
		t.Fatal("warm-up left the cache empty")
	}

	var snap bytes.Buffer
	if err := sw1.Snapshot(&snap); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := sw1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// "Restart": same levels/units/seed/shards, restored before traffic.
	sw2, err := NewSwitch(SwitchConfig{
		ServerAddr: srv.Addr(), Policy: seriesSpec(2, 64), Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Close()
	restored, err := sw2.RestoreSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	// Restore is best-effort for a series cache (everything re-enters at
	// level 1), but it must not come back cold.
	if restored == 0 || sw2.CacheLen() == 0 {
		t.Fatalf("restore came back cold: restored=%d CacheLen=%d", restored, sw2.CacheLen())
	}

	// Collect resident keys first — querying inside Range would have the
	// reply path mutate the shard being iterated.
	var resident []uint64
	sw2.Engine().Range(func(k, v uint64) bool {
		if len(resident) < 20 {
			resident = append(resident, k)
		}
		return len(resident) < 20
	})

	cl2, err := NewClient(sw2.Addr(), ClientConfig{Items: items, Skew: 1.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	hits := 0
	for _, k := range resident {
		res, err := cl2.Query(k)
		if err != nil {
			t.Fatalf("post-restart Query(%d): %v", k, err)
		}
		if !res.Valid {
			t.Fatalf("restored index for key %d served a wrong value", k)
		}
		if res.Cached {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no warm hits after restore — restart came back cold")
	}
}

// TestServerShedderAndHealth drives the server's admission control and its
// readiness probe through the degradation ladder.
func TestServerShedderAndHealth(t *testing.T) {
	sh := resilience.NewShedder(resilience.ShedderConfig{TargetLatency: time.Millisecond, Alpha: 1})
	srv, err := NewServer("127.0.0.1:0", 100, ServerWithShedder(sh))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := srv.Health().Ready(); err != nil {
		t.Fatalf("idle server unready: %v", err)
	}

	conn, err := net.DialUDP("udp", nil, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	query := func() (replied bool) {
		if _, err := conn.Write((&Message{Type: MsgQuery, Key: 1}).Marshal()); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64*1024)
		_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		_, err := conn.Read(buf)
		return err == nil
	}

	if !query() {
		t.Fatal("healthy server did not reply")
	}

	// Saturate the latency EWMA: pressure 1 sheds everything and the
	// readiness probe goes unready.
	sh.Observe(50 * time.Millisecond)
	if err := srv.Health().Ready(); err == nil {
		t.Fatal("saturated server still reports ready")
	}
	if query() {
		t.Fatal("saturated server replied — query was not shed")
	}
	if srv.Stats().Shed == 0 {
		t.Fatal("shed counter did not move")
	}

	// Recovery: pressure collapses, admission and readiness return.
	sh.Observe(0)
	if err := srv.Health().Ready(); err != nil {
		t.Fatalf("recovered server unready: %v", err)
	}
	if !query() {
		t.Fatal("recovered server did not reply")
	}
	st := srv.Stats()
	if st.Replies+st.Shed != st.Queries {
		t.Fatalf("accounting: queries=%d replies=%d shed=%d", st.Queries, st.Replies, st.Shed)
	}
}

// TestSwitchDropsReplyWithBadLevel sends every server-facing socket of the
// switch a reply whose cached_flag names a series level its cache does not
// have. The series reply path panics on such a level, so the switch must
// drop the datagram at decode — unapplied, like any undecodable one — and
// keep serving the query/reply round trip.
func TestSwitchDropsReplyWithBadLevel(t *testing.T) {
	_, sw := startStack(t, 1000, 2, 64)
	const badKey = 4242
	buf := make([]byte, packetBufSize)
	n := PutReply(buf, 200, badKey, 7, nil)
	for _, sc := range sw.serverConns {
		conn, err := net.DialUDP("udp", nil, sc.UDP().LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf[:n]); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	// Every reader has taken its bad reply off the socket once the
	// switch's receive count covers them.
	deadline := time.Now().Add(5 * time.Second)
	for sw.Stats().RecvPackets < int64(len(sw.serverConns)) {
		if time.Now().After(deadline) {
			t.Fatalf("switch read %d of %d bad replies", sw.Stats().RecvPackets, len(sw.serverConns))
		}
		time.Sleep(time.Millisecond)
	}

	cl, err := NewClient(sw.Addr(), ClientConfig{Items: 1000, Skew: 1.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, wantCached := range []bool{false, true} {
		res, err := cl.Query(42)
		if err != nil {
			t.Fatalf("query %d after the bad reply: %v", i, err)
		}
		if res.Cached != wantCached || !res.Valid {
			t.Fatalf("query %d after the bad reply: cached=%v valid=%v, want cached=%v valid", i, res.Cached, res.Valid, wantCached)
		}
	}
	if _, _, ok := sw.Engine().Query(badKey); ok {
		t.Fatal("the bad reply was applied to the cache")
	}
}

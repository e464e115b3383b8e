package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/kvindex"
	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/netproto/batchio"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/trace"
)

const (
	// wireItems is the kvindex database size behind the server.
	wireItems = 1_000_000
	// wireSkew is the Zipf exponent of the query keys: the closest
	// admissible skew to YCSB's 0.9 (see trace.ZipfKeys).
	wireSkew = 1.1
	// wireRate is the offered load in queries per second: well below the
	// loopback stack's knee on a 2-vCPU host (20k–40k q/s), and still below
	// it when a contended host takes most of a CPU away (8k q/s then
	// queues).
	wireRate = 4000

	// wireCacheBytes sizes the switch's series P4LRU3 cache for a mid-range
	// hit ratio on wireSkew over wireItems.
	wireCacheBytes = 64 * 1024
	// wireWarm is the number of untimed queries that fill the cache.
	wireWarm = 30_000
	// wireGrace is how long replies are awaited after the last send; a
	// query still unanswered then is lost.
	wireGrace = 500 * time.Millisecond
	// wireLagBoundUs bounds the generator's lateness. A latency window in
	// which it sent its p99 query later than this measures the generator,
	// or a host stall that froze it too, rather than the serving path, and
	// is left out of the latency rows. A run whose median query went out
	// later than this is invalid: its latencies would mostly time the
	// generator.
	wireLagBoundUs = 100
	// wireSetups is how many times a run builds the stack to time set-up.
	wireSetups = 5
	// kvValueXor is the kvindex arena contents: key k stores k^kvValueXor.
	kvValueXor = 0xbadc0ffee
)

// wireSpec is the switch's cache: the paper's LruIndex deployment, four
// series-connected P4LRU3 levels.
func wireSpec(seed int64) policy.Spec {
	return policy.Spec{Kind: policy.KindSeries, MemBytes: wireCacheBytes, Levels: 4, UnitCap: 3, Seed: uint64(seed)}
}

// wireStack is the §3.2 deployment on loopback plus the generator socket.
type wireStack struct {
	srv      *netproto.Server
	sw       *netproto.Switch
	conn     *batchio.Conn
	swTrace  *span.Tracer // nil unless traced
	srvTrace *span.Tracer
}

func newWireStack(seed int64, traced bool) (*wireStack, error) {
	st := &wireStack{}
	var srvOpts []netproto.ServerOption
	if traced {
		st.srvTrace = span.New(span.Config{Shards: 1, RingSize: 1 << 16, SampleN: 1})
		srvOpts = append(srvOpts, netproto.ServerWithSpan(st.srvTrace))
	}
	srv, err := netproto.NewServer("127.0.0.1:0", wireItems, srvOpts...)
	if err != nil {
		return nil, err
	}
	st.srv = srv
	shards := runtime.GOMAXPROCS(0)
	if traced {
		st.swTrace = span.New(span.Config{Shards: shards, RingSize: 1 << 15, SampleN: 1})
	}
	sw, err := netproto.NewSwitch(netproto.SwitchConfig{
		ServerAddr: srv.Addr(),
		Policy:     wireSpec(seed),
		Shards:     shards,
		Span:       st.swTrace,
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	st.sw = sw
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		st.close()
		return nil, err
	}
	// The generator's one receive socket must not be where a stalled host
	// drops replies: give it the largest buffer the kernel allows.
	_ = uc.SetReadBuffer(4 << 20) // best-effort: the kernel caps it at rmem_max
	if st.conn, err = batchio.NewConn(uc); err != nil {
		uc.Close()
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *wireStack) close() {
	if st.conn != nil {
		st.conn.Close()
	}
	if st.sw != nil {
		st.sw.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
}

// warm fills the switch cache with untimed, pipelined queries, checking
// every reply; a query the client's retries could not answer is lost.
func (st *wireStack) warm(keys []uint64) (lost, wrong int64, err error) {
	c, err := netproto.NewClient(st.sw.Addr(), netproto.ClientConfig{Items: wireItems, Batch: 64})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	res := make([]netproto.QueryResult, len(keys))
	if _, err := c.QueryBatch(keys, res); err != nil {
		return 0, 0, err
	}
	for i, r := range res {
		switch {
		case r.Key == 0:
			lost++
		case r.Key != keys[i] || !r.Valid || r.Index != kvIndex(keys[i]):
			wrong++
		}
	}
	return lost, wrong, nil
}

// kvIndex is the arena offset kvindex.NewServer stores key k at.
func kvIndex(k uint64) uint64 { return (k - 1) * kvindex.ValueSize }

// checkReply reports whether a reply carries key's stored value and index.
func checkReply(m *netproto.Message, key uint64) bool {
	return m.Type == netproto.MsgReply && m.Key == key && len(m.Value) >= 8 &&
		binary.LittleEndian.Uint64(m.Value) == key^kvValueXor && m.CachedIndex == kvIndex(key)
}

// poisson returns the send schedule of an open loop at rate per second over
// d: exponential gaps, in ns from the start.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []int64 {
	var out []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(d) {
			return out
		}
		out = append(out, int64(t))
	}
}

// inflight matches replies to queries: per key, a FIFO of outstanding query
// indices (a key may be in flight several times under Zipf).
type inflight struct {
	mu         sync.Mutex
	head, tail map[uint64]int32
	next       []int32
}

func newInflight(n int) *inflight {
	f := &inflight{head: map[uint64]int32{}, tail: map[uint64]int32{}, next: make([]int32, n)}
	return f
}

func (f *inflight) push(i int32, key uint64) {
	f.next[i] = -1
	if t, ok := f.tail[key]; ok {
		f.next[t] = i
	} else {
		f.head[key] = i
	}
	f.tail[key] = i
}

func (f *inflight) pop(key uint64) int32 {
	h, ok := f.head[key]
	if !ok {
		return -1
	}
	if n := f.next[h]; n >= 0 {
		f.head[key] = n
	} else {
		delete(f.head, key)
		delete(f.tail, key)
	}
	return h
}

// openLoopResult is one open-loop window.
type openLoopResult struct {
	sent, answered, valid, wrong, hits, stray int64

	lat samples // from the scheduled send; lost and wrong queries count as +inf
	rtt samples // from the actual send; lost and wrong queries count as +inf
	lag samples // actual minus scheduled send

	window, cpu time.Duration
}

func (r *openLoopResult) lost() int64 { return r.sent - r.answered }

// openLoop sends keys[i] at sched[i] from one socket and matches replies on
// a second goroutine. The sender holds its OS thread and sleeps on the
// kernel's high-resolution timer; each wake-up sends every query already
// due in one batched send, so a late wake-up delays queries but never
// spreads them out further.
func (st *wireStack) openLoop(keys []uint64, sched []int64, window time.Duration) openLoopResult {
	n := len(sched)
	res := openLoopResult{window: window}
	sent := make([]int64, n)
	answeredAt := make([]int64, n)
	okFlag := make([]bool, n)
	fl := newInflight(n)
	swAddr := st.sw.Addr().AddrPort()

	var genDone atomic.Bool
	var sentTotal atomic.Int64
	recvDone := make(chan struct{})
	var wrong, hits, stray, answered int64

	cpu0 := cpuTime()
	base := time.Now()
	go func() {
		defer close(recvDone)
		ring := batchio.NewRing(64, 2048)
		var msg netproto.Message
		for {
			_ = st.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			got, err := st.conn.ReadBatch(ring)
			now := since(base)
			if err != nil {
				var ne net.Error
				if !errors.As(err, &ne) || !ne.Timeout() {
					return
				}
			}
			ds := ring.Datagrams()
			for j := 0; j < got; j++ {
				if msg.Unmarshal(ds[j].Bytes()) != nil {
					stray++
					continue
				}
				fl.mu.Lock()
				i := fl.pop(msg.Key)
				fl.mu.Unlock()
				if i < 0 {
					stray++ // a reply nobody is waiting for
					continue
				}
				answered++
				answeredAt[i] = now
				if checkReply(&msg, keys[i]) {
					okFlag[i] = true
					if msg.CachedFlag != 0 {
						hits++
					}
				} else {
					wrong++
				}
			}
			if genDone.Load() {
				if answered >= sentTotal.Load() || time.Duration(now) > window+wireGrace {
					return
				}
			}
		}
	}()

	func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setTimerSlack()
		ring := batchio.NewRing(64, 64)
		ds := ring.Datagrams()
		for i := 0; i < n; {
			now := since(base)
			if d := sched[i] - now; d > 0 {
				preciseSleep(time.Duration(d))
				continue
			}
			j := i
			for j < n && j-i < len(ds) && sched[j] <= now {
				d := &ds[j-i]
				d.N = netproto.PutQuery(d.Buf, keys[j])
				d.Addr = swAddr
				j++
			}
			ts := since(base)
			fl.mu.Lock()
			for k := i; k < j; k++ {
				sent[k] = ts
				fl.push(int32(k), keys[k])
			}
			fl.mu.Unlock()
			if _, err := st.conn.WriteBatch(ring, j-i); err != nil {
				break // the queries stay unanswered and count as lost
			}
			sentTotal.Add(int64(j - i))
			i = j
		}
	}()
	genDone.Store(true)
	<-recvDone
	res.cpu = cpuTime() - cpu0

	res.sent = sentTotal.Load()
	res.answered, res.wrong, res.hits, res.stray = answered, wrong, hits, stray
	res.lat = make(samples, 0, res.sent)
	res.rtt = make(samples, 0, res.sent)
	res.lag = make(samples, 0, res.sent)
	for i := 0; i < int(res.sent); i++ {
		res.lag = append(res.lag, sent[i]-sched[i])
		if okFlag[i] {
			res.valid++
			res.lat = append(res.lat, answeredAt[i]-sched[i])
			res.rtt = append(res.rtt, answeredAt[i]-sent[i])
		} else {
			res.lat = append(res.lat, math.MaxInt64)
			res.rtt = append(res.rtt, math.MaxInt64)
		}
	}
	return res
}

// wireInputs is the generated workload: schedule and keys for the timed
// window (two halves in a traced run), plus warm-up keys.
type wireInputs struct {
	warm   []uint64
	keys   [2][]uint64
	sched  [2][]int64
	window [2]time.Duration
}

func genWireInputs(cfg runConfig) wireInputs {
	var in wireInputs
	rng := rand.New(rand.NewSource(cfg.seed))
	halves := 1
	if cfg.trace {
		halves = 2
	}
	for h := 0; h < halves; h++ {
		in.window[h] = time.Duration(cfg.seconds / float64(halves) * 1e9)
		in.sched[h] = poisson(rng, wireRate, in.window[h])
		in.keys[h] = zipfFrom1(wireItems, wireSkew, len(in.sched[h]), cfg.seed*2+int64(h)+1)
	}
	in.warm = zipfFrom1(wireItems, wireSkew, wireWarm, cfg.seed*2+7)
	return in
}

// zipfFrom1 is trace.ZipfKeys shifted onto the stored keys 1..items.
func zipfFrom1(items int, skew float64, count int, seed int64) []uint64 {
	keys := trace.ZipfKeys(items, skew, count, seed)
	for i := range keys {
		keys[i]++
	}
	return keys
}

// setupWire builds (and warms) the stack wireSetups times, timing each, and
// returns the last one still running.
func setupWire(cfg runConfig, in wireInputs, rep *report) (*wireStack, error) {
	var times []float64
	var st *wireStack
	for s := 0; s < wireSetups; s++ {
		if st != nil {
			st.close()
			st = nil
		}
		// Every set-up starts from a collected heap, so whether a GC cycle
		// lands inside the timed set-up does not depend on what ran before.
		runtime.GC()
		t0 := time.Now()
		var err error
		st, err = newWireStack(cfg.seed, cfg.trace)
		if err != nil {
			return nil, fmt.Errorf("wire stack: %w", err)
		}
		lost, wrong, err := st.warm(in.warm)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		rep.account(int64(len(in.warm)), lost+wrong, wrong)
	}
	runtime.GC()
	rep.setupTimes = times
	return st, nil
}

func runWire(cfg runConfig, rep *report) error {
	in := genWireInputs(cfg)
	st, err := setupWire(cfg, in, rep)
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceWire(cfg, in, st, rep)
	}
	r := st.openLoop(in.keys[0], in.sched[0], in.window[0])
	st.close()
	rep.account(r.sent, r.lost()+r.wrong, r.wrong)
	wireValidity(&r, rep)
	rep.set("setup_s", medianF(rep.setupTimes), "s", fmt.Sprintf("median of %d set-ups", len(rep.setupTimes)))
	rep.set("goodput_ops", float64(r.valid)/r.window.Seconds(), "ops/s", fmt.Sprintf("offered %d q/s", wireRate))
	keep, calm := r.calmWindows()
	reportLatency(rep, r.lat, keep, fmt.Sprintf("from scheduled send, %d generator-calm", calm))
	rep.set("hit_ratio", ratio(float64(r.hits), float64(r.valid)), "ratio", "replies with CachedFlag set")
	rep.set("cpu_us_per_op", r.cpu.Seconds()*1e6/float64(r.answered), "us", "process user+sys")
	rep.notef("fail_ratio %.6f (lost %d, wrong %d, of %d sent); p999 %.1f us; gen lag p99 %.1f us",
		ratio(float64(r.lost()+r.wrong), float64(r.sent)), r.lost(), r.wrong, r.sent,
		float64(r.lat.pct(0.999))/1e3, float64(r.lag.pct(0.99))/1e3)
	return nil
}

// calmWindows marks, per window of latWindow consecutive queries, whether
// the generator sent the window's p99 query within wireLagBoundUs of its
// due time, and counts the calm ones. When no window is calm it returns a
// nil mask, so the latency rows fall back to every window (host stalls
// included) rather than to none.
func (r *openLoopResult) calmWindows() (keep []bool, calm int) {
	for lo := 0; lo+latWindow <= len(r.lag); lo += latWindow {
		ok := float64(r.lag[lo:lo+latWindow].pct(0.99)) <= wireLagBoundUs*1e3
		keep = append(keep, ok)
		if ok {
			calm++
		}
	}
	if calm == 0 {
		return nil, 0
	}
	return keep, calm
}

// calmRTT returns the round trips of the answered queries in the calm
// windows (every window when none is calm).
func (r *openLoopResult) calmRTT() samples {
	keep, _ := r.calmWindows()
	var out samples
	for i, v := range r.rtt {
		w := i / latWindow
		if v == math.MaxInt64 || (keep != nil && (w >= len(keep) || !keep[w])) {
			continue
		}
		out = append(out, v)
	}
	return out
}

// wireValidity marks the run invalid when the generator sent its median
// query later than wireLagBoundUs, and counts stray replies as wrong values.
func wireValidity(r *openLoopResult, rep *report) {
	if lag := float64(r.lag.pct(0.5)) / 1e3; lag > wireLagBoundUs {
		rep.invalid = append(rep.invalid, fmt.Sprintf("generator lag p50 %.1f us > bound %d us", lag, wireLagBoundUs))
	}
	if r.stray > 0 {
		rep.wrong += r.stray
		rep.failed += r.stray
	}
}

// traceWire runs an untraced half, then a traced half, closes st, runs the
// isolated layer replays, and prints the per-layer ledger.
func traceWire(cfg runConfig, in wireInputs, st *wireStack, rep *report) error {
	a := st.openLoop(in.keys[0], in.sched[0], in.window[0])
	rep.account(a.sent, a.lost()+a.wrong, a.wrong)
	wireValidity(&a, rep)
	tr := st.tracedRows(in.keys[1], in.sched[1], in.window[1], rep)
	eng := st.sw.Engine()
	occupancy := ratio(float64(eng.Len()), float64(eng.Capacity()))
	drops := eng.Dropped()
	st.close()
	runtime.GC()

	rep.set("gen.sent", float64(a.sent+tr.sent), "count", "both halves")
	rep.set("trace.overhead_ratio", ratio(tr.latP50, float64(a.lat.pct(0.5))), "ratio", "traced/untraced lat_p50")
	rep.set("lat_p999_us", float64(a.lat.pct(0.999))/1e3, "us", fmt.Sprintf("n=%d, untraced half, diagnostic", len(a.lat)))
	rep.set("lat.samples", float64(len(a.lat)), "count", "untraced half")
	rep.set("fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", "lost+wrong+error / attempted")
	rep.set("fail.wrong_values", float64(rep.wrong), "count", "")

	er, err := replayEngine(wireSpec(cfg.seed), runtime.GOMAXPROCS(0), in.keys[1], nil, true)
	if err != nil {
		return err
	}
	er.report(rep, occupancy, float64(drops))
	replayLRU(3, er.capacity, uint64(cfg.seed), in.keys[1], rep)
	zeroRows(rep, "router.", "loader.", "btree.", "writebehind.")
	rep.set("ledger.residual_ratio", ratio(tr.rtt-tr.rows, tr.rtt), "ratio",
		fmt.Sprintf("rtt p50 %.0f ns, rows %.0f ns, tolerance ±%.2f", tr.rtt, tr.rows, ledgerTolerance))
	return nil
}

// wireSubSeconds is how long a cluster workload's traced run drives its own
// keys through the wire stack to price the netproto rows.
const wireSubSeconds = 5

// wireSubRun prices the netproto layer on another workload's key stream:
// one traced wire stack, warmed with the stream's head, driven open-loop at
// wireRate for wireSubSeconds. Keys map onto the database's 1..wireItems.
func wireSubRun(cfg runConfig, keys []uint64, rep *report) error {
	ks := make([]uint64, len(keys))
	for i, k := range keys {
		ks[i] = (k-1)%wireItems + 1
	}
	st, err := newWireStack(cfg.seed, true)
	if err != nil {
		return fmt.Errorf("wire stack: %w", err)
	}
	defer st.close()
	warm := ks[:min(wireWarm, len(ks))]
	lost, wrong, err := st.warm(warm)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	rep.account(int64(len(warm)), lost+wrong, wrong)
	window := wireSubSeconds * time.Second
	sched := poisson(rand.New(rand.NewSource(cfg.seed)), wireRate, window)
	sub := make([]uint64, len(sched))
	for i := range sub {
		sub[i] = ks[(len(warm)+i)%len(ks)]
	}
	st.tracedRows(sub, sched, window, rep)
	return nil
}

// tracedWindow is what a traced open-loop window hands back beyond the
// rows it sets: queries sent, their latency median from the scheduled send,
// and the RTT median with the sum of the rows that should explain it.
type tracedWindow struct {
	sent      int64
	latP50    float64
	rtt, rows float64
}

// tracedRows runs one open-loop window with the switch and server spans on
// and sets the generator, wire, switch, server and codec rows. The rows
// that should explain the RTT are the in-situ switch and server spans, the
// isolated loopback echo for the path's four datagram hops (two echo round
// trips) and the client's decode. Every row is a median, so one host stall does not swamp the
// typical query; what is left over is the wake-up and scheduling delay the
// busy stack adds to each hop.
func (st *wireStack) tracedRows(keys []uint64, sched []int64, window time.Duration, rep *report) tracedWindow {
	sw0, srv0 := st.sw.Stats(), st.srv.Stats()
	st.swTrace.SetEnabled(true)
	st.srvTrace.SetEnabled(true)
	b := st.openLoop(keys, sched, window)
	st.swTrace.SetEnabled(false)
	st.srvTrace.SetEnabled(false)
	sw1, srv1 := st.sw.Stats(), st.srv.Stats()
	rep.account(b.sent, b.lost()+b.wrong, b.wrong)
	wireValidity(&b, rep)
	swQ, swR := spanRows(st.swTrace.Snapshot())
	_, srv := spanRows(st.srvTrace.Snapshot())

	rep.set("gen.lag_p50_us", float64(b.lag.pct(0.50))/1e3, "us", fmt.Sprintf("n=%d", len(b.lag)))
	rep.set("gen.lag_p99_us", float64(b.lag.pct(0.99))/1e3, "us", fmt.Sprintf("n=%d", len(b.lag)))
	_, calm := b.calmWindows()
	rep.set("gen.calm_ratio", ratio(float64(calm), float64(len(b.lag)/latWindow)), "ratio", "latency windows the generator kept on schedule")

	rtts := b.calmRTT()
	rtt := rtts.p50()
	echo := loopbackEcho(4000)
	decode := codecDecodeNS(keys)
	rows := swQ.total.p50() + swR.total.p50() + srv.total.p50() + 2*echo + decode
	rep.set("wire.rtt_p50_us", rtt/1e3, "us", fmt.Sprintf("n=%d, from actual send, generator-calm windows", len(rtts)))
	rep.set("wire.kernel_p50_us", (rtt-swQ.total.p50()-swR.total.p50()-srv.total.p50())/1e3, "us", "rtt p50 minus switch and server rows")
	rep.set("wire.loopback_rtt_us", echo/1e3, "us", "isolated UDP echo, p50")
	rep.set("switch.query_dir_ns", swQ.total.p50(), "ns", fmt.Sprintf("n=%d spans", len(swQ.total)))
	rep.set("switch.query.decode_ns", swQ.stage[0].p50(), "ns", "")
	rep.set("switch.query.lookup_ns", swQ.stage[1].p50(), "ns", "")
	rep.set("switch.query.forward_ns", swQ.stage[2].p50(), "ns", "sendmmsg included")
	rep.set("switch.reply_dir_ns", swR.total.p50(), "ns", fmt.Sprintf("n=%d spans", len(swR.total)))
	rep.set("switch.reply.decode_ns", swR.stage[0].p50(), "ns", "")
	rep.set("switch.reply.apply_ns", swR.stage[1].p50(), "ns", "batched cache mutation")
	rep.set("switch.reply.forward_ns", swR.stage[2].p50(), "ns", "sendmmsg included")
	rep.set("switch.pkts_per_recv", ratio(float64(sw1.RecvPackets-sw0.RecvPackets), float64(sw1.RecvBatches-sw0.RecvBatches)), "ratio", "")
	rep.set("server.span_ns", srv.total.p50(), "ns", fmt.Sprintf("n=%d spans", len(srv.total)))
	rep.set("server.resolve_ns", srv.stage[1].p50(), "ns", "")
	rep.set("server.pkts_per_recv", ratio(float64(srv1.RecvPackets-srv0.RecvPackets), float64(srv1.RecvBatches-srv0.RecvBatches)), "ratio", "")
	rep.set("server.walks_per_query", ratio(float64(srv1.IndexWalks-srv0.IndexWalks), float64(srv1.Queries-srv0.Queries)), "ratio", "")
	rep.set("server.nodes_per_walk", ratio(float64(srv1.NodesWalked-srv0.NodesWalked), float64(srv1.IndexWalks-srv0.IndexWalks)), "ratio", "")
	rep.set("codec.decode_ns", decode, "ns", "Message.Unmarshal, isolated")
	return tracedWindow{sent: b.sent, latP50: float64(b.lat.pct(0.5)), rtt: rtt, rows: rows}
}

// spanRow aggregates span records of one kind: totals and the three stages
// that kind passes through (decode, service, forward).
type spanRow struct {
	total samples
	stage [3]samples
}

// spanRows splits records into the query direction (decode → lookup →
// forward) and the reply direction (decode → apply → forward). The server's
// records are replies: decode → resolve → reply write.
func spanRows(recs []span.Record) (q, r spanRow) {
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case span.KindQuery:
			q.total = append(q.total, rec.Total)
			q.stage[0] = append(q.stage[0], rec.Stages[span.StageDecode])
			q.stage[1] = append(q.stage[1], rec.Stages[span.StageQuery])
			q.stage[2] = append(q.stage[2], rec.Stages[span.StageWire])
		case span.KindReply:
			r.total = append(r.total, rec.Total)
			r.stage[0] = append(r.stage[0], rec.Stages[span.StageDecode])
			r.stage[1] = append(r.stage[1], rec.Stages[span.StageApply])
			r.stage[2] = append(r.stage[2], rec.Stages[span.StageWire])
		}
	}
	return q, r
}

// loopbackEcho is the kernel row measured alone: the median round trip of a
// one-datagram ping through a plain UDP echo goroutine over loopback, the
// same socket path and wake-ups a switch or server hop pays, without their
// work.
func loopbackEcho(n int) float64 {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0
	}
	defer srv.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		for {
			m, addr, err := srv.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			_, _ = srv.WriteToUDPAddrPort(buf[:m], addr)
		}
	}()
	cl, err := net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		srv.Close()
		<-done
		return 0
	}
	defer cl.Close()
	buf := make([]byte, 64)
	var rtts samples
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := cl.Write(buf[:24]); err != nil {
			break
		}
		_ = cl.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if _, err := cl.Read(buf); err != nil {
			continue
		}
		rtts = append(rtts, int64(time.Since(t0)))
	}
	srv.Close()
	<-done
	return rtts.p50()
}

// codecDecodeNS times Message.Unmarshal alone over replies for keys.
func codecDecodeNS(keys []uint64) float64 {
	const n = 4096
	pkts := make([][]byte, n)
	val := make([]byte, kvindex.ValueSize)
	for i := range pkts {
		k := keys[i%len(keys)]
		binary.LittleEndian.PutUint64(val, k^kvValueXor)
		buf := make([]byte, 128)
		m := netproto.PutReply(buf, 1, k, kvIndex(k), val)
		pkts[i] = buf[:m]
	}
	var reps []float64
	var msg netproto.Message
	var sink uint64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for it := 0; it < 100; it++ {
			for _, p := range pkts {
				if msg.Unmarshal(p) == nil {
					sink += msg.Key
				}
			}
		}
		reps = append(reps, float64(time.Since(t0))/float64(100*n))
	}
	if sink == 0 {
		return 0
	}
	return medianF(reps)
}

package netproto

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/hashing"
	"github.com/p4lru/p4lru/internal/netproto/batchio"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/resilience"
)

// Switch is the in-network middlebox: a UDP proxy between clients and the
// server that carries the series-connected P4LRU3 index cache. Query packets
// consult the cache read-only and stamp cached_flag/cached_index; reply
// packets perform the only cache mutations (§3.2's query/update separation).
//
// A hardware pipeline serializes packets per stage but processes one packet
// per clock because every P4LRU unit is independent (§1.2) — and because
// every stage sees a steady stream of packets, not one packet per
// invocation. This software stand-in now has both halves: the sharded
// engine keeps per-shard work disjoint, and the batchio layer moves whole
// recvmmsg/sendmmsg batches of datagrams per syscall, decoded in place in a
// ring of reusable buffers and forwarded by patching the cached fields into
// the original packet bytes — no per-packet allocation, no re-marshal, one
// syscall per batch in each direction. Reply batches decode straight into
// an engine.Op slice and go through ApplyBatch before any reply is
// forwarded, preserving the reply-after-mutation ordering the paper's
// pipeline pass guarantees.
type Switch struct {
	clientConns []*batchio.Conn // face clients (SO_REUSEPORT group on Linux)
	serverConns []*batchio.Conn // face the server, one per reader for reply affinity
	serverAddr  netip.AddrPort

	eng    *engine.Engine
	tracer *span.Tracer
	batch  int
	// levels is the series level count of the cache the switch built (0
	// for unleveled policies): the largest cached_flag it can stamp. A
	// reply carrying a higher flag was not stamped here and is dropped.
	levels int

	// peers routes replies back to the querying client (the role the
	// network's addressing plays on a real switch path). Striped so
	// concurrent readers touching different keys don't share a lock; the
	// values are netip.AddrPort — plain comparable values, so storing one
	// copies it out of the ring slot it was decoded from.
	peers     [peerStripes]peerStripe
	peerHash  hashing.Hash
	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    atomic.Bool

	// Stats.
	queries     atomic.Int64
	hits        atomic.Int64
	recvBatches atomic.Int64
	recvPackets atomic.Int64
}

const peerStripes = 64

type peerStripe struct {
	mu sync.Mutex
	m  map[uint64]netip.AddrPort
}

// packetBufSize is the ring slot size: comfortably above header + value for
// every protocol message, far below the old 64KiB per-read scratch.
const packetBufSize = 2048

// SwitchConfig parameterizes NewSwitch. The zero value plus a ServerAddr is
// a working switch: loopback listener, the default series policy, engine
// shards and reader goroutines sized to the machine.
type SwitchConfig struct {
	// ListenAddr is the client-facing bind address (default "127.0.0.1:0").
	ListenAddr string
	// ServerAddr is where query packets are forwarded. Required.
	ServerAddr *net.UDPAddr
	// Policy declares the cache: kind, memory budget, series shape, seed.
	// The zero value means the default series deployment
	// (series:levels=4,unitcap=3 over policy.DefaultMemBytes). The spec's
	// memory budget is split evenly across the engine shards.
	Policy policy.Spec
	// Shards is the engine shard count (0 = GOMAXPROCS).
	Shards int
	// Readers is the per-direction reader goroutine count (0 = GOMAXPROCS,
	// at least 2, at most 8). On Linux each client-facing reader gets its
	// own SO_REUSEPORT socket.
	Readers int
	// Batch is the datagram ring size — the largest batch one
	// recvmmsg/sendmmsg moves (0 = 64).
	Batch int
	// Obs instruments the switch's engine (per-shard occupancy, queue
	// depth, ops) on the given registry.
	Obs *obs.Registry
	// Span traces both proxy directions and the switch's engine: query
	// packets decompose into decode → cache lookup → forward, reply packets
	// into decode → cache mutation → reply.
	Span *span.Tracer
}

func (c SwitchConfig) withDefaults() SwitchConfig {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.Policy.Kind == "" {
		c.Policy.Kind = policy.KindSeries
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Readers <= 0 {
		c.Readers = runtime.GOMAXPROCS(0)
		if c.Readers < 2 {
			c.Readers = 2
		}
		if c.Readers > 8 {
			c.Readers = 8
		}
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	return c
}

// NewSwitch starts a switch from cfg: engine built from cfg.Policy,
// cfg.Readers batched reader loops per direction.
func NewSwitch(cfg SwitchConfig) (*Switch, error) {
	cfg = cfg.withDefaults()
	if cfg.ServerAddr == nil {
		return nil, fmt.Errorf("netproto: SwitchConfig.ServerAddr is required")
	}

	clientUDP, err := batchio.ListenReuse(cfg.ListenAddr, cfg.Readers)
	if err != nil {
		return nil, fmt.Errorf("netproto: listen client side: %w", err)
	}
	closeAll := func(conns []*net.UDPConn) {
		for _, c := range conns {
			c.Close()
		}
	}
	var serverUDP []*net.UDPConn
	for i := 0; i < cfg.Readers; i++ {
		// One server-facing socket per reader: the reply to a query
		// forwarded on socket i comes back to socket i, so reply batches
		// keep per-reader affinity without any demux map.
		uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			closeAll(clientUDP)
			closeAll(serverUDP)
			return nil, fmt.Errorf("netproto: listen server side: %w", err)
		}
		serverUDP = append(serverUDP, uc)
	}

	eng, err := engine.NewFromSpec(cfg.Policy, engine.Config{
		Shards: cfg.Shards,
		Obs:    cfg.Obs,
		Span:   cfg.Span,
	})
	if err != nil {
		closeAll(clientUDP)
		closeAll(serverUDP)
		return nil, fmt.Errorf("netproto: engine: %w", err)
	}

	sw := &Switch{
		serverAddr: unmap(cfg.ServerAddr.AddrPort()),
		eng:        eng,
		tracer:     cfg.Span,
		batch:      cfg.Batch,
		levels:     cfg.Policy.SeriesLevels(),
		peerHash:   hashing.New(cfg.Policy.Seed ^ 0x9ee2),
	}
	for i := range sw.peers {
		sw.peers[i].m = make(map[uint64]netip.AddrPort)
	}
	for _, uc := range clientUDP {
		bc, err := batchio.NewConn(uc)
		if err != nil {
			sw.closeConns()
			closeAll(serverUDP)
			eng.Close()
			return nil, fmt.Errorf("netproto: client conn: %w", err)
		}
		sw.clientConns = append(sw.clientConns, bc)
	}
	for _, uc := range serverUDP {
		bc, err := batchio.NewConn(uc)
		if err != nil {
			sw.closeConns()
			eng.Close()
			return nil, fmt.Errorf("netproto: server conn: %w", err)
		}
		sw.serverConns = append(sw.serverConns, bc)
	}

	sw.wg.Add(2 * cfg.Readers)
	for i := 0; i < cfg.Readers; i++ {
		// Portable builds get one client socket; readers share it (the
		// per-datagram reads are concurrency-safe).
		cc := sw.clientConns[i%len(sw.clientConns)]
		sc := sw.serverConns[i]
		go sw.clientLoop(cc, sc)
		go sw.serverLoop(sc, cc)
	}
	return sw, nil
}

// unmap normalizes v4-in-v6 so AddrPort values compare equal regardless of
// which socket family produced them.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

func (sw *Switch) closeConns() {
	for _, c := range sw.clientConns {
		c.Close()
	}
	for _, c := range sw.serverConns {
		c.Close()
	}
}

// Addr returns the client-facing address.
func (sw *Switch) Addr() *net.UDPAddr {
	return sw.clientConns[0].UDP().LocalAddr().(*net.UDPAddr)
}

// Engine exposes the serving engine (shard routing and stats, for tests and
// observability wiring).
func (sw *Switch) Engine() *engine.Engine { return sw.eng }

// SwitchStats is one consistent-enough snapshot of the switch's serving
// counters — the single accessor that replaced the scattered tuple getters.
type SwitchStats struct {
	Queries     int64 // query packets decoded
	Hits        int64 // queries answered from the index cache
	CacheLen    int   // cached indexes across all engine shards
	RecvBatches int64 // batched reads (both directions)
	RecvPackets int64 // datagrams those reads carried
	Batched     bool  // this build moves multi-datagram batches per syscall
}

// Batched reports whether this build moves multi-datagram batches per
// syscall (recvmmsg/sendmmsg) or falls back to one datagram per syscall.
func Batched() bool { return batchio.Batched() }

// HitRate returns Hits/Queries (0 when idle).
func (st SwitchStats) HitRate() float64 {
	if st.Queries == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Queries)
}

// Stats snapshots the switch counters.
func (sw *Switch) Stats() SwitchStats {
	return SwitchStats{
		Queries:     sw.queries.Load(),
		Hits:        sw.hits.Load(),
		CacheLen:    sw.eng.Len(),
		RecvBatches: sw.recvBatches.Load(),
		RecvPackets: sw.recvPackets.Load(),
		Batched:     batchio.Batched(),
	}
}

// CacheLen returns the number of cached indexes across all shards.
func (sw *Switch) CacheLen() int { return sw.eng.Len() }

// Snapshot writes the cached (key, index) pairs in the engine's versioned
// snapshot format, so a restarting switch can come back warm instead of
// re-walking the index for every popular key.
func (sw *Switch) Snapshot(w io.Writer) error { return sw.eng.Snapshot(w) }

// RestoreSnapshot loads a Snapshot image into the cache through the normal
// insert path. The restore is best-effort by design: series levels are not
// preserved (every key re-enters at level 1 and re-earns promotion), and a
// snapshot larger than the cache admits only what the policy keeps.
func (sw *Switch) RestoreSnapshot(r io.Reader) (int, error) {
	return sw.eng.RestoreSnapshot(r)
}

// Health returns a probe aggregator wired to the switch's engine: the
// switch goes unready if a shard writer stalls or once Close begins.
func (sw *Switch) Health() *resilience.Health {
	h := resilience.NewHealth()
	h.Register("engine", sw.eng.Healthy)
	h.Register("shutdown", func() error {
		if sw.closed.Load() {
			return errors.New("netproto: switch shutting down")
		}
		return nil
	})
	return h
}

// Close stops both proxy directions and the engine, draining in-flight
// packet handling first: read deadlines kick blocked readers, the wait lets
// handlers finish their cache mutations and forwards, and only then do the
// sockets close. See Server.Close for why the old close-then-wait order
// lost replies.
func (sw *Switch) Close() error {
	var firstErr error
	sw.closeOnce.Do(func() {
		sw.closed.Store(true)
		now := time.Now()
		for _, c := range sw.clientConns {
			_ = c.SetReadDeadline(now)
		}
		for _, c := range sw.serverConns {
			_ = c.SetReadDeadline(now)
		}
		sw.wg.Wait()
		for _, c := range sw.clientConns {
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		for _, c := range sw.serverConns {
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sw.eng.Close()
	})
	return firstErr
}

func (sw *Switch) peerStripeFor(key uint64) *peerStripe {
	return &sw.peers[sw.peerHash.Index(key, peerStripes)]
}

// clientLoop handles the query direction: client → (cache lookup) → server.
// One recvmmsg drains a batch of query packets; each is decoded in place,
// consulted against its home shard, stamped by patching cached_flag and
// cached_index into the original bytes, and retargeted at the server; one
// sendmmsg forwards the surviving batch. Malformed packets are dropped by
// compacting keepers to the front of the ring.
func (sw *Switch) clientLoop(cc, sc *batchio.Conn) {
	defer sw.wg.Done()
	ring := batchio.NewRing(sw.batch, packetBufSize)
	spans := make([]span.Span, sw.batch)
	for {
		got, err := cc.ReadBatch(ring)
		if err != nil {
			if sw.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		sw.recvBatches.Add(1)
		sw.recvPackets.Add(int64(got))
		ds := ring.Datagrams()
		keep := 0
		for i := 0; i < got; i++ {
			d := &ds[i]
			sp := sw.tracer.Start(0, 0)
			var msg Message
			if err := msg.Unmarshal(d.Bytes()); err != nil || msg.Type != MsgQuery {
				continue
			}
			sp.SetKey(msg.Key)
			sp.Mark(span.StageDecode)
			sw.queries.Add(1)

			// Read-only cache consult on the key's home shard; stamp the
			// header fields straight into the packet bytes.
			idx, tok, ok := sw.eng.QuerySpanned(msg.Key, &sp)
			st := sw.peerStripeFor(msg.Key)
			st.mu.Lock()
			st.m[msg.Key] = d.Addr
			st.mu.Unlock()
			if ok {
				sw.hits.Add(1)
				sp.SetFlags(span.FlagHit)
				PatchCached(d.Bytes(), uint8(tok.Level()), idx)
			} else {
				PatchCached(d.Bytes(), 0, 0)
			}
			d.Addr = sw.serverAddr
			if keep != i {
				ring.Swap(keep, i)
			}
			spans[keep] = sp
			keep++
		}
		if keep == 0 {
			continue
		}
		_, werr := sc.WriteBatch(ring, keep)
		for i := 0; i < keep; i++ {
			spans[i].Mark(span.StageWire)
			spans[i].Finish(span.KindQuery)
		}
		if werr != nil && sw.closed.Load() {
			return
		}
	}
}

// serverLoop handles the reply direction: server → (cache update) → client.
// A reply batch decodes straight into an engine.Op slice; the whole slice
// goes through the synchronous ApplyBatch — one lock visit per shard — and
// only then is the batch forwarded to the querying clients, so a reply
// leaves the switch strictly after its mutation, exactly the ordering the
// paper's reply pipeline pass guarantees per packet.
func (sw *Switch) serverLoop(sc, cc *batchio.Conn) {
	defer sw.wg.Done()
	ring := batchio.NewRing(sw.batch, packetBufSize)
	spans := make([]span.Span, sw.batch)
	addrs := make([]netip.AddrPort, sw.batch)
	ops := make([]engine.Op, 0, sw.batch)
	for {
		got, err := sc.ReadBatch(ring)
		if err != nil {
			if sw.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		sw.recvBatches.Add(1)
		sw.recvPackets.Add(int64(got))
		ds := ring.Datagrams()
		keep := 0
		ops = ops[:0]
		for i := 0; i < got; i++ {
			d := &ds[i]
			sp := sw.tracer.Start(0, 0)
			var msg Message
			// A reply naming a level the cache does not have would make
			// the series reply path panic; drop it like an undecodable
			// datagram, unapplied and unforwarded.
			if err := msg.Unmarshal(d.Bytes()); err != nil || msg.Type != MsgReply || int(msg.CachedFlag) > sw.levels {
				continue
			}
			sp.SetKey(msg.Key)
			sp.SetShard(sw.eng.ShardFor(msg.Key))
			sp.Mark(span.StageDecode)

			ops = append(ops, engine.Op{
				Key:   msg.Key,
				Value: msg.CachedIndex,
				Token: policy.Token(msg.CachedFlag),
			})
			st := sw.peerStripeFor(msg.Key)
			st.mu.Lock()
			peer := st.m[msg.Key]
			st.mu.Unlock()
			if keep != i {
				ring.Swap(keep, i)
			}
			spans[keep] = sp
			addrs[keep] = peer
			keep++
		}
		if len(ops) > 0 {
			// The reply path performs the only cache mutations: promote each
			// key at its level, or insert at level 1 and cascade demotions.
			sw.eng.ApplyBatch(ops)
		}
		for i := 0; i < keep; i++ {
			spans[i].Mark(span.StageApply)
		}
		// Second compaction: replies whose querying peer is unknown (e.g. a
		// restarted switch seeing a stale reply) still applied their ops
		// above but have nowhere to go.
		send := 0
		for i := 0; i < keep; i++ {
			if !addrs[i].IsValid() {
				continue
			}
			ds[i].Addr = addrs[i]
			if send != i {
				ring.Swap(send, i)
			}
			spans[send] = spans[i]
			send++
		}
		if send == 0 {
			continue
		}
		_, werr := cc.WriteBatch(ring, send)
		for i := 0; i < send; i++ {
			spans[i].Mark(span.StageWire)
			spans[i].Finish(span.KindReply)
		}
		if werr != nil && sw.closed.Load() {
			return
		}
	}
}

package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/resilience"
)

// ErrNoNodes reports an operation against a router whose ring is empty.
var ErrNoNodes = errors.New("cluster: ring has no nodes")

// ErrHinted reports an update whose owner was unreachable: the write was
// parked in the hint log for replay when the owner (or its successor)
// recovers. It is acceptance at reduced durability, not an ack — the value
// is not resident anywhere yet.
var ErrHinted = errors.New("cluster: owner unreachable; update parked as hint")

// ErrDegraded reports a miss-path load shed while the router is partitioned
// away from the ring majority: serving local arcs stays correct, but
// re-loading every unreachable arc's key from the backing store would hand
// the origin the full remote working set at the worst possible moment.
var ErrDegraded = errors.New("cluster: degraded (minority partition); remote-miss load shed")

// Config parameterizes New. The zero value gets sane defaults.
type Config struct {
	// Seed derives the ring-position hash and vnode placement. Every router
	// and NodeServer in one cluster must share it.
	Seed uint64
	// VNodes is the virtual nodes per member (0 = 64). More vnodes smooth
	// ownership imbalance at the cost of a deeper membership-change plan.
	VNodes int
	// Replicas is the total copy count for hot keys, owner included
	// (0 or 1 = no replication).
	Replicas int
	// HotK is how many top keys the CU-sketch tracker promotes to the
	// replicated hot set (0 = 128; negative disables hot tracking, and with
	// it replication fan-out).
	HotK int
	// Breaker parameterizes the per-peer circuit breakers. Name is
	// overridden per peer; Obs defaults to Config.Obs.
	Breaker resilience.BreakerConfig
	// HeartbeatEvery is the ping cadence of the failure detector
	// (0 = 250ms; negative disables the loop — membership then changes only
	// through explicit Join/Leave/Fail calls).
	HeartbeatEvery time.Duration
	// DualReadFor is how long after a membership swap a miss in a moved arc
	// retries the arc's previous holder (0 = 2s). It must comfortably cover
	// a migration stream's duration.
	DualReadFor time.Duration
	// Gossip enables SWIM-style membership: each heartbeat tick exchanges
	// versioned digests with one rotating peer, joins learned members
	// through Resolver, and runs failures through the suspect → dead
	// pipeline (with refutation) instead of failing a member the moment its
	// breaker opens. Off, membership changes only through explicit
	// Join/Leave/Fail plus the legacy breaker-open auto-fail.
	Gossip bool
	// SuspectAfter is how long a member stays suspect before this router
	// confirms it dead and removes it (0 = 4×HeartbeatEvery, or 1s when the
	// heartbeat loop is disabled). A suspect whose breaker re-closes within
	// the window is refuted back to alive at a higher incarnation.
	SuspectAfter time.Duration
	// Resolver dials a peer handle for a member learned through gossip.
	// nil = DialNode on the digest's advertised addresses (address-less
	// digests are skipped). Handles the router resolves itself are owned by
	// the router and closed when the member is pruned.
	Resolver func(netproto.MemberDigest) (Peer, error)
	// RepairQueue bounds the read-repair queue (0 = 256; negative disables
	// read repair and the digest sweep).
	RepairQueue int
	// RepairRate caps repair installs per second (0 = 128).
	RepairRate int
	// RepairSweepEvery is the anti-entropy digest sweep cadence over the
	// published hot set (0 = 2s; negative disables the sweep, leaving only
	// read-path repair).
	RepairSweepEvery time.Duration
	// HintCap bounds each peer's hinted-handoff log (0 = 1024 parked
	// updates; negative disables hinted handoff — updates to unreachable
	// owners then fail outright as before).
	HintCap int
	// Shedder, when non-nil, arbitrates remote-miss loads while the router
	// is degraded (majority of peers unreachable): GetOrLoad sheds them at
	// PriLow instead of stampeding the backing store. nil sheds them all.
	Shedder *resilience.Shedder
	// Obs, when non-nil, receives the cluster_* metrics.
	Obs *obs.Registry
	// Span, when non-nil, records one KindMigrate span per executed
	// range transfer (StageFetch = pull open, StageApply = push+restore).
	Span *span.Tracer
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.HotK == 0 {
		c.HotK = 128
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.DualReadFor <= 0 {
		c.DualReadFor = 2 * time.Second
	}
	if c.SuspectAfter <= 0 {
		if c.HeartbeatEvery > 0 {
			c.SuspectAfter = 4 * c.HeartbeatEvery
		} else {
			c.SuspectAfter = time.Second
		}
	}
	if c.RepairQueue == 0 {
		c.RepairQueue = 256
	}
	if c.RepairRate <= 0 {
		c.RepairRate = 128
	}
	if c.RepairSweepEvery == 0 {
		c.RepairSweepEvery = 2 * time.Second
	}
	if c.HintCap == 0 {
		c.HintCap = 1024
	}
	if c.Breaker.Obs == nil {
		c.Breaker.Obs = c.Obs
	}
	return c
}

// dualWindow marks a set of hash arcs that recently changed hands: until
// the deadline, a read miss inside the arcs retries source (the previous
// holder) and re-installs hits at the new owner. Windows ride the immutable
// ringState, so the query path reads them without locks.
type dualWindow struct {
	arcs   [][2]uint64
	source string
	until  time.Time
}

// ringState is the router's atomically-swapped view of the cluster: the
// ring, the peer handles (including tombstones — departed members kept
// reachable while a dual-read window still points at them), and the active
// windows. The remaining fields are member-indexed tables built once per
// swap, so the per-op path routes by integer index and never touches a
// string map:
//
//   - peerArr, local and brkArr mirror peers and the peer gate, aligned with
//     ring.Members(). local[i] is peerArr[i] devirtualized when it is an
//     in-process *LocalPeer (nil otherwise), so in-process calls are direct.
//   - reps is the ring's replica table: for vnode point p, the member
//     indexes of its replica set (owner first) sit at
//     reps[p*nrep : (p+1)*nrep]. Owner reads, hot-key fan reads and update
//     fan-out all slice it instead of walking the ring.
type ringState struct {
	ring    *Ring
	peers   map[string]Peer
	peerArr []Peer
	local   []*LocalPeer
	brkArr  []*resilience.Breaker
	reps    []int32
	nrep    int
	windows []dualWindow
}

// index builds the member-indexed tables. Called once per swap.
func (st *ringState) index(gate *resilience.PeerGate, replicas int) {
	members := st.ring.Members()
	st.peerArr = make([]Peer, len(members))
	st.local = make([]*LocalPeer, len(members))
	st.brkArr = make([]*resilience.Breaker, len(members))
	for i, id := range members {
		st.peerArr[i] = st.peers[id]
		st.local[i], _ = st.peers[id].(*LocalPeer)
		st.brkArr[i] = gate.Peer(id)
	}
	st.reps, st.nrep = st.ring.replicaTable(replicas)
}

// replicasAt returns the replica set of ring position pos as member
// indexes, owner first. The ring must be non-empty.
func (st *ringState) replicasAt(pos uint64) []int32 {
	p := st.ring.ceil(pos) * st.nrep
	return st.reps[p : p+st.nrep : p+st.nrep]
}

// Router fronts a set of engine nodes as one Engine-shaped cache: Query,
// Update and GetOrLoad place keys on ring owners, fan hot keys across
// replicas, and survive node death behind per-peer circuit breakers.
// Membership changes (Join/Leave/Fail, or the heartbeat failure detector)
// move only the affected hash ranges, streamed as range-filtered snapshots,
// with a dual-read window masking the handoff.
//
// All methods are safe for concurrent use. Query, Update and GetOrLoad's
// hit path take no lock, write no memory another op writes, and allocate
// nothing: one atomic state load, a ring search into the swap-time replica
// table, then per replica a breaker liveness load and the peer call,
// addressed by member index. Breaker outcomes go through
// Breaker.RecordLive, which takes no lock for a healthy peer; the hot-key
// touch sample and the fan's start replica come from one draw on the
// runtime's per-thread generator.
type Router struct {
	cfg  Config
	gate *resilience.PeerGate
	hot  *hotKeys

	// member is the router's gossip view of the cluster (nil unless
	// Config.Gossip); hints is the hinted-handoff log (nil when disabled).
	member *Membership
	hints  *hintLog

	state atomic.Pointer[ringState]

	mu     sync.Mutex      // serializes membership changes
	owned  map[string]Peer // handles the router dialed itself; guarded by mu
	closed atomic.Bool
	hbStop chan struct{}
	hbDone chan struct{}

	repairQ          chan repairJob
	repStop, repDone chan struct{}
	swpStop, swpDone chan struct{}

	// bgMu + bg fence short-lived background work (hint replays) so Close
	// can wait it out instead of letting it outlive the router.
	bgMu sync.Mutex
	bg   sync.WaitGroup

	degraded atomic.Bool   // minority-partition mode, refreshed each heartbeat
	gossipRR atomic.Uint64 // rotates the per-tick gossip partner

	queries, hits, fanReads       *obs.Counter
	dualReads, dualHits           *obs.Counter
	updates, replicaFanFails      *obs.Counter
	migrations, migratedPairs     *obs.Counter
	autoFails                     *obs.Counter
	gossipRounds, gossipMerges    *obs.Counter
	suspects, confirms            *obs.Counter
	repairsQueued, repairsApplied *obs.Counter
	repairsDropped, sweeps        *obs.Counter
	sweepDiverged                 *obs.Counter
	hintsParked, hintsReplayed    *obs.Counter
	hintsDropped, degradedSheds   *obs.Counter
	nodesGauge, degradedGauge     *obs.Gauge
}

// New builds a router with an empty ring; add nodes with Join (or, with
// Gossip enabled, join one seed and let the digest exchange find the rest).
func New(cfg Config) *Router {
	cfg = cfg.withDefaults()
	r := &Router{cfg: cfg, owned: map[string]Peer{}}
	// Chain the router's own breaker observer in front of any caller's: the
	// recovery edge (→ closed) triggers hint replay and suspect refutation,
	// the trip edge (→ open) feeds the gossip suspect pipeline.
	userCB := cfg.Breaker.OnStateChange
	cfg.Breaker.OnStateChange = func(name string, from, to resilience.State) {
		if userCB != nil {
			userCB(name, from, to)
		}
		r.onBreakerChange(name, from, to)
	}
	r.cfg.Breaker = cfg.Breaker
	r.gate = resilience.NewPeerGate(cfg.Breaker)
	if cfg.Gossip {
		// The router is a gossip observer, not a member: it has no self
		// entry, so it spreads and adopts verdicts but never refutes one.
		r.member = NewMembership("", "", "")
	}
	if cfg.HintCap > 0 {
		r.hints = newHintLog(cfg.HintCap)
	}
	if cfg.HotK > 0 && cfg.Replicas > 1 {
		// Hot-key tracking only matters when there are successors to
		// replicate to; without replication the tracker would tax every
		// query for nothing.
		r.hot = newHotKeys(cfg.HotK, cfg.Seed)
	}
	empty := &ringState{
		ring:  NewRing(cfg.Seed, cfg.VNodes, nil),
		peers: map[string]Peer{},
	}
	empty.index(r.gate, r.replicas())
	r.state.Store(empty)
	if reg := cfg.Obs; reg != nil {
		r.queries = reg.Counter("cluster_queries_total")
		r.hits = reg.Counter("cluster_hits_total")
		r.fanReads = reg.Counter("cluster_fan_reads_total")
		r.dualReads = reg.Counter("cluster_dual_reads_total")
		r.dualHits = reg.Counter("cluster_dual_hits_total")
		r.updates = reg.Counter("cluster_updates_total")
		r.replicaFanFails = reg.Counter("cluster_replica_fan_fails_total")
		r.migrations = reg.Counter("cluster_migrations_total")
		r.migratedPairs = reg.Counter("cluster_migrated_pairs_total")
		r.autoFails = reg.Counter("cluster_auto_fails_total")
		r.gossipRounds = reg.Counter("cluster_gossip_rounds_total")
		r.gossipMerges = reg.Counter("cluster_gossip_merges_total")
		r.suspects = reg.Counter("cluster_suspects_total")
		r.confirms = reg.Counter("cluster_confirms_total")
		r.repairsQueued = reg.Counter("cluster_repairs_enqueued_total")
		r.repairsApplied = reg.Counter("cluster_repairs_applied_total")
		r.repairsDropped = reg.Counter("cluster_repairs_dropped_total")
		r.sweeps = reg.Counter("cluster_sweeps_total")
		r.sweepDiverged = reg.Counter("cluster_sweep_divergence_total")
		r.hintsParked = reg.Counter("cluster_hints_parked_total")
		r.hintsReplayed = reg.Counter("cluster_hints_replayed_total")
		r.hintsDropped = reg.Counter("cluster_hints_dropped_total")
		r.degradedSheds = reg.Counter("cluster_degraded_sheds_total")
		r.nodesGauge = reg.Gauge("cluster_nodes")
		r.degradedGauge = reg.Gauge("cluster_degraded")
		reg.GaugeFunc("cluster_hot_keys", func() float64 {
			return float64(len(r.hot.Keys()))
		})
		reg.GaugeFunc("cluster_hints_pending", func() float64 {
			return float64(r.hints.pending())
		})
		if r.member != nil {
			reg.GaugeFunc("cluster_membership_version", func() float64 {
				return float64(r.member.Version())
			})
		}
	}
	if cfg.RepairQueue > 0 {
		r.repairQ = make(chan repairJob, cfg.RepairQueue)
		r.repStop = make(chan struct{})
		r.repDone = make(chan struct{})
		go r.repairLoop()
		if cfg.RepairSweepEvery > 0 && r.hot != nil {
			r.swpStop = make(chan struct{})
			r.swpDone = make(chan struct{})
			go r.sweepLoop()
		}
	}
	if cfg.HeartbeatEvery > 0 {
		r.hbStop = make(chan struct{})
		r.hbDone = make(chan struct{})
		go r.heartbeatLoop()
	}
	return r
}

// Close stops the failure detector, the repair workers and any in-flight
// hint replays, then closes peer handles the router dialed itself. Handles
// passed to Join (and their engines) belong to the caller and are left open.
func (r *Router) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	if r.hbStop != nil {
		close(r.hbStop)
		<-r.hbDone
	}
	if r.swpStop != nil {
		close(r.swpStop)
		<-r.swpDone
	}
	if r.repStop != nil {
		close(r.repStop)
		<-r.repDone
	}
	// closed is set, so goBG admits nothing new. The empty critical section
	// is a barrier: a goBG that read closed=false before the flag flipped
	// holds bgMu until its Add lands, so the Wait below observes it.
	r.bgMu.Lock()
	r.bgMu.Unlock() //nolint:staticcheck // barrier, see above
	r.bg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, p := range r.owned {
		_ = p.Close()
		delete(r.owned, id)
	}
}

// goBG runs f on a tracked background goroutine, refusing after Close so
// replays cannot outlive the router and touch closed peers.
func (r *Router) goBG(f func()) {
	r.bgMu.Lock()
	if r.closed.Load() {
		r.bgMu.Unlock()
		return
	}
	r.bg.Add(1)
	r.bgMu.Unlock()
	go func() {
		defer r.bg.Done()
		f()
	}()
}

// Membership returns the router's gossip view (nil unless Config.Gossip).
func (r *Router) Membership() *Membership { return r.member }

// Degraded reports whether the router is in minority-partition mode: more
// than half its ring members unreachable, remote-miss loads being shed.
func (r *Router) Degraded() bool { return r.degraded.Load() }

// PendingHints reports how many writes are parked in the hint log awaiting
// an unreachable peer's recovery (0 when hinted handoff is disabled).
func (r *Router) PendingHints() int { return r.hints.pending() }

// Ring returns the current ring (immutable).
func (r *Router) Ring() *Ring { return r.state.Load().ring }

// Members returns the current sorted member list.
func (r *Router) Members() []string { return r.state.Load().ring.Members() }

// HotKeys returns the currently-published replicated hot set.
func (r *Router) HotKeys() []uint64 { return r.hot.Keys() }

// replicas returns the effective copy count.
func (r *Router) replicas() int {
	if r.hot == nil {
		return 1
	}
	return r.cfg.Replicas
}

// do runs one call against peer id through its breaker — the protocol the
// background paths (heartbeats, gossip, digests, dual reads) use. While the
// breaker is live (closed) the call proceeds on the lock-free path and
// reports through RecordLive; once the breaker trips, calls fall back to
// the full Allow/Record protocol that owns the half-open probe bookkeeping.
func (r *Router) do(id string, f func() error) error {
	b := r.gate.Peer(id)
	if b.Live() {
		err := f()
		b.RecordLive(err == nil)
		return err
	}
	if !b.Allow() {
		return openErr(id)
	}
	err := f()
	b.Record(err == nil)
	return err
}

// openErr reports a call refused by member id's open breaker.
func openErr(id string) error { return fmt.Errorf("cluster: peer %s: %w", id, resilience.ErrOpen) }

// queryIdx reads key from member i (a Members() index) through its
// breaker. On a live breaker it touches only the member-indexed tables: one
// breaker liveness load, the peer call (direct for in-process peers) and
// RecordLive, which on a healthy peer is one more load. The tripped-breaker
// branch lives in queryIdxSlow to keep this body small.
func (r *Router) queryIdx(st *ringState, i int, key uint64) (v uint64, ok bool, err error) {
	b := st.brkArr[i]
	if !b.Live() {
		return r.queryIdxSlow(st, i, key)
	}
	if lp := st.local[i]; lp != nil {
		v, ok, err = lp.Query(key)
	} else {
		v, ok, err = st.peerArr[i].Query(key)
	}
	b.RecordLive(err == nil)
	return v, ok, err
}

// queryIdxSlow is queryIdx's tripped-breaker path: the full Allow/Record
// protocol that owns the half-open probe bookkeeping.
func (r *Router) queryIdxSlow(st *ringState, i int, key uint64) (uint64, bool, error) {
	b := st.brkArr[i]
	if !b.Allow() {
		return 0, false, openErr(st.ring.Members()[i])
	}
	v, ok, err := st.peerArr[i].Query(key)
	b.Record(err == nil)
	return v, ok, err
}

// updateIdx installs key → val at member i through its breaker, like
// queryIdx.
func (r *Router) updateIdx(st *ringState, i int, key, val uint64) (err error) {
	b := st.brkArr[i]
	if !b.Live() {
		return r.do(st.ring.Members()[i], func() error { return st.peerArr[i].Update(key, val) })
	}
	if lp := st.local[i]; lp != nil {
		err = lp.Update(key, val)
	} else {
		err = st.peerArr[i].Update(key, val)
	}
	b.RecordLive(err == nil)
	return err
}

// Query reads key from its ring owner; hot keys rotate across the replica
// set instead, so elephant flows spread over R nodes and survive any
// single replica's death. A miss inside an active dual-read window retries
// the arc's previous holder and re-installs hits at the new owner.
//
// The error is non-nil only when no replica could answer at all — a miss
// from a live owner is (0, false, nil), exactly like engine.Query plus ok.
func (r *Router) Query(key uint64) (uint64, bool, error) {
	st := r.state.Load()
	if st.ring.Size() == 0 {
		return 0, false, ErrNoNodes
	}
	r.queries.Inc()
	// One draw from the runtime's per-thread generator serves the hot-key
	// touch sample and the fan's start replica; a shared counter would
	// bounce its cache line between every querying core.
	var rnd uint32
	if r.hot != nil {
		rnd = rand.Uint32()
		r.hot.Touch(key, rnd)
	}

	if st.ring.Size() == 1 && len(st.windows) == 0 {
		// Solo fast path: one member owns the whole circle, so skip the
		// position hash and ring walk entirely. The in-process happy path
		// is additionally hand-inlined — this is the benchmarked overhead
		// of fronting a single engine with the router.
		if b, lp := st.brkArr[0], st.local[0]; lp != nil && b.Live() && !lp.down.Load() {
			v, _, ok := lp.eng.Query(key)
			b.RecordLive(true)
			if ok {
				r.hits.Inc()
			}
			return v, ok, nil
		}
		v, ok, err := r.queryIdx(st, 0, key)
		if ok {
			r.hits.Inc()
		}
		return v, ok, err
	}

	pos := st.ring.Pos(key)
	reps := st.replicasAt(pos)
	if !r.hot.Hot(key) {
		idx := int(reps[0])
		v, ok, err := r.queryIdx(st, idx, key)
		if ok {
			r.hits.Inc()
			return v, true, nil
		}
		if v, ok = r.dualRead(st, pos, key, idx); ok {
			return v, true, nil
		}
		return 0, false, err
	}

	r.fanReads.Inc()
	n := len(reps)
	start := int(rnd>>16) % n
	var lastErr error
	answered := false
	// Replicas that answered a miss before another replica hit have observably
	// diverged from the hot set — free read-repair triggers. The fixed array
	// keeps the fan path allocation-free.
	var missed [8]int32
	nm := 0
	for i := 0; i < n; i++ {
		idx := reps[(start+i)%n]
		v, ok, err := r.queryIdx(st, int(idx), key)
		if err != nil {
			lastErr = err
			continue
		}
		answered = true
		if ok {
			r.hits.Inc()
			for _, m := range missed[:nm] {
				r.enqueueRepair(key, st.ring.Members()[m])
			}
			return v, true, nil
		}
		if nm < len(missed) {
			missed[nm] = idx
			nm++
		}
	}
	if v, ok := r.dualRead(st, pos, key, -1); ok {
		return v, true, nil
	}
	if answered {
		return 0, false, nil
	}
	return 0, false, lastErr
}

// dualRead retries a miss at the previous holder of pos's arc when a
// migration window is still open, re-installing hits at the current owner.
// queried is the Members() index of a member already asked this query
// (skipped as source), or -1.
func (r *Router) dualRead(st *ringState, pos, key uint64, queried int) (uint64, bool) {
	if len(st.windows) == 0 {
		return 0, false
	}
	members := st.ring.Members()
	now := time.Now()
	for i := range st.windows {
		w := &st.windows[i]
		if (queried >= 0 && w.source == members[queried]) || now.After(w.until) || !arcsContain(w.arcs, pos) {
			continue
		}
		p := st.peers[w.source]
		if p == nil {
			continue
		}
		r.dualReads.Inc()
		var v uint64
		var ok bool
		err := r.do(w.source, func() error {
			var qerr error
			v, ok, qerr = p.Query(key)
			return qerr
		})
		if err != nil || !ok {
			continue
		}
		r.dualHits.Inc()
		r.hits.Inc()
		if owner := int(st.replicasAt(pos)[0]); members[owner] != w.source {
			_ = r.updateIdx(st, owner, key, v) // warm the new owner; best-effort
		}
		return v, true
	}
	return 0, false
}

// Update installs key → val at its ring owner synchronously — a nil return
// means the owner applied and acked it. Hot keys additionally fan to the
// replica successors, best-effort: a replica that misses an update serves a
// stale read only until the next fan reaches it, and the owner remains the
// authority.
//
// When the owner is unreachable (breaker open, node mute) and hinted
// handoff is enabled, the write is parked in the owner's hint log and
// ErrHinted returned: accepted at reduced durability, replayed when the
// owner recovers or rerouted if it is confirmed dead. Callers that need the
// hard ack treat ErrHinted as a failure; callers that want availability
// treat it as success.
func (r *Router) Update(key, val uint64) error {
	st := r.state.Load()
	if st.ring.Size() == 0 {
		return ErrNoNodes
	}
	r.updates.Inc()
	reps := st.replicasAt(st.ring.Pos(key))
	if !r.hot.Hot(key) {
		reps = reps[:1]
	}
	members := st.ring.Members()
	err := r.updateIdx(st, int(reps[0]), key, val)
	if err != nil && r.parkHint(members[reps[0]], key, val, err) {
		err = ErrHinted
	}
	for _, i := range reps[1:] {
		if ferr := r.updateIdx(st, int(i), key, val); ferr != nil {
			r.replicaFanFails.Inc()
			r.parkHint(members[i], key, val, ferr)
		}
	}
	return err
}

// parkHint parks key → val for an unreachable peer, reporting whether it
// did. Only down-class failures (unreachable, timed out, breaker open) are
// hintable — an error from a node that answered means the write was seen
// and refused, and replaying it later would be wrong.
func (r *Router) parkHint(id string, key, val uint64, err error) bool {
	if r.hints == nil || !isDownClass(err) {
		return false
	}
	if r.hints.park(id, key, val) {
		r.hintsDropped.Inc()
	}
	r.hintsParked.Inc()
	return true
}

// isDownClass reports whether err says the peer could not be reached at
// all, as opposed to reached-and-refused.
func isDownClass(err error) bool {
	return errors.Is(err, netproto.ErrUnreachable) ||
		errors.Is(err, netproto.ErrTimeout) ||
		errors.Is(err, resilience.ErrOpen)
}

// GetOrLoad reads key, falling back to load on a miss and installing the
// loaded value — the cluster-wide analogue of tiered GetOrLoad. A failed
// install is not an error (it costs a future miss, not correctness).
//
// While the router is degraded (minority partition), misses caused by an
// unreachable owner are shed instead of loaded: local arcs keep serving at
// full fidelity, but the partitioned arcs' working set is not re-fetched
// from the backing store wholesale. With a Shedder configured the shed is
// arbitrated at PriLow (light pressure lets loads through); without one
// every such miss is shed.
func (r *Router) GetOrLoad(key uint64, load func(key uint64) (uint64, error)) (uint64, error) {
	v, ok, err := r.Query(key)
	if ok {
		return v, nil
	}
	if errors.Is(err, ErrNoNodes) {
		return 0, err
	}
	if err != nil && r.degraded.Load() {
		// The miss is unreachability, not absence — the owner may well hold
		// the key on the other side of the partition.
		if sh := r.cfg.Shedder; sh == nil || !sh.Admit(resilience.PriLow, 0) {
			r.degradedSheds.Inc()
			return 0, ErrDegraded
		}
	}
	v, err = load(key)
	if err != nil {
		return 0, err
	}
	_ = r.Update(key, v)
	return v, nil
}

// Join adds node id (reached through peer) to the ring. Ownership of the
// affected arcs is migrated to the new node *before* the ring swap — the
// node serves its first query already warm — and a dual-read window covers
// writes that raced the stream. The router does not take ownership of the
// peer handle. With gossip enabled the join also asserts the member alive
// in the membership table (refuting any standing accusation), so a
// re-joined node spreads to other routers.
func (r *Router) Join(id string, peer Peer) error {
	return r.join(id, peer, false)
}

func (r *Router) join(id string, peer Peer, owned bool) error {
	if id == "" || peer == nil {
		return fmt.Errorf("cluster: Join needs a node id and a peer")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return fmt.Errorf("cluster: router closed")
	}
	st := r.state.Load()
	if containsStr(st.ring.Members(), id) {
		return fmt.Errorf("cluster: %q is already a member", id)
	}
	next := NewRing(r.cfg.Seed, r.cfg.VNodes, append(append([]string{}, st.ring.Members()...), id))
	peers := clonePeers(st.peers)
	peers[id] = peer
	if owned {
		r.owned[id] = peer
	}
	if r.member != nil {
		udp, tcp := peer.Addrs()
		r.member.Alive(id, udp, tcp)
	}

	// Migrate-then-swap: the stream runs while old owners still serve the
	// arcs, so nothing is overwritten and the new node starts warm.
	transfers := Plan(st.ring, next, r.replicas())
	windows := r.execute(peers, transfers, "", false)
	r.swap(st, next, peers, windows)
	// A member that died holding hints and came back under the same id gets
	// them replayed now rather than waiting for a breaker edge.
	r.replayHintsFor(id)
	return nil
}

// Leave removes node id gracefully: the ring is swapped first (writes stop
// arriving), then the departing node streams the moved arcs to their new
// holders, with a dual-read window covering reads in between. The peer
// handle stays reachable as a tombstone until its windows expire — close it
// after ~DualReadFor, not immediately.
func (r *Router) Leave(id string) error {
	return r.remove(id, false)
}

// Fail removes node id as dead: the ring is swapped immediately and the
// moved arcs are re-streamed from surviving replicas (there are none to
// recover from unless Replicas > 1 — un-replicated keys on a dead node are
// a cache miss, not data loss). The heartbeat failure detector calls this
// automatically when a peer's breaker opens.
func (r *Router) Fail(id string) error {
	return r.remove(id, true)
}

func (r *Router) remove(id string, dead bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state.Load()
	if !containsStr(st.ring.Members(), id) {
		return fmt.Errorf("cluster: %q is not a member", id)
	}
	if r.member != nil {
		if dead {
			if r.member.Confirm(id) {
				r.confirms.Inc()
			}
		} else {
			r.member.Left(id)
		}
	}
	members := make([]string, 0, st.ring.Size()-1)
	for _, m := range st.ring.Members() {
		if m != id {
			members = append(members, m)
		}
	}
	next := NewRing(r.cfg.Seed, r.cfg.VNodes, members)
	peers := clonePeers(st.peers)
	if dead {
		delete(peers, id) // no dual reads at a corpse
		r.gate.Drop(id)
	}

	// Swap-then-migrate: traffic leaves the node at the swap; the streams
	// that follow restore keep-existing, so writes landing at the new
	// owners meanwhile are never rolled back, and dual-read windows mask
	// the gap until each arc's stream completes.
	transfers := Plan(st.ring, next, r.replicas())
	skip := ""
	if dead {
		skip = id
	}
	r.swap(st, next, peers, r.windowsFor(transfers, skip, next))
	r.executeAfterSwap(transfers, skip)
	if dead {
		r.rerouteHints(id)
	}
	return nil
}

// rerouteHints re-addresses a confirmed-dead member's parked hints through
// the normal update path: the ring has already swapped, so each write lands
// at (or parks for) the key's new owner. Background — replay competes with
// live traffic, never blocks the membership change.
func (r *Router) rerouteHints(id string) {
	if r.hints == nil {
		return
	}
	pairs := r.hints.take(id)
	if len(pairs) == 0 {
		return
	}
	r.goBG(func() {
		n := 0
		for k, v := range pairs {
			if err := r.Update(k, v); err == nil || errors.Is(err, ErrHinted) {
				n++
			}
		}
		r.hintsReplayed.Add(uint64(n))
	})
}

// replayHintsFor streams a recovered member's parked hints back to it as a
// keep-existing snapshot (writes accepted since recovery win). A failed
// replay re-parks the batch — the breaker that just closed can trip again
// mid-stream. Background, via goBG. Safe to call with r.mu held.
func (r *Router) replayHintsFor(id string) {
	if r.hints == nil || r.hints.pendingFor(id) == 0 {
		return
	}
	r.goBG(func() {
		pairs := r.hints.take(id)
		if len(pairs) == 0 {
			return
		}
		st := r.state.Load()
		p := st.peers[id]
		if p == nil || !containsStr(st.ring.Members(), id) {
			// The member moved on while the replay was queued; reroute.
			n := 0
			for k, v := range pairs {
				if err := r.Update(k, v); err == nil || errors.Is(err, ErrHinted) {
					n++
				}
			}
			r.hintsReplayed.Add(uint64(n))
			return
		}
		n, err := pushPairs(p, pairs)
		if err != nil {
			for k, v := range pairs {
				r.hints.park(id, k, v)
			}
			return
		}
		r.hintsReplayed.Add(uint64(n))
	})
}

// windowsFor opens one dual-read window per transfer before the streams
// run, pointing at the first usable source.
func (r *Router) windowsFor(transfers []Transfer, skip string, next *Ring) []dualWindow {
	st := r.state.Load()
	until := time.Now().Add(r.cfg.DualReadFor)
	var out []dualWindow
	for _, t := range transfers {
		for _, s := range t.Sources {
			if s == skip || st.peers[s] == nil {
				continue
			}
			out = append(out, dualWindow{arcs: t.Arcs, source: s, until: until})
			break
		}
	}
	return out
}

// executeAfterSwap runs the post-swap migration streams (keep-existing
// restores). Caller holds r.mu; the swapped state is already live.
func (r *Router) executeAfterSwap(transfers []Transfer, skip string) {
	st := r.state.Load()
	r.execute(st.peers, transfers, skip, true)
}

// execute streams every transfer from its first healthy source into its
// destination. keepExisting selects the restore mode (true after a swap).
// Returns dual-read windows for the arcs that moved, pointing at the
// source that served each stream.
func (r *Router) execute(peers map[string]Peer, transfers []Transfer, skip string, keepExisting bool) []dualWindow {
	var windows []dualWindow
	until := time.Now().Add(r.cfg.DualReadFor)
	for _, t := range transfers {
		dst := peers[t.Dest]
		if dst == nil {
			continue
		}
		for _, s := range t.Sources {
			if s == skip || peers[s] == nil {
				continue
			}
			sp := r.cfg.Span.Start(0, 0)
			rc, err := peers[s].OpenPull(t.Arcs)
			if err != nil {
				sp.Finish(span.KindMigrate)
				continue
			}
			sp.Mark(span.StageFetch)
			n, err := dst.Push(rc, keepExisting)
			rc.Close()
			sp.Mark(span.StageApply)
			sp.SetBatch(n)
			sp.Finish(span.KindMigrate)
			if err != nil {
				continue
			}
			r.migrations.Inc()
			r.migratedPairs.Add(uint64(n))
			windows = append(windows, dualWindow{arcs: t.Arcs, source: s, until: until})
			break
		}
	}
	return windows
}

// swap publishes the new membership, carrying over unexpired windows and
// pruning tombstone peers no window references anymore. Caller holds r.mu.
func (r *Router) swap(st *ringState, next *Ring, peers map[string]Peer, windows []dualWindow) {
	now := time.Now()
	for _, w := range st.windows {
		if now.Before(w.until) {
			windows = append(windows, w)
		}
	}
	// Tombstones: peers out of the ring stay only while a window needs them.
	for id := range peers {
		if containsStr(next.Members(), id) {
			continue
		}
		needed := false
		for _, w := range windows {
			if w.source == id {
				needed = true
				break
			}
		}
		if !needed {
			delete(peers, id)
		}
	}
	ns := &ringState{ring: next, peers: peers, windows: windows}
	ns.index(r.gate, r.replicas())
	r.state.Store(ns)
	r.nodesGauge.Set(float64(next.Size()))
	// Handles the router dialed itself die with their membership: once a
	// resolved peer is out of the ring and past its windows, close it.
	for id, p := range r.owned {
		if peers[id] == nil {
			_ = p.Close()
			delete(r.owned, id)
		}
	}
}

// pruneWindows drops expired windows (and with them, stale tombstones).
func (r *Router) pruneWindows() {
	st := r.state.Load()
	now := time.Now()
	expired := false
	for _, w := range st.windows {
		if now.After(w.until) {
			expired = true
			break
		}
	}
	if !expired {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st = r.state.Load()
	r.swap(st, st.ring, clonePeers(st.peers), nil)
}

// heartbeatLoop is the failure detector: each tick pings every peer
// through its breaker, runs one gossip exchange (when enabled), and either
// escalates open breakers through the suspect → dead pipeline (gossip) or
// auto-fails them directly (legacy). The cadence carries seeded ±10%
// jitter: a fleet of routers stamped from one config must not probe every
// node in lockstep, or each heartbeat interval lands the whole fleet's ping
// fan on the same instant.
func (r *Router) heartbeatLoop() {
	defer close(r.hbDone)
	rng := rand.New(rand.NewPCG(r.cfg.Seed, 0x5bd1e995))
	next := func() time.Duration {
		j := r.cfg.HeartbeatEvery / 10
		if j <= 0 {
			return r.cfg.HeartbeatEvery
		}
		return r.cfg.HeartbeatEvery - j + time.Duration(rng.Int64N(int64(2*j)))
	}
	t := time.NewTimer(next())
	defer t.Stop()
	for {
		select {
		case <-r.hbStop:
			return
		case <-t.C:
		}
		r.heartbeatTick()
		t.Reset(next())
	}
}

// heartbeatTick is one failure-detector round.
func (r *Router) heartbeatTick() {
	st := r.state.Load()
	for id, p := range st.peers {
		p := p
		_ = r.do(id, func() error { return p.Ping() })
	}
	if r.member != nil {
		r.gossipTick(st)
	} else {
		for _, id := range r.gate.Open() {
			if containsStr(r.state.Load().ring.Members(), id) {
				r.autoFails.Inc()
				_ = r.Fail(id)
			}
		}
	}
	r.refreshDegraded()
	r.pruneWindows()
}

// gossipTick runs the membership side of one heartbeat round: exchange
// digests with one rotating partner, convert local breaker evidence into
// verdicts (open → suspect, re-closed → alive, suspect past the window →
// dead), then reconcile the ring against the converged table.
func (r *Router) gossipTick(st *ringState) {
	members := st.ring.Members()
	if len(members) > 0 {
		id := members[int(r.gossipRR.Add(1))%len(members)]
		if p := st.peers[id]; p != nil {
			var reply []netproto.MemberDigest
			err := r.do(id, func() error {
				var gerr error
				reply, gerr = p.Gossip(r.member.Digest())
				return gerr
			})
			r.gossipRounds.Inc()
			if err == nil && r.member.Merge(reply) {
				r.gossipMerges.Inc()
			}
		}
	}
	for _, id := range r.gate.Open() {
		if containsStr(members, id) && r.member.Suspect(id) {
			r.suspects.Inc()
		}
	}
	for _, d := range r.member.Entries() {
		if d.Status != netproto.MemberSuspect {
			continue
		}
		if containsStr(members, d.ID) && r.gate.Peer(d.ID).State() == resilience.Closed {
			// The breaker recovered inside the suspicion window: direct
			// evidence the accusation was wrong — refute it.
			r.member.Alive(d.ID, "", "")
			continue
		}
		if r.member.SuspectedFor(d.ID) > r.cfg.SuspectAfter {
			if r.member.Confirm(d.ID) {
				r.confirms.Inc()
			}
		}
	}
	r.reconcile()
}

// reconcile drives the ring toward the membership table's verdicts: alive
// members not yet in the ring are resolved and joined (warm, via the
// migrate-then-swap path), dead and departed members are removed (replica
// re-streaming, hint rerouting). Suspects stay in the ring — their breakers
// shield the query path while the accusation either hardens or is refuted.
func (r *Router) reconcile() {
	if r.member == nil {
		return
	}
	for _, d := range r.member.Entries() {
		inRing := containsStr(r.state.Load().ring.Members(), d.ID)
		switch d.Status {
		case netproto.MemberAlive:
			if inRing {
				continue
			}
			p, owned, err := r.resolve(d)
			if err != nil || p == nil {
				continue
			}
			if err := r.join(d.ID, p, owned); err != nil && owned {
				_ = p.Close()
			}
		case netproto.MemberDead:
			if inRing {
				r.autoFails.Inc()
				_ = r.remove(d.ID, true)
			}
		case netproto.MemberLeft:
			if inRing {
				_ = r.remove(d.ID, false)
			}
		}
	}
}

// resolve dials a peer handle for a gossip-learned member. The returned
// owned flag marks handles the router must close when the member is pruned.
func (r *Router) resolve(d netproto.MemberDigest) (Peer, bool, error) {
	if r.cfg.Resolver != nil {
		p, err := r.cfg.Resolver(d)
		return p, true, err
	}
	if d.UDPAddr == "" || d.TCPAddr == "" {
		return nil, false, nil // nothing to dial; wait for addresses to gossip in
	}
	ua, err := net.ResolveUDPAddr("udp", d.UDPAddr)
	if err != nil {
		return nil, false, err
	}
	p, err := netproto.DialNode(ua, d.TCPAddr, 0, 0)
	if err != nil {
		return nil, false, err
	}
	return p, true, nil
}

// onBreakerChange is the router's own breaker observer (chained in front of
// any caller-provided one): the recovery edge triggers hint replay and
// suspect refutation, the trip edge files the gossip accusation without
// waiting for the next heartbeat tick.
func (r *Router) onBreakerChange(id string, from, to resilience.State) {
	switch {
	case to == resilience.Closed && from != resilience.Closed:
		if r.member != nil {
			if s, known := r.member.Status(id); known && s == netproto.MemberSuspect {
				r.member.Alive(id, "", "")
			}
		}
		r.replayHintsFor(id)
	case to == resilience.Open && r.member != nil:
		if containsStr(r.state.Load().ring.Members(), id) && r.member.Suspect(id) {
			r.suspects.Inc()
		}
	}
}

// refreshDegraded recomputes minority-partition mode: degraded when more
// than half the ring's members sit behind open breakers — this router, not
// the cluster, is probably the one cut off.
func (r *Router) refreshDegraded() {
	st := r.state.Load()
	open := 0
	for _, id := range r.gate.Open() {
		if containsStr(st.ring.Members(), id) {
			open++
		}
	}
	deg := st.ring.Size() > 1 && open*2 > st.ring.Size()
	if r.degraded.Swap(deg) != deg {
		v := 0.0
		if deg {
			v = 1
		}
		r.degradedGauge.Set(v)
	}
}

func clonePeers(in map[string]Peer) map[string]Peer {
	out := make(map[string]Peer, len(in)+1)
	for k, v := range in {
		out[k] = v
	}
	return out
}

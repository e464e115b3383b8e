package cluster

import (
	"slices"
	"time"

	"github.com/p4lru/p4lru/internal/netproto"
)

// Anti-entropy: two mechanisms keep replicas of the hot set convergent.
//
// Read repair rides the query path. The hot-key fan probes replicas in
// rotation; when one replica hits after another answered a miss, the miss is
// divergence observed for free, and a repair job is enqueued for the lagging
// replica. The queue is bounded (overflow is dropped and counted — repair is
// an optimization, never backpressure on reads) and drained by one worker at
// a configured rate. The worker re-reads the key from its current ring owner
// at drain time — the owner is the authority, and the value that triggered
// the job may itself be stale by then — and installs the owner's value at
// the divergent replica.
//
// The digest sweep catches what reads can't see: value divergence. A replica
// that holds a *different* value still answers "hit", so the fan never
// observes it. Periodically the sweep walks the published hot set and, for
// each key, compares the owner's arc digest (pair count + xor over the
// degenerate single-position arc (pos-1, pos]) against each replica's. The
// arc pins exactly the ring position the key hashes to, so both sides digest
// the same key set regardless of what else they cache — count or xor
// disagreement means a missing or divergent copy, and the key is enqueued
// through the same repair queue.

// repairJob names one suspected-divergent copy: key, and the replica to
// re-fill from the owner.
type repairJob struct {
	key uint64
	dst string
}

// enqueueRepair offers a job to the bounded queue, never blocking the
// caller; a full queue drops the job and counts it.
func (r *Router) enqueueRepair(key uint64, dst string) {
	if r.repairQ == nil {
		return
	}
	select {
	case r.repairQ <- repairJob{key: key, dst: dst}:
		r.repairsQueued.Inc()
	default:
		r.repairsDropped.Inc()
	}
}

// repairLoop is the single drain worker: rate-limited by a ticker so a
// divergence storm (a node returning from a partition with a cold or stale
// hot set) refills at a bounded trickle instead of a thundering herd.
func (r *Router) repairLoop() {
	defer close(r.repDone)
	tick := time.NewTicker(time.Second / time.Duration(r.cfg.RepairRate))
	defer tick.Stop()
	for {
		var j repairJob
		select {
		case <-r.repStop:
			return
		case j = <-r.repairQ:
		}
		select {
		case <-r.repStop:
			return
		case <-tick.C:
		}
		r.repairOne(j)
	}
}

// repairOne re-reads j.key from its current owner and installs the owner's
// value at j.dst. Every step is best-effort: a vanished member, a miss at
// the owner (the key cooled off and was evicted) or a failed install just
// abandons the job — the next read or sweep will re-detect live divergence.
func (r *Router) repairOne(j repairJob) {
	st := r.state.Load()
	dst, member := slices.BinarySearch(st.ring.Members(), j.dst)
	if !member {
		return // the replica left the ring; nothing to re-fill
	}
	owner := int(st.replicasAt(st.ring.Pos(j.key))[0])
	if owner == dst {
		return // ownership moved; the migration path owns this copy now
	}
	v, ok, err := r.queryIdx(st, owner, j.key)
	if err != nil || !ok {
		return
	}
	if r.updateIdx(st, dst, j.key, v) == nil {
		r.repairsApplied.Inc()
	}
}

// sweepLoop runs the digest sweep on its configured cadence.
func (r *Router) sweepLoop() {
	defer close(r.swpDone)
	t := time.NewTicker(r.cfg.RepairSweepEvery)
	defer t.Stop()
	for {
		select {
		case <-r.swpStop:
			return
		case <-t.C:
		}
		r.sweepOnce()
	}
}

// sweepOnce digests every published hot key on its owner and replicas and
// enqueues repairs for disagreeing copies. Exported through the test
// build only via the loop; tests with the sweep disabled call it directly
// for deterministic timing.
func (r *Router) sweepOnce() {
	st := r.state.Load()
	if r.hot == nil || st.ring.Size() < 2 {
		return
	}
	keys := r.hot.Keys()
	if len(keys) == 0 {
		return
	}
	r.sweeps.Inc()
	members := st.ring.Members()
	for _, key := range keys {
		pos := st.ring.Pos(key)
		reps := st.replicasAt(pos)
		if len(reps) < 2 {
			continue
		}
		// pos-1 wraps at 0; arcContains treats from > to as wrapping, so the
		// arc still pins exactly position pos.
		arcs := [][2]uint64{{pos - 1, pos}}
		want, err := r.peerDigest(st, members[reps[0]], arcs)
		if err != nil {
			continue
		}
		for _, i := range reps[1:] {
			id := members[i]
			got, err := r.peerDigest(st, id, arcs)
			if err != nil {
				continue
			}
			if got != want {
				r.sweepDiverged.Inc()
				r.enqueueRepair(key, id)
			}
		}
	}
}

// peerDigest runs one Digest call through the member's breaker.
func (r *Router) peerDigest(st *ringState, id string, arcs [][2]uint64) (netproto.ArcDigest, error) {
	p := st.peers[id]
	if p == nil {
		return netproto.ArcDigest{}, ErrNoNodes
	}
	var d netproto.ArcDigest
	err := r.do(id, func() error {
		var derr error
		d, derr = p.Digest(arcs)
		return derr
	})
	return d, err
}

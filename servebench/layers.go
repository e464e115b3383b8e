package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/lru"
	"github.com/p4lru/p4lru/internal/policy"
)

// replayChunk is the op batch the isolated replays time at once: one clock
// pair per chunk keeps the clock's own cost out of ns-scale rows.
const replayChunk = 64

// replayCap bounds how many ops of a workload's stream the isolated replays
// use, so a traced run's replays take well under a second.
const replayCap = 400_000

// engineReplay is the engine layer measured alone on a workload's stream.
type engineReplay struct {
	queryNS, applyNS, applyBatchNS float64
	evictPerUpdate                 float64
	capacity                       int
}

// replayEngine replays ops into one engine built from spec, the way the
// workload's serving path drives its engines: a read is a Query, followed
// by an Apply of the key when it missed (the look-through install) or, with
// applyOnHit, always (the switch's reply path promotes hits too); an update
// (upd[i]) is a blind Apply. Even chunks apply op by op, odd chunks through
// ApplyBatch. The stream runs twice; the second pass is timed.
func replayEngine(spec policy.Spec, shards int, keys []uint64, upd []bool, applyOnHit bool) (engineReplay, error) {
	if len(keys) > replayCap {
		keys = keys[:replayCap]
	}
	eng, err := engine.NewFromSpec(spec, engine.Config{Shards: shards, StallWindow: -1})
	if err != nil {
		return engineReplay{}, fmt.Errorf("replay engine: %w", err)
	}
	defer eng.Close()
	ops := make([]engine.Op, 0, replayChunk)
	var queries, applies, batched, evictions int
	var queryT, applyT, batchT time.Duration
	for pass := 0; pass < 2; pass++ {
		timed := pass == 1
		for c := 0; c*replayChunk < len(keys); c++ {
			lo := c * replayChunk
			hi := min(lo+replayChunk, len(keys))
			ops = ops[:0]
			t0 := time.Now()
			nq := 0
			for i := lo; i < hi; i++ {
				k := keys[i]
				if upd != nil && upd[i] {
					ops = append(ops, engine.Op{Key: k, Value: k, Token: policy.NoToken})
					continue
				}
				_, tok, ok := eng.Query(k)
				nq++
				if !ok || applyOnHit {
					ops = append(ops, engine.Op{Key: k, Value: k, Token: tok})
				}
			}
			t1 := time.Now()
			if c%2 == 0 {
				for _, op := range ops {
					if eng.Apply(op).Evicted && timed {
						evictions++
					}
				}
			} else {
				eng.ApplyBatch(ops)
			}
			t2 := time.Now()
			if !timed {
				continue
			}
			queries += nq
			queryT += t1.Sub(t0)
			if c%2 == 0 {
				applies += len(ops)
				applyT += t2.Sub(t1)
			} else {
				batched += len(ops)
				batchT += t2.Sub(t1)
			}
		}
	}
	return engineReplay{
		queryNS:        ratio(float64(queryT), float64(queries)),
		applyNS:        ratio(float64(applyT), float64(applies)),
		applyBatchNS:   ratio(float64(batchT), float64(batched)),
		evictPerUpdate: ratio(float64(evictions), float64(applies)),
		capacity:       eng.Capacity(),
	}, nil
}

// report prints the engine rows. occupancy and drops come from the
// workload's own engines, not the replay.
func (er engineReplay) report(rep *report, occupancy, drops float64) {
	rep.set("engine.query_ns", er.queryNS, "ns", "isolated replay of the workload's stream")
	rep.set("engine.apply_ns", er.applyNS, "ns", "isolated replay")
	rep.set("engine.apply_batch_ns_per_op", er.applyBatchNS, "ns", "isolated replay, chunks of 64")
	rep.set("engine.drops", drops, "count", "workload engines")
	rep.set("engine.occupancy", occupancy, "ratio", "workload engines")
	rep.set("policy.evict_per_update", er.evictPerUpdate, "ratio", "evictions per Apply, isolated replay")
}

// replayLRU times the flat P4LRU core alone on keys: QueryBatch then
// UpdateBatch per chunk, the stream run twice with the second pass timed.
func replayLRU(unitCap, capacity int, seed uint64, keys []uint64, rep *report) {
	if len(keys) > replayCap {
		keys = keys[:replayCap]
	}
	core := lru.NewFlatCore(unitCap, max(1, capacity/unitCap), seed, nil)
	vals := make([]uint64, replayChunk)
	oks := make([]bool, replayChunk)
	var n int
	var qT, uT time.Duration
	for pass := 0; pass < 2; pass++ {
		for lo := 0; lo < len(keys); lo += replayChunk {
			hi := min(lo+replayChunk, len(keys))
			ks := keys[lo:hi]
			t0 := time.Now()
			core.QueryBatch(ks, vals[:len(ks)], oks[:len(ks)])
			t1 := time.Now()
			core.UpdateBatch(ks, ks)
			t2 := time.Now()
			if pass == 1 {
				n += len(ks)
				qT += t1.Sub(t0)
				uT += t2.Sub(t1)
			}
		}
	}
	rep.set("lru.query_batch_ns", ratio(float64(qT), float64(n)), "ns", fmt.Sprintf("flat P4LRU%d, %d entries", unitCap, core.Capacity()))
	rep.set("lru.update_batch_ns", ratio(float64(uT), float64(n)), "ns", "")
}

// zeroRows sets every still-unset per-layer metric under the given prefixes
// to 0: those layers are not on the workload's path.
func zeroRows(rep *report, prefixes ...string) {
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				rep.set(m.name, 0, m.unit, "not on this workload's path")
				break
			}
		}
	}
}

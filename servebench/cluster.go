package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/backing"
	"github.com/p4lru/p4lru/internal/cluster"
	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/trace"
)

const (
	// clusterNodes is the ring size: in-process engines behind LocalPeers.
	clusterNodes = 3
	// clusterReplicas is the copy count of hot keys, owner included.
	clusterReplicas = 2
	// clusterStoreItems is the backing B+ tree's size.
	clusterStoreItems = 1_000_000
	// clusterWorkers is the closed loop's client count (≤ nproc here).
	clusterWorkers = 2
	// clusterSampleEvery times one op in this many: a clock read costs as
	// much as an engine query, so timing every op would distort the loop.
	clusterSampleEvery = 32
	// clusterSetups is how many times a run builds the stack to time set-up.
	clusterSetups = 5
)

// clusterWorkload is one way of driving the cluster stack.
type clusterWorkload struct {
	name       string
	updateFrac float64 // share of ops that are Updates
	nodeBytes  int     // cache memory per node
	warmOps    int     // untimed ops that fill the caches
	stream     func(seed int64) []uint64
}

// hotWorkload: a Zipf(1.2) head that fits the caches, so the work is the
// router, the engines and flat-core hits.
var hotWorkload = clusterWorkload{
	name:       "cluster-hot",
	updateFrac: 0.05,
	nodeBytes:  64 * 1024,
	warmOps:    400_000,
	stream: func(seed int64) []uint64 {
		return zipfFrom1(1<<16, 1.2, 4_000_000, seed)
	},
}

// churnWorkload: CAIDA_n-style flows whose working set turns over every
// segment, against caches far smaller than it, so the work is misses,
// loader walks, evictions and write-behind drains.
var churnWorkload = clusterWorkload{
	name:       "cluster-churn",
	updateFrac: 0.25,
	nodeBytes:  8 * 1024,
	warmOps:    100_000,
	stream: func(seed int64) []uint64 {
		tr := trace.Synthesize(trace.SynthConfig{
			Packets:   2_000_000,
			BaseFlows: 500_000,
			Segments:  60,
			Duration:  time.Minute,
			Seed:      seed,
		})
		keys := make([]uint64, len(tr.Packets))
		for i, p := range tr.Packets {
			keys[i] = p.Flow
		}
		return keys
	},
}

func runClusterHot(cfg runConfig, rep *report) error   { return runCluster(hotWorkload, cfg, rep) }
func runClusterChurn(cfg runConfig, rep *report) error { return runCluster(churnWorkload, cfg, rep) }

func (wl clusterWorkload) spec(seed int64) policy.Spec {
	return policy.Spec{Kind: policy.KindP4LRU3, MemBytes: wl.nodeBytes, Seed: uint64(seed)}
}

// clusterStack is the look-through cluster: a router over in-process
// engines, misses through a loader over a B+ tree store, evictions drained
// back into the store by a write-behind queue.
type clusterStack struct {
	store   *backing.BTree
	wb      *backing.WriteBehind
	loader  *backing.Loader
	engines []*engine.Engine
	router  *cluster.Router
	reg     *obs.Registry // traced stacks only
	peers   []*timedPeer  // traced stacks only
	// shadow holds 1 + the value the benchmark last loaded or wrote per key
	// (0 = none yet); every read must return it.
	shadow []atomic.Uint64
}

func newClusterStack(wl clusterWorkload, seed int64, traced bool) (*clusterStack, error) {
	st := &clusterStack{}
	if traced {
		st.reg = obs.NewRegistry()
	}
	st.store = backing.NewBTree(clusterStoreItems)
	st.wb = backing.NewWriteBehind(st.store, backing.WriteBehindConfig{Seed: uint64(seed), Obs: st.reg})
	st.loader = backing.NewLoader(st.store, backing.LoaderConfig{Seed: uint64(seed), Obs: st.reg})
	st.router = cluster.New(cluster.Config{Seed: uint64(seed), Replicas: clusterReplicas, Obs: st.reg})
	for i := 0; i < clusterNodes; i++ {
		eng, err := engine.NewFromSpec(wl.spec(seed+int64(i)), engine.Config{OnEvict: st.wb.OnEvict})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("node engine: %w", err)
		}
		st.engines = append(st.engines, eng)
		var peer cluster.Peer = cluster.NewLocalPeer(eng, uint64(seed))
		if traced {
			tp := &timedPeer{Peer: peer}
			st.peers = append(st.peers, tp)
			peer = tp
		}
		if err := st.router.Join(fmt.Sprintf("node-%d", i), peer); err != nil {
			st.close()
			return nil, fmt.Errorf("join: %w", err)
		}
	}
	return st, nil
}

func (st *clusterStack) close() {
	if st.router != nil {
		st.router.Close()
	}
	for _, e := range st.engines {
		e.Close()
	}
	if st.wb != nil {
		st.wb.Close()
	}
}

// timedPeer wraps a cluster.Peer and times its Query and Update calls. It is
// joined in place of the bare LocalPeer only in traced runs: the wrapper
// also turns off the router's devirtualised in-process fast path.
type timedPeer struct {
	cluster.Peer
	stripes [16]peerStripe
}

// peerStripe spreads the wrapper's tallies by key so two workers seldom
// share a cache line.
type peerStripe struct {
	qNS, qN, uNS, uN atomic.Int64
	_                [32]byte
}

func (p *timedPeer) Query(key uint64) (uint64, bool, error) {
	t0 := time.Now()
	v, ok, err := p.Peer.Query(key)
	s := &p.stripes[key&15]
	s.qNS.Add(int64(time.Since(t0)))
	s.qN.Add(1)
	return v, ok, err
}

func (p *timedPeer) Update(key, val uint64) error {
	t0 := time.Now()
	err := p.Peer.Update(key, val)
	s := &p.stripes[key&15]
	s.uNS.Add(int64(time.Since(t0)))
	s.uN.Add(1)
	return err
}

// totals returns the wrapper's query and update calls and their summed ns.
func (p *timedPeer) totals() (qN, qNS, uN, uNS int64) {
	for i := range p.stripes {
		s := &p.stripes[i]
		qN += s.qN.Load()
		qNS += s.qNS.Load()
		uN += s.uN.Load()
		uNS += s.uNS.Load()
	}
	return
}

// worker is one closed-loop client. Workers interleave over the shared
// stream (worker w takes ops w, w+W, w+2W, ...), preserving its order.
type worker struct {
	st   *clusterStack
	keys []uint64
	upd  []bool
	pos  int

	timeAll bool // traced: time every op and every load

	ops, reads, hits, errs, wrong int64
	lat                           samples // 1-in-clusterSampleEvery op latencies
	opNS                          int64   // Σ op time when timeAll
	loads                         samples // load callback durations when timeAll
	loaded                        bool
	load                          func(uint64) (uint64, error)
}

func newWorker(st *clusterStack, keys []uint64, upd []bool, id int) *worker {
	w := &worker{st: st, keys: keys, upd: upd, pos: id}
	ctx := context.Background()
	w.load = func(k uint64) (uint64, error) {
		w.loaded = true
		var t0 time.Time
		if w.timeAll {
			t0 = time.Now()
		}
		v, err := st.loader.Get(ctx, k)
		if w.timeAll {
			w.loads = append(w.loads, int64(time.Since(t0)))
		}
		if err != nil {
			return 0, err
		}
		if v != kvIndex(k) {
			w.wrong++ // the store answered with another key's index
		}
		st.shadow[k].Store(v + 1)
		return v, nil
	}
	return w
}

// reset clears the tallies before a measured window.
func (w *worker) reset(timeAll bool) {
	w.ops, w.reads, w.hits, w.errs, w.wrong = 0, 0, 0, 0, 0
	w.lat, w.loads, w.opNS = w.lat[:0], w.loads[:0], 0
	w.timeAll = timeAll
}

// run issues ops until count is reached (count > 0) or stop is set.
func (w *worker) run(count int64, stop *atomic.Bool) {
	r := w.st.router
	for {
		if (count > 0 && w.ops >= count) || stop.Load() {
			return
		}
		k, isUpd := w.keys[w.pos], w.upd[w.pos]
		w.pos += clusterWorkers
		if w.pos >= len(w.keys) {
			w.pos -= len(w.keys)
		}
		w.ops++
		sampled := w.ops%clusterSampleEvery == 0
		var t0 time.Time
		if sampled || w.timeAll {
			t0 = time.Now()
		}
		if isUpd {
			// In the look-through deployment the cached word is the key's
			// B+ tree index (backing.BTree's contract), so an update
			// re-installs it; write-behind drains it back on eviction.
			v := kvIndex(k)
			w.st.shadow[k].Store(v + 1)
			if err := r.Update(k, v); err != nil {
				w.errs++
			}
		} else {
			w.reads++
			w.loaded = false
			v, err := r.GetOrLoad(k, w.load)
			switch {
			case err != nil:
				w.errs++
			case w.st.shadow[k].Load() != v+1:
				w.wrong++
			case !w.loaded:
				w.hits++
			}
		}
		if sampled || w.timeAll {
			d := int64(time.Since(t0))
			if sampled {
				w.lat = append(w.lat, d)
			}
			w.opNS += d
		}
	}
}

// windowResult is the workers' tallies over one window, summed, with the
// window's elapsed time and process CPU.
type windowResult struct {
	ops, reads, hits, errs, wrong int64
	lat, loads                    samples
	opNS                          int64
	elapsed, cpu                  time.Duration
}

func (r *windowResult) valid() int64 { return r.ops - r.errs - r.wrong }

// runWindow runs all workers for d (or, with d = 0, for count ops each).
func runWindow(ws []*worker, d time.Duration, count int64, timeAll bool) windowResult {
	var stop atomic.Bool
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	t0 := time.Now()
	for _, w := range ws {
		w.reset(timeAll)
	}
	wg.Add(len(ws))
	for _, w := range ws {
		go func(w *worker) {
			defer wg.Done()
			w.run(count, &stop)
		}(w)
	}
	if d > 0 {
		time.Sleep(d)
		stop.Store(true)
	}
	wg.Wait()
	res := windowResult{elapsed: time.Since(t0), cpu: cpuTime() - cpu0}
	for _, w := range ws {
		res.ops += w.ops
		res.reads += w.reads
		res.hits += w.hits
		res.errs += w.errs
		res.wrong += w.wrong
		res.opNS += w.opNS
		res.lat = append(res.lat, w.lat...)
		res.loads = append(res.loads, w.loads...)
	}
	return res
}

// clusterInputs is the generated workload: the key stream and which ops
// are updates.
type clusterInputs struct {
	keys []uint64
	upd  []bool
}

func genClusterInputs(wl clusterWorkload, seed int64) clusterInputs {
	keys := wl.stream(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	upd := make([]bool, len(keys))
	for i := range upd {
		upd[i] = rng.Float64() < wl.updateFrac
	}
	return clusterInputs{keys: keys, upd: upd}
}

// buildCluster builds a stack, warms it and returns it with its workers.
func buildCluster(wl clusterWorkload, seed int64, in clusterInputs, traced bool, rep *report) (*clusterStack, []*worker, error) {
	shadow := make([]atomic.Uint64, clusterStoreItems+1)
	t0 := time.Now()
	st, err := newClusterStack(wl, seed, traced)
	if err != nil {
		return nil, nil, err
	}
	st.shadow = shadow
	ws := make([]*worker, clusterWorkers)
	for i := range ws {
		ws[i] = newWorker(st, in.keys, in.upd, i)
	}
	warm := runWindow(ws, 0, int64(wl.warmOps/clusterWorkers), false)
	rep.setupTimes = append(rep.setupTimes, time.Since(t0).Seconds())
	rep.account(warm.ops, warm.errs+warm.wrong, warm.wrong)
	return st, ws, nil
}

func runCluster(wl clusterWorkload, cfg runConfig, rep *report) error {
	in := genClusterInputs(wl, cfg.seed)
	var st *clusterStack
	var ws []*worker
	for s := 0; s < clusterSetups; s++ {
		if st != nil {
			st.close()
			st, ws = nil, nil
		}
		// Every set-up starts from a collected heap, so whether a GC cycle
		// lands inside the timed set-up does not depend on what ran before.
		runtime.GC()
		var err error
		if st, ws, err = buildCluster(wl, cfg.seed, in, false, rep); err != nil {
			return err
		}
	}
	runtime.GC()
	window := time.Duration(cfg.seconds * 1e9)
	if cfg.trace {
		window /= 2
	}
	a := runWindow(ws, window, 0, false)
	st.close()
	rep.account(a.ops, a.errs+a.wrong, a.wrong)
	if !cfg.trace {
		rep.set("setup_s", medianF(rep.setupTimes), "s", fmt.Sprintf("median of %d set-ups", len(rep.setupTimes)))
		rep.set("goodput_ops", float64(a.valid())/a.elapsed.Seconds(), "ops/s", fmt.Sprintf("%d workers, closed loop", clusterWorkers))
		reportLatency(rep, a.lat, nil, fmt.Sprintf("1 op in %d timed", clusterSampleEvery))
		rep.set("hit_ratio", ratio(float64(a.hits), float64(a.reads)), "ratio", "GetOrLoad calls that never loaded")
		rep.set("cpu_us_per_op", a.cpu.Seconds()*1e6/float64(a.ops), "us", "process user+sys")
		rep.notef("fail_ratio %.6f (errors %d, wrong %d, of %d ops); p999 %.2f us",
			ratio(float64(a.errs+a.wrong), float64(a.ops)), a.errs, a.wrong, a.ops, float64(a.lat.pct(0.999))/1e3)
		return nil
	}
	runtime.GC()
	return traceCluster(wl, cfg, in, a, window, rep)
}

// traceCluster measures the traced half on a fresh stack whose peers are
// timed and whose router, loader and write-behind report to a registry,
// then replays the stream through single layers and prints the ledger.
func traceCluster(wl clusterWorkload, cfg runConfig, in clusterInputs, a windowResult, window time.Duration, rep *report) error {
	st, ws, err := buildCluster(wl, cfg.seed, in, true, rep)
	if err != nil {
		return err
	}
	defer st.close()
	cost := timerCost()

	c0 := counters(st)
	depthMax := 0
	monStop := make(chan struct{})
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-monStop:
				return
			case <-tick.C:
				depthMax = max(depthMax, st.wb.Depth())
			}
		}
	}()
	b := runWindow(ws, window, 0, true)
	close(monStop)
	<-monDone
	c1 := counters(st)
	rep.account(b.ops, b.errs+b.wrong, b.wrong)

	d := func(name string) float64 { return c1.reg[name] - c0.reg[name] }
	qN, qNS, uN, uNS := c1.qN-c0.qN, c1.qNS-c0.qNS, c1.uN-c0.uN, c1.uNS-c0.uNS
	ops := float64(b.ops)
	opNS := (float64(b.opNS) - ops*cost) / ops
	peerNS := (float64(qNS+uNS) - float64(qN+uN)*cost) / ops
	loadNS := (float64(sum(b.loads)) - float64(len(b.loads))*cost) / ops
	selfNS := opNS - peerNS - loadNS

	rep.set("gen.sent", float64(a.ops+b.ops), "count", "ops issued, both halves")
	rep.set("trace.overhead_ratio", ratio(float64(a.valid())/a.elapsed.Seconds(), float64(b.valid())/b.elapsed.Seconds()), "ratio", "untraced/traced goodput")
	rep.set("lat_p999_us", float64(a.lat.pct(0.999))/1e3, "us", fmt.Sprintf("n=%d, untraced half, diagnostic", len(a.lat)))
	rep.set("lat.samples", float64(len(a.lat)), "count", "untraced half")
	rep.set("fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", "error+wrong / attempted")
	rep.set("fail.wrong_values", float64(rep.wrong), "count", "")

	rep.set("router.op_ns", opNS, "ns", fmt.Sprintf("every op timed, clock cost %.0f ns removed", cost))
	rep.set("router.self_ns", selfNS, "ns", "op minus peer calls minus load")
	rep.set("router.peer_ns", peerNS, "ns", "in-situ peer calls per op")
	rep.set("router.peer_calls_per_op", float64(qN+uN)/ops, "ratio", fmt.Sprintf("%d queries, %d updates", qN, uN))
	rep.set("router.fan_reads_per_query", ratio(d("cluster_fan_reads_total"), d("cluster_queries_total")), "ratio", "")
	rep.set("router.hot_keys", float64(len(st.router.HotKeys())), "count", "")
	rep.set("router.replica_fan_fails", d("cluster_replica_fan_fails_total"), "count", "")
	rep.set("router.repairs_queued", d("cluster_repairs_enqueued_total"), "count", "")
	rep.set("router.hints_parked", d("cluster_hints_parked_total"), "count", "")

	loads := b.loads
	rep.set("loader.get_p50_us", float64(loads.pct(0.50))/1e3, "us", fmt.Sprintf("n=%d", len(loads)))
	rep.set("loader.get_p99_us", float64(loads.pct(0.99))/1e3, "us", fmt.Sprintf("n=%d", len(loads)))
	rep.set("loader.coalesced_ratio", ratio(d("backing_coalesced_total"), d("backing_loads_total")), "ratio", "")
	rep.set("loader.retries", d("backing_retries_total"), "count", "")
	rep.set("btree.nodes_per_walk", ratio(float64(c1.nodes-c0.nodes), float64(c1.walks-c0.walks)), "ratio", "")
	rep.set("writebehind.offered", float64(c1.offered-c0.offered), "count", "")
	rep.set("writebehind.dropped", float64(c1.dropped-c0.dropped), "count", "")
	rep.set("writebehind.depth_max", float64(depthMax), "count", "sampled every 1ms")

	var occ float64
	var drops uint64
	for _, e := range st.engines {
		occ += ratio(float64(e.Len()), float64(e.Capacity()))
		drops += e.Dropped()
	}
	er, err := replayEngine(wl.spec(cfg.seed), runtime.GOMAXPROCS(0), in.keys, in.upd, false)
	if err != nil {
		return err
	}
	er.report(rep, occ/float64(len(st.engines)), float64(drops))
	replayLRU(3, er.capacity, uint64(cfg.seed), in.keys, rep)
	// The wire is not on this path; its rows (and the generator rows) come
	// from driving this stream's keys through the wire stack on their own.
	if err := wireSubRun(cfg, in.keys, rep); err != nil {
		return err
	}

	// Ledger: the router's own time and the loads are in-situ rows; the
	// peer calls are priced at the isolated engine replay's per-call cost.
	// The residual is what running the engines inside the cluster costs
	// beyond running them alone.
	engineRow := (float64(qN)*er.queryNS + float64(uN)*er.applyNS) / ops
	rows := selfNS + engineRow + loadNS
	rep.set("ledger.residual_ratio", ratio(opNS-rows, opNS), "ratio",
		fmt.Sprintf("op %.0f ns, rows %.0f ns, tolerance ±%.2f", opNS, rows, ledgerTolerance))
	return nil
}

// counterSet is a snapshot of the traced stack's counters.
type counterSet struct {
	reg              map[string]float64
	qN, qNS, uN, uNS int64
	walks, nodes     uint64
	offered, dropped uint64
}

func counters(st *clusterStack) counterSet {
	c := counterSet{reg: map[string]float64{}}
	for _, n := range []string{
		"cluster_queries_total", "cluster_fan_reads_total", "cluster_replica_fan_fails_total",
		"cluster_repairs_enqueued_total", "cluster_hints_parked_total",
		"backing_loads_total", "backing_coalesced_total", "backing_retries_total",
	} {
		c.reg[n] = float64(st.reg.CounterValue(n))
	}
	for _, p := range st.peers {
		q, qs, u, us := p.totals()
		c.qN, c.qNS, c.uN, c.uNS = c.qN+q, c.qNS+qs, c.uN+u, c.uNS+us
	}
	c.walks, _, c.nodes = st.store.Stats()
	c.offered, _, c.dropped, _ = st.wb.Stats()
	return c
}

func sum(s samples) int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

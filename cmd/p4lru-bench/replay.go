package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/p4lru/p4lru/internal/backing"
	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/resilience"
	"github.com/p4lru/p4lru/internal/trace"
)

// replayCmd drives the sharded serving engine with a packet trace from N
// concurrent replay goroutines: the throughput counterpart of `run`, which
// measures policy quality single-threaded. Each goroutine owns a stride
// partition of the trace and a batching Submitter; queries go through the
// engine's read path and misses are submitted as updates, so the workload
// exercises both sides of the single-writer-per-shard design.
//
// With -backing the replay switches to look-through serving: misses fetch
// from the named backing store through the loader (coalesced, bounded,
// retried, optionally hedged) and the report adds end-to-end miss-latency
// quantiles and the loader/write-behind accounting.
func replayCmd(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	traceFile := fs.String("trace", "", "trace file (P4LT); synthesized when empty")
	packets := fs.Int("packets", 2_000_000, "synthesized packets")
	flows := fs.Int("flows", 50_000, "synthesized base flows")
	segments := fs.Int("segments", 60, "CAIDA_n segments")
	seed := fs.Int64("seed", 1, "seed")
	pol := fs.String("policy", "p4lru3", "policy spec (kind[:key=value,...])")
	mem := fs.Int("mem", 400*1024, "total cache memory (bytes)")
	shards := fs.Int("shards", 0, "engine shards (0 = GOMAXPROCS)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "replay goroutines")
	batch := fs.Int("batch", 0, "submit batch size (0 = engine default)")
	queue := fs.Int("queue", 0, "per-shard queue depth in batches (0 = engine default)")
	block := fs.Bool("block", false, "block on full queues instead of dropping")
	metricsAddr := fs.String("metrics", "", "serve /metrics and pprof on this address during the run")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the replay to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at the end of the replay to this file")
	backingSpec := fs.String("backing", "",
		"serve look-through against a backing store: map[:k=v,...], btree[:k=v,...], or remote:host:port")
	attempts := fs.Int("attempts", 3, "miss-path fetch attempts per load (with -backing)")
	fetchTimeout := fs.Duration("fetch-timeout", 100*time.Millisecond, "per-attempt fetch timeout (with -backing)")
	hedge := fs.Duration("hedge", 0, "hedged second fetch after this delay; 0 disables (with -backing)")
	inflight := fs.Int("inflight", 64, "max concurrent store fetches (with -backing)")
	writeBehind := fs.Bool("writebehind", false, "drain evictions into the backing store (with -backing)")
	snapshotPath := fs.String("snapshot", "",
		"snapshot file: restored at start when present, written on exit (warm restarts across SIGTERM)")
	shedTarget := fs.Duration("shed-target", 0,
		"enable load shedding with this EWMA latency target; 0 disables")
	useBreaker := fs.Bool("breaker", false,
		"wrap backing fetches in a circuit breaker so a blacked-out store fails fast (with -backing)")
	spansOn := fs.Bool("spans", true,
		"per-op stage tracing: span histograms, tail-sampled ring captures, /debug/ops (with -metrics)")
	spanSample := fs.Int("span-sample", 8192,
		"uniform span capture period, 1 in N ops (ops over the live p99 threshold are always captured)")
	console := fs.Bool("console", false,
		"live ops console: per-shard queue heatmap, per-stage p50/p99, slowest waterfalls")
	progress := fs.Bool("progress", true,
		"one-line live progress on stderr (throughput, hit ratio, p99 miss latency)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *console {
		*spansOn = true // the console reads the tracer's rings
	}
	if *writeBehind && *backingSpec == "" {
		return fmt.Errorf("-writebehind requires -backing")
	}
	if *useBreaker && *backingSpec == "" {
		return fmt.Errorf("-breaker requires -backing")
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be ≥ 1")
	}
	// SIGINT/SIGTERM interrupts the replay instead of killing it: workers
	// stop at the next checkpoint, the engine drains, and the report (and
	// snapshot, if requested) covers the completed prefix. Installed before
	// the slow pieces (trace load, store dial) so a signal at any point
	// gets the graceful path.
	runCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "p4lru-bench:", perr)
		}
	}()

	spec, err := policy.ParseSpec(*pol)
	if err != nil {
		return err
	}
	if spec.MemBytes == 0 {
		spec.MemBytes = *mem
	}
	if spec.Seed == 0 {
		spec.Seed = uint64(*seed)
	}

	// Serve metrics before the (potentially slow) trace load so the
	// endpoint is scrapeable for the whole run. Health checks register as
	// the pieces come up, so /readyz starts strict and relaxes into ready.
	health := resilience.NewHealth()
	var reg *obs.Registry
	// The backing-mode report and the progress/console UIs read metrics back
	// out of the registry, so those modes get one even without -metrics.
	if *metricsAddr != "" || *backingSpec != "" || *spansOn || *progress {
		reg = obs.Default()
	}

	// The tracer exists before the HTTP listener so /debug/ops is mounted
	// (and scrapeable) for the whole run, like /metrics.
	var tracer *span.Tracer
	if *spansOn {
		traceShards := *shards
		if traceShards <= 0 {
			traceShards = runtime.GOMAXPROCS(0)
		}
		tracer = span.New(span.Config{Shards: traceShards, SampleN: *spanSample, Obs: reg})
		tracer.SetEnabled(true)
	}

	if *metricsAddr != "" {
		addr, err := serveOps(*metricsAddr, reg, health, tracer)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics  ops: http://%s/debug/ops  ready: http://%s/readyz\n",
			addr, addr, addr)
	}

	var shedder *resilience.Shedder
	if *shedTarget > 0 {
		shedder = resilience.NewShedder(resilience.ShedderConfig{TargetLatency: *shedTarget, Obs: reg})
		health.Register("shedder", shedder.Check)
	}

	tr, err := loadReplayTrace(*traceFile, *packets, *flows, *segments, *seed)
	if err != nil {
		return err
	}
	if len(tr.Packets) == 0 {
		return fmt.Errorf("empty trace")
	}

	store, closeStore, err := buildBackingStore(*backingSpec, *parallel, *fetchTimeout)
	if err != nil {
		return err
	}
	defer closeStore()

	engCfg := engine.Config{
		Shards:     *shards,
		QueueDepth: *queue,
		BatchSize:  *batch,
		Seed:       uint64(*seed),
		Block:      *block,
		Obs:        reg,
		Shedder:    shedder,
		Span:       tracer,
	}
	var wb *backing.WriteBehind
	if *writeBehind {
		wb = backing.NewWriteBehind(store, backing.WriteBehindConfig{Seed: uint64(*seed), Obs: reg})
		defer wb.Close()
		engCfg.OnEvict = wb.OnEvict
	}

	eng, err := engine.NewFromSpec(spec, engCfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	health.Register("engine", eng.Healthy)

	if *snapshotPath != "" {
		if f, err := os.Open(*snapshotPath); err == nil {
			n, rerr := eng.RestoreSnapshot(f)
			f.Close()
			if rerr != nil {
				fmt.Fprintf(os.Stderr, "p4lru-bench: snapshot restore: %v (starting cold)\n", rerr)
			} else {
				fmt.Fprintf(os.Stderr, "snapshot: restored %d entries from %s\n", n, *snapshotPath)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}

	var tiered *engine.Tiered
	if store != nil {
		var breaker *resilience.Breaker
		if *useBreaker {
			breaker = resilience.NewBreaker(resilience.BreakerConfig{Name: "backing", Obs: reg})
			health.Register("breaker", breaker.Check)
		}
		tiered = engine.NewTiered(eng, store, backing.LoaderConfig{
			Attempts:    *attempts,
			Timeout:     *fetchTimeout,
			Hedge:       *hedge,
			MaxInflight: *inflight,
			Seed:        uint64(*seed),
			Obs:         reg,
			Breaker:     breaker,
		})
	}

	// Stride-partition the trace: worker w replays packets w, w+P, w+2P, …
	// so every worker sees the same mix of hot and cold flows and all of
	// them hit every shard — the adversarial case for shard routing.
	var hits, queries, loadErrs atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *parallel; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sub := eng.NewSubmitter()
			defer sub.Flush()
			ctx := runCtx
			var localHits, localQueries, localErrs uint64
			for i, n := w, 0; i < len(tr.Packets); i, n = i+*parallel, n+1 {
				if n&0xfff == 0 {
					if runCtx.Err() != nil {
						break
					}
					// Publish the local counters so the live progress line
					// and the console see fresh numbers mid-run.
					hits.Add(localHits)
					queries.Add(localQueries)
					loadErrs.Add(localErrs)
					localHits, localQueries, localErrs = 0, 0, 0
				}
				p := tr.Packets[i]
				localQueries++
				if tiered == nil {
					_, tok, ok := eng.Query(p.Flow)
					if ok {
						localHits++
					}
					sub.Submit(engine.Op{Key: p.Flow, Value: uint64(p.Size), Token: tok, Now: p.Time})
					continue
				}
				// Look-through: hits promote with their token; misses are
				// fetched (and installed by the loader's fill hook).
				v, tok, hit, err := tiered.GetOrLoad(ctx, p.Flow)
				switch {
				case err != nil:
					localErrs++
				case hit:
					localHits++
					sub.Submit(engine.Op{Key: p.Flow, Value: v, Token: tok, Now: p.Time})
				}
			}
			hits.Add(localHits)
			queries.Add(localQueries)
			loadErrs.Add(localErrs)
		}(w)
	}
	stopUI := func() {}
	switch {
	case *console:
		stopUI = startConsole(eng, tracer, reg, &hits, &queries, start)
	case *progress:
		stopUI = startProgress(reg, &hits, &queries, start)
	}
	wg.Wait()
	stopUI()
	interrupted := runCtx.Err() != nil
	if interrupted {
		fmt.Fprintln(os.Stderr, "p4lru-bench: interrupted — draining engine")
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if derr := eng.Drain(drainCtx); derr != nil {
			fmt.Fprintln(os.Stderr, "p4lru-bench: drain:", derr)
		}
		cancel()
	} else {
		eng.Flush()
	}
	wall := time.Since(start)

	q := queries.Load()
	if interrupted {
		fmt.Printf("interrupted=true completedPrefix=%d of %d\n", q, len(tr.Packets))
	}
	fmt.Printf("engine=%s shards=%d parallel=%d mem=%dB entries=%d\n",
		eng.Name(), eng.Shards(), *parallel, spec.MemBytes, eng.Capacity())
	fmt.Printf("packets=%d wall=%v throughput=%.2fM pkt/s\n",
		q, wall.Round(time.Millisecond), float64(q)/wall.Seconds()/1e6)
	hitRate := 0.0
	if q > 0 {
		hitRate = float64(hits.Load()) / float64(q)
	}
	fmt.Printf("hitRate=%.4f dropped=%d occupancy=%d\n", hitRate, eng.Dropped(), eng.Len())
	for i, s := range eng.Stats() {
		fmt.Printf("shard %2d: submitted=%d applied=%d dropped=%d len=%d\n",
			i, s.Submitted, s.Applied, s.Dropped, s.Len)
	}
	if tiered != nil {
		reportBacking(reg, *backingSpec, loadErrs.Load(), wb)
	}
	if tracer != nil {
		recorded, captured := tracer.Stats()
		fmt.Printf("spans recorded=%d captured=%d tailThreshold=%v\n",
			recorded, captured, tracer.TailThreshold().Round(time.Microsecond))
		for _, rec := range tracer.Slowest(3) {
			fmt.Println("  " + rec.Waterfall())
		}
	}
	if *snapshotPath != "" {
		if err := writeSnapshot(eng, *snapshotPath); err != nil {
			fmt.Fprintln(os.Stderr, "p4lru-bench: snapshot:", err)
		} else {
			fmt.Fprintf(os.Stderr, "snapshot: wrote %d entries to %s\n", eng.Len(), *snapshotPath)
		}
	}
	return nil
}

// serveOps serves the registry plus health probes on one listener: the obs
// handler at its usual paths, the resilience aggregator on /healthz and
// /readyz, and — when tracing — the captured-trace waterfalls on /debug/ops.
func serveOps(addr string, reg *obs.Registry, health *resilience.Health, tracer *span.Tracer) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	reg.PublishExpvar("p4lru")
	mux := http.NewServeMux()
	mux.Handle("/", reg.Handler())
	mux.Handle("/healthz", health)
	mux.Handle("/readyz", health)
	if tracer != nil {
		mux.Handle("/debug/ops", tracer.Handler())
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// writeSnapshot writes the engine snapshot atomically (tmp file + rename) so
// a crash mid-write can't clobber the previous good image.
func writeSnapshot(eng *engine.Engine, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := eng.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// buildBackingStore resolves the -backing spec. "remote:host:port" dials the
// wire protocol with one pooled client per replay goroutine; everything else
// goes through backing.ParseStore. A nil store (empty spec) means the classic
// query+submit replay.
func buildBackingStore(spec string, pool int, timeout time.Duration) (backing.Store, func(), error) {
	noop := func() {}
	if spec == "" {
		return nil, noop, nil
	}
	if rest, ok := strings.CutPrefix(spec, "remote:"); ok {
		addr, err := net.ResolveUDPAddr("udp", rest)
		if err != nil {
			return nil, noop, fmt.Errorf("-backing %q: %w", spec, err)
		}
		// The loader's attempt budget already retries; give each wire client
		// a single shot per loader attempt.
		rs, err := netproto.NewRemoteStore(addr, pool, timeout, netproto.NoRetries)
		if err != nil {
			return nil, noop, err
		}
		return rs, rs.Close, nil
	}
	st, err := backing.ParseStore(spec)
	if err != nil {
		return nil, noop, err
	}
	return st, noop, nil
}

// reportBacking prints the miss-path section of the replay report: hit/miss
// split, end-to-end miss-latency quantiles from the loader histogram, and
// the loader and write-behind accounting.
func reportBacking(reg *obs.Registry, spec string, loadErrs uint64, wb *backing.WriteBehind) {
	snap := reg.Snapshot()
	h := snap.Histograms["backing_miss_latency_seconds"]
	secs := func(q float64) time.Duration {
		return time.Duration(h.Quantile(q)).Round(time.Microsecond)
	}
	fmt.Printf("backing=%s loadErrors=%d\n", spec, loadErrs)
	fmt.Printf("missLatency n=%d p50=%v p90=%v p99=%v\n",
		h.Count, secs(0.50), secs(0.90), secs(0.99))
	fmt.Printf("loader loads=%d fetches=%d coalesced=%d retries=%d hedges=%d errors=%d\n",
		reg.CounterValue("backing_loads_total"),
		reg.CounterValue("backing_fetches_total"),
		reg.CounterValue("backing_coalesced_total"),
		reg.CounterValue("backing_retries_total"),
		reg.CounterValue("backing_hedges_total"),
		reg.CounterValue("backing_errors_total"))
	if wb != nil {
		wb.Flush()
		offered, drained, dropped, failures := wb.Stats()
		fmt.Printf("writeBehind offered=%d drained=%d dropped=%d failures=%d\n",
			offered, drained, dropped, failures)
	}
}

func loadReplayTrace(file string, packets, flows, segments int, seed int64) (*trace.Trace, error) {
	if file == "" {
		return trace.Synthesize(trace.SynthConfig{
			Packets:   packets,
			BaseFlows: flows,
			Segments:  segments,
			Duration:  time.Second,
			Seed:      seed,
		}), nil
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

package backing

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/obs"
)

// WriteBehindConfig parameterizes NewWriteBehind.
type WriteBehindConfig struct {
	// QueueDepth bounds the dirty-pair queue (0 = 1024). Offer on a full
	// queue drops the pair and counts it — replacement must never stall
	// the cache behind a slow store.
	QueueDepth int
	// Workers is the number of drain goroutines (0 = 1).
	Workers int
	// Attempts, Timeout, Backoff and BackoffCap shape each Put's retry
	// loop, with the same semantics as LoaderConfig (0 = 3 attempts,
	// 100ms timeout, 1ms backoff doubling to a 50ms cap).
	Attempts   int
	Timeout    time.Duration
	Backoff    time.Duration
	BackoffCap time.Duration
	// Seed drives the backoff jitter.
	Seed uint64
	// Obs, when non-nil, receives backing_writebehind_puts_total,
	// backing_writebehind_errors_total, backing_writebehind_drops_total
	// and the backing_writebehind_depth gauge.
	Obs *obs.Registry
}

func (c WriteBehindConfig) withDefaults() WriteBehindConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.Timeout <= 0 {
		c.Timeout = 100 * time.Millisecond
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 50 * time.Millisecond
	}
	return c
}

type dirtyPair struct{ key, val uint64 }

// WriteBehind drains evicted (key, value) pairs into a Store asynchronously:
// a bounded queue absorbs eviction bursts, worker goroutines apply Puts with
// the same timeout/backoff discipline the Loader uses, and a full queue
// sheds (and counts) rather than stalling the evicting writer. Offer is safe
// to call from engine shard writers (it never blocks and never panics after
// Close).
type WriteBehind struct {
	store Store
	cfg   WriteBehindConfig

	queue chan dirtyPair
	wg    sync.WaitGroup

	lifeMu sync.RWMutex
	closed bool

	offered atomic.Uint64 // pairs accepted into the queue
	drained atomic.Uint64 // pairs whose Put completed (or exhausted retries)
	drops   atomic.Uint64 // pairs shed on a full queue or after Close
	errors  atomic.Uint64 // pairs whose retry budget ran out

	jitterState atomic.Uint64

	puts, putErrs, dropped *obs.Counter
}

// NewWriteBehind builds and starts the drainer; it serves until Close.
func NewWriteBehind(store Store, cfg WriteBehindConfig) *WriteBehind {
	if store == nil {
		panic("backing: NewWriteBehind(nil store)")
	}
	cfg = cfg.withDefaults()
	w := &WriteBehind{
		store: store,
		cfg:   cfg,
		queue: make(chan dirtyPair, cfg.QueueDepth),
	}
	w.jitterState.Store(cfg.Seed*0x9e3779b97f4a7c15 + 0xd1f7ba11)
	if r := cfg.Obs; r != nil {
		w.puts = r.Counter("backing_writebehind_puts_total")
		w.putErrs = r.Counter("backing_writebehind_errors_total")
		w.dropped = r.Counter("backing_writebehind_drops_total")
		r.GaugeFunc("backing_writebehind_depth", func() float64 { return float64(len(w.queue)) })
	}
	w.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go w.worker()
	}
	return w
}

// Offer enqueues one dirty pair, reporting whether it was accepted. A full
// queue or a closed drainer drops the pair and counts it.
func (w *WriteBehind) Offer(key, val uint64) bool {
	w.lifeMu.RLock()
	defer w.lifeMu.RUnlock()
	if w.closed {
		w.drops.Add(1)
		w.dropped.Inc()
		return false
	}
	select {
	case w.queue <- dirtyPair{key, val}:
		w.offered.Add(1)
		return true
	default:
		w.drops.Add(1)
		w.dropped.Inc()
		return false
	}
}

// OnEvict adapts Offer to the engine's eviction-hook signature.
func (w *WriteBehind) OnEvict(key, val uint64) { w.Offer(key, val) }

// worker drains pairs until the queue closes.
func (w *WriteBehind) worker() {
	defer w.wg.Done()
	for p := range w.queue {
		w.drain(p)
		w.drained.Add(1)
	}
}

// drain applies one Put with per-attempt timeouts and capped, jittered
// exponential backoff. A pair whose budget runs out is counted, not
// requeued — write-behind is best-effort by design.
func (w *WriteBehind) drain(p dirtyPair) {
	backoff := w.cfg.Backoff
	for attempt := 0; attempt < w.cfg.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(w.jitter(backoff))
			backoff *= 2
			if backoff > w.cfg.BackoffCap {
				backoff = w.cfg.BackoffCap
			}
		}
		ctx := newAttemptCtx(context.Background(), w.cfg.Timeout)
		err := w.store.Put(ctx, p.key, p.val)
		ctx.cancel()
		if err == nil {
			w.puts.Inc()
			return
		}
	}
	w.errors.Add(1)
	w.putErrs.Inc()
}

// jitter maps a base delay to [base/2, base), like the Loader's.
func (w *WriteBehind) jitter(base time.Duration) time.Duration {
	if base <= 1 {
		return base
	}
	x := w.jitterState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	half := uint64(base / 2)
	return time.Duration(half + x%half)
}

// Flush blocks until every pair offered before the call has been drained
// (successfully or past its retry budget).
func (w *WriteBehind) Flush() {
	target := w.offered.Load()
	for w.drained.Load() < target {
		time.Sleep(100 * time.Microsecond)
	}
}

// Close drains the queued pairs, stops the workers and waits for them.
// Offer after Close reports false. Close is idempotent.
func (w *WriteBehind) Close() {
	w.lifeMu.Lock()
	if w.closed {
		w.lifeMu.Unlock()
		return
	}
	w.closed = true
	close(w.queue)
	w.lifeMu.Unlock()
	w.wg.Wait()
}

// Stats returns (offered, drained, dropped, put-failures).
func (w *WriteBehind) Stats() (offered, drained, dropped, failures uint64) {
	return w.offered.Load(), w.drained.Load(), w.drops.Load(), w.errors.Load()
}

// Depth returns the pairs currently queued.
func (w *WriteBehind) Depth() int { return len(w.queue) }

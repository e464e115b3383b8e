package backing

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/resilience"
)

// ErrCircuitOpen reports a Get rejected by the loader's circuit breaker
// without touching the store: the backend is known-dark and the miss fails
// fast instead of burning the retry budget. It wraps resilience.ErrOpen.
var ErrCircuitOpen = fmt.Errorf("backing: miss rejected: %w", resilience.ErrOpen)

// LoaderConfig parameterizes NewLoader. The zero value gets sane defaults.
type LoaderConfig struct {
	// Attempts is the total store round trips one Get may spend, hedges
	// excluded (0 = 3). ErrNotFound is definitive and never retried.
	Attempts int
	// Timeout bounds each attempt via a derived context (0 = 100ms). The
	// context checks the clock in Err and arms a timer only when a store
	// waits on Done.
	Timeout time.Duration
	// Backoff is the delay before the first retry; it doubles per retry
	// up to BackoffCap (0 = 1ms).
	Backoff time.Duration
	// BackoffCap caps the exponential backoff (0 = 50ms).
	BackoffCap time.Duration
	// Hedge, when positive and below Timeout, launches a second identical
	// request if the first has not resolved within this delay; the first
	// result wins. 0 disables hedging.
	Hedge time.Duration
	// MaxInflight bounds concurrent store fetches across all keys
	// (0 = 64). Coalesced waiters do not consume slots.
	MaxInflight int
	// Seed drives the deterministic backoff jitter.
	Seed uint64
	// Fill, when non-nil, is invoked exactly once per successful fetch
	// (by the singleflight leader, before waiters are released) — the hook
	// the tiered engine uses to install the value via its batch path.
	Fill func(key, val uint64)
	// Breaker, when non-nil, wraps the store in a circuit: every attempt
	// asks Allow first and records its outcome (a definitive ErrNotFound
	// counts as success — the store answered). While the circuit is open,
	// Get fails immediately with ErrCircuitOpen instead of spending
	// attempts against a dark backend; half-open probes ride the normal
	// attempt path. nil disables the circuit.
	Breaker *resilience.Breaker
	// Obs, when non-nil, receives the loader metrics: backing_loads_total,
	// backing_fetches_total, backing_coalesced_total, backing_retries_total,
	// backing_hedges_total, backing_errors_total, backing_inflight and the
	// backing_miss_latency_seconds histogram. nil costs nothing.
	Obs *obs.Registry
}

func (c LoaderConfig) withDefaults() LoaderConfig {
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
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	return c
}

// call is one in-flight singleflight fetch; waiters block on done.
type call struct {
	done chan struct{}
	val  uint64
	err  error
}

// Loader is the miss path: it fetches absent keys from a Store with
// coalescing, bounded concurrency, per-attempt timeouts, capped exponential
// backoff with deterministic jitter, and optional hedging. Safe for
// concurrent use.
type Loader struct {
	store Store
	cfg   LoaderConfig

	mu    sync.Mutex
	calls map[uint64]*call
	sem   chan struct{}

	jitterState atomic.Uint64

	loads, fetches, coalesced *obs.Counter
	retries, hedges, errs     *obs.Counter
	inflight                  *obs.Gauge
	missLatency               *obs.Histogram
}

// NewLoader builds a Loader over store.
func NewLoader(store Store, cfg LoaderConfig) *Loader {
	if store == nil {
		panic("backing: NewLoader(nil store)")
	}
	cfg = cfg.withDefaults()
	l := &Loader{
		store: store,
		cfg:   cfg,
		calls: make(map[uint64]*call),
		sem:   make(chan struct{}, cfg.MaxInflight),
	}
	l.jitterState.Store(cfg.Seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	if r := cfg.Obs; r != nil {
		l.loads = r.Counter("backing_loads_total")
		l.fetches = r.Counter("backing_fetches_total")
		l.coalesced = r.Counter("backing_coalesced_total")
		l.retries = r.Counter("backing_retries_total")
		l.hedges = r.Counter("backing_hedges_total")
		l.errs = r.Counter("backing_errors_total")
		l.inflight = r.Gauge("backing_inflight")
		l.missLatency = r.Histogram("backing_miss_latency_seconds", obs.UnitSeconds)
	}
	return l
}

// Get resolves key through the store. Concurrent Gets for the same key
// coalesce into one fetch whose result they all share; the caller's ctx
// still bounds its own wait. The fetch itself retries transient errors
// within the attempt budget, so a Get returns within roughly
// Attempts × Timeout plus the backoff sleeps (each ≤ BackoffCap).
func (l *Loader) Get(ctx context.Context, key uint64) (uint64, error) {
	return l.get(ctx, key, nil)
}

// GetSpanned is Get for callers carrying an open trace span. Per-attempt
// boundaries land in the span — StageFetch is time inside store round trips,
// StageMiss is everything around them (coalescing waits, inflight-slot
// waits, backoff sleeps) — and the span's flags record retries, hedges,
// breaker rejections and coalescing. The span is only ever touched from the
// calling goroutine (hedge requests race on their own goroutines and never
// see it), and the caller keeps ownership: the loader never finishes it.
// A nil or inactive sp degrades to Get.
func (l *Loader) GetSpanned(ctx context.Context, key uint64, sp *span.Span) (uint64, error) {
	return l.get(ctx, key, sp)
}

func (l *Loader) get(ctx context.Context, key uint64, sp *span.Span) (uint64, error) {
	l.loads.Inc()
	l.mu.Lock()
	if c, ok := l.calls[key]; ok {
		l.mu.Unlock()
		l.coalesced.Inc()
		sp.SetFlags(span.FlagCoalesced)
		select {
		case <-c.done:
			sp.Mark(span.StageMiss) // waited on another Get's fetch
			return c.val, c.err
		case <-ctx.Done():
			sp.Mark(span.StageMiss)
			return 0, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	l.calls[key] = c
	l.mu.Unlock()

	var start time.Time
	if l.missLatency != nil {
		start = time.Now() // only a metered loader pays for the clock
	}
	c.val, c.err = l.lead(ctx, key, sp)
	if c.err != nil {
		l.errs.Inc()
	} else if l.cfg.Fill != nil {
		// Install before releasing waiters: anything that observed the
		// fetch also observes the cache fill (or at least its submission).
		l.cfg.Fill(key, c.val)
	}
	if l.missLatency != nil {
		l.missLatency.Observe(int64(time.Since(start)))
	}

	// Retire the flight before releasing waiters so a Get arriving after
	// the result is sealed starts a fresh fetch instead of reading stale
	// state.
	l.mu.Lock()
	delete(l.calls, key)
	l.mu.Unlock()
	close(c.done)
	return c.val, c.err
}

// lead is the singleflight leader's path: acquire an in-flight slot, then
// run the retry loop.
func (l *Loader) lead(ctx context.Context, key uint64, sp *span.Span) (uint64, error) {
	select {
	case l.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	l.inflight.Add(1)
	defer func() {
		<-l.sem
		l.inflight.Add(-1)
	}()

	backoff := l.cfg.Backoff
	var lastErr error
	for attempt := 0; attempt < l.cfg.Attempts; attempt++ {
		if attempt > 0 {
			l.retries.Inc()
			sp.SetFlags(span.FlagRetried)
			select {
			case <-time.After(l.jitter(backoff)):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			backoff *= 2
			if backoff > l.cfg.BackoffCap {
				backoff = l.cfg.BackoffCap
			}
		}
		// The circuit gate: while open, fail the whole Get immediately —
		// no attempts, no backoff sleeps — so a dark backend costs one
		// check instead of the full retry budget. Checked per attempt, not
		// just on entry, so a circuit tripped by concurrent fetches stops
		// this one's remaining retries too.
		if !l.cfg.Breaker.Allow() {
			sp.SetFlags(span.FlagBreakerOpen)
			sp.Mark(span.StageMiss)
			if lastErr != nil {
				return 0, fmt.Errorf("%w (after %d attempts, last: %v)", ErrCircuitOpen, attempt, lastErr)
			}
			return 0, ErrCircuitOpen
		}
		sp.IncAttempts()
		sp.Mark(span.StageMiss) // slot acquisition + backoff sleeps since the last boundary
		v, err := l.attempt(ctx, key, sp)
		sp.Mark(span.StageFetch) // the store round trip (hedges included)
		switch {
		case err == nil:
			l.cfg.Breaker.Record(true)
			return v, nil
		case errors.Is(err, ErrNotFound):
			// A definitive miss proves the store answered: circuit success.
			l.cfg.Breaker.Record(true)
			return 0, err
		case ctx.Err() != nil:
			// The caller gave up; that proves nothing about the store.
			l.cfg.Breaker.Cancel()
			return 0, ctx.Err()
		default:
			l.cfg.Breaker.Record(false)
		}
		lastErr = err
	}
	return 0, fmt.Errorf("backing: %d attempts failed: %w", l.cfg.Attempts, lastErr)
}

// attempt is one bounded store round trip, hedged when configured: if the
// primary request has not resolved within Hedge, an identical second request
// races it and the first result wins. The shared per-attempt context reaps
// the loser; it arms a timer only if the store (or the hedge race) waits on
// its Done.
func (l *Loader) attempt(ctx context.Context, key uint64, sp *span.Span) (uint64, error) {
	actx := newAttemptCtx(ctx, l.cfg.Timeout)
	defer actx.cancel()
	l.fetches.Inc()
	if l.cfg.Hedge <= 0 || l.cfg.Hedge >= l.cfg.Timeout {
		return l.store.Get(actx, key)
	}

	type result struct {
		val uint64
		err error
	}
	ch := make(chan result, 2) // buffered: the losing request never blocks
	launch := func() {
		go func() {
			v, err := l.store.Get(actx, key)
			ch <- result{v, err}
		}()
	}
	launch()
	pending, hedged := 1, false
	timer := time.NewTimer(l.cfg.Hedge)
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				return r.val, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				return 0, firstErr
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				l.hedges.Inc()
				l.fetches.Inc()
				sp.SetFlags(span.FlagHedged) // lead goroutine only: hedges never touch sp
				launch()
				pending++
			}
		case <-actx.Done():
			return 0, actx.Err()
		}
	}
}

// jitter maps a base delay to [base/2, base): "equal jitter", drawn from a
// seeded lock-free splitmix64 sequence so runs are reproducible.
func (l *Loader) jitter(base time.Duration) time.Duration {
	if base <= 1 {
		return base
	}
	x := l.jitterState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	half := uint64(base / 2)
	return time.Duration(half + x%half)
}

// Inflight returns the number of fetches currently holding slots.
func (l *Loader) Inflight() int { return len(l.sem) }

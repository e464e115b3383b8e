package resilience

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/obs"
)

// State is a breaker's position in the closed → open → half-open cycle.
type State int32

const (
	// Closed is the healthy state: calls flow, failures are counted.
	Closed State = iota
	// HalfOpen admits a bounded number of probe calls after the cool-down;
	// their outcomes decide between Closed and Open.
	HalfOpen
	// Open rejects every call until the cool-down elapses.
	Open
)

// String names the state for metrics and health reports.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	default:
		return "invalid"
	}
}

// BreakerConfig parameterizes NewBreaker. The zero value gets sane defaults.
type BreakerConfig struct {
	// ConsecutiveFailures opens the breaker after this many failures in a
	// row (0 = 5).
	ConsecutiveFailures int
	// FailureRatio additionally opens the breaker when the failure fraction
	// over the last Window outcomes reaches this value — catches a store
	// that fails often but never quite consecutively. 0 disables the ratio
	// trip; values are clamped to (0, 1].
	FailureRatio float64
	// Window is the number of recent outcomes the ratio is computed over
	// (0 = 32). A ratio trip needs at least Window/2 recorded outcomes, so
	// a single early failure cannot open the breaker.
	Window int
	// OpenFor is the cool-down an open breaker waits before letting
	// half-open probes through (0 = 500ms).
	OpenFor time.Duration
	// HalfOpenProbes is both the number of concurrent probes half-open
	// admits and the number of consecutive probe successes that close the
	// breaker (0 = 3). Any probe failure reopens it.
	HalfOpenProbes int
	// Clock supplies the time source (nil = time.Now). Tests inject a
	// virtual clock here so cool-downs are deterministic.
	Clock func() time.Time
	// Name labels the breaker's metrics, e.g. `{name="backing"}`.
	Name string
	// OnStateChange, when non-nil, observes every state transition. It runs
	// after the breaker's lock is released, on the goroutine whose Allow or
	// Record caused the transition — callbacks may call back into the
	// breaker, but slow callbacks delay that caller. The cluster tier hangs
	// hint-log replay off the open → closed recovery edge here.
	OnStateChange func(name string, from, to State)
	// Obs, when non-nil, receives resilience_breaker_state,
	// resilience_breaker_opens_total, resilience_breaker_rejected_total and
	// resilience_breaker_probes_total. nil costs nothing.
	Obs *obs.Registry
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.ConsecutiveFailures <= 0 {
		c.ConsecutiveFailures = 5
	}
	if c.FailureRatio > 1 {
		c.FailureRatio = 1
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 500 * time.Millisecond
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 3
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is a circuit breaker: Allow before the call, Record after.
// Closed, every call flows and outcomes are tallied; a run of consecutive
// failures (or a failure ratio over the rolling window) trips it Open, which
// rejects calls instantly until the cool-down elapses; then HalfOpen admits
// a few probes whose outcomes either close it again or re-open it.
//
// Safe for concurrent use. Allow and Record are mutex-guarded but
// allocation-free — the breaker sits on the miss path, never the hit path,
// so a short critical section is cheap relative to a store round trip.
type Breaker struct {
	cfg BreakerConfig

	// liveState mirrors state for the lock-free Live() read path; setState
	// is the only writer.
	liveState atomic.Int32
	// clean mirrors "closed, a full window of successes, no failure run" —
	// the state a success cannot change — for RecordLive's lock-free skip.
	// Written under mu.
	clean atomic.Bool

	mu          sync.Mutex
	state       State
	consecutive int       // consecutive failures while closed
	window      []bool    // ring of recent outcomes (true = failure)
	windowLen   int       // outcomes recorded, ≤ len(window)
	windowPos   int       // next ring slot
	windowFails int       // failures among the windowLen recorded outcomes
	openedAt    time.Time // when the breaker last tripped
	probes      int       // probes admitted this half-open round
	probeOK     int       // consecutive probe successes

	opens, rejected, probesTotal *obs.Counter
	stateGauge                   *obs.Gauge
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	b := &Breaker{cfg: cfg, window: make([]bool, cfg.Window)}
	if r := cfg.Obs; r != nil {
		label := ""
		if cfg.Name != "" {
			label = `{name="` + cfg.Name + `"}`
		}
		b.opens = r.Counter("resilience_breaker_opens_total" + label)
		b.rejected = r.Counter("resilience_breaker_rejected_total" + label)
		b.probesTotal = r.Counter("resilience_breaker_probes_total" + label)
		b.stateGauge = r.Gauge("resilience_breaker_state" + label)
	}
	return b
}

// Allow reports whether a call may proceed. Open: false (rejection counted)
// until the cool-down elapses, at which point the breaker moves to half-open
// and admits up to HalfOpenProbes concurrent probes. Every Allow()=true MUST
// be matched by exactly one Record, or half-open probe slots leak.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	from := b.state
	ok := b.allowLocked()
	to := b.state
	b.mu.Unlock()
	b.notify(from, to)
	return ok
}

func (b *Breaker) allowLocked() bool {
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.OpenFor {
			b.rejected.Inc()
			return false
		}
		b.setState(HalfOpen)
		b.probes, b.probeOK = 0, 0
		fallthrough
	case HalfOpen:
		if b.probes >= b.cfg.HalfOpenProbes {
			b.rejected.Inc()
			return false
		}
		b.probes++
		b.probesTotal.Inc()
		return true
	}
	return true
}

// Record reports one call outcome (success=true for a healthy response —
// including a definitive not-found, which proves the dependency answered).
func (b *Breaker) Record(success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	from := b.state
	b.recordLocked(success)
	to := b.state
	b.mu.Unlock()
	b.notify(from, to)
}

// RecordLive is Record for calls made on the Live() fast path. A success on
// a clean breaker — closed, a full window of successes, no failure run —
// changes nothing, so RecordLive skips it after one atomic load instead of
// taking the mutex: a healthy breaker's hot path writes no shared memory.
// Every other outcome is recorded as Record does, so the breaker trips
// exactly as if every call had been recorded.
func (b *Breaker) RecordLive(success bool) {
	if b == nil || (success && b.clean.Load()) {
		return
	}
	b.Record(success)
}

func (b *Breaker) recordLocked(success bool) {
	switch b.state {
	case Closed:
		full := b.windowLen == len(b.window)
		if full && b.window[b.windowPos] {
			b.windowFails-- // a failure slides out of the window
		}
		b.window[b.windowPos] = !success
		b.windowPos = (b.windowPos + 1) % len(b.window)
		if !full {
			b.windowLen++
		}
		if success {
			b.consecutive = 0
			b.clean.Store(b.windowFails == 0 && b.windowLen == len(b.window))
			return
		}
		b.windowFails++
		b.clean.Store(false)
		b.consecutive++
		if b.consecutive >= b.cfg.ConsecutiveFailures || b.ratioTripped() {
			b.trip()
		}
	case HalfOpen:
		b.probes--
		if !success {
			b.trip() // a sick probe: back to open, restart the cool-down
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.HalfOpenProbes {
			b.setState(Closed)
			b.consecutive = 0
			b.windowLen, b.windowPos, b.windowFails = 0, 0, 0
		}
	case Open:
		// A straggler from before the trip; its outcome is stale news.
	}
}

// Cancel returns an Allow()ed slot without recording an outcome — for calls
// abandoned by the caller (context cancellation) before the dependency
// answered, which prove nothing about its health. Exactly one of Record or
// Cancel must follow every Allow()=true.
func (b *Breaker) Cancel() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && b.probes > 0 {
		b.probes--
	}
}

// ratioTripped reports whether the rolling-window failure ratio crossed the
// configured threshold (with at least half a window of evidence).
func (b *Breaker) ratioTripped() bool {
	if b.cfg.FailureRatio <= 0 || b.windowLen < len(b.window)/2 {
		return false
	}
	return float64(b.windowFails) >= b.cfg.FailureRatio*float64(b.windowLen)
}

// trip moves to Open and stamps the cool-down start. Caller holds b.mu.
func (b *Breaker) trip() {
	b.setState(Open)
	b.openedAt = b.cfg.Clock()
	b.opens.Inc()
	b.consecutive = 0
	b.windowLen, b.windowPos, b.windowFails = 0, 0, 0
}

// setState records the transition and mirrors it to the state gauge
// (0 closed, 1 half-open, 2 open) and the atomic Live mirror. Caller holds
// b.mu.
func (b *Breaker) setState(s State) {
	b.state = s
	b.liveState.Store(int32(s))
	b.clean.Store(false) // every transition empties the window
	b.stateGauge.Set(float64(s))
}

// notify fires the configured state-change observer for a from → to edge.
// Called after b.mu is released; a no-op when nothing changed.
func (b *Breaker) notify(from, to State) {
	if from != to && b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(b.cfg.Name, from, to)
	}
}

// Live reports whether the breaker is closed, from an atomic mirror of the
// state — one load, no lock. It is the hot-path gate for callers that issue
// many calls per breaker (a cluster router fanning queries across peers):
// while Live() is true the call proceeds without Allow's mutex and reports
// its outcome through RecordLive; once Live() turns false the caller falls
// back to the full Allow/Record protocol, which owns the open → half-open
// probe bookkeeping. A nil breaker is live.
func (b *Breaker) Live() bool {
	return b == nil || b.liveState.Load() == int32(Closed)
}

// State returns the current state.
func (b *Breaker) State() State {
	if b == nil {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Check is a Health probe: nil while closed or probing, ErrOpen while open.
func (b *Breaker) Check() error {
	if b.State() == Open {
		return ErrOpen
	}
	return nil
}

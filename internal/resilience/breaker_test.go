package resilience

import (
	"errors"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/obs"
)

// virtualClock is a manually advanced time source.
type virtualClock struct{ now time.Time }

func (c *virtualClock) Now() time.Time          { return c.now }
func (c *virtualClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newClock() *virtualClock                   { return &virtualClock{now: time.Unix(1000, 0)} }
func testBreaker(cfg BreakerConfig, c *virtualClock) *Breaker {
	cfg.Clock = c.Now
	return NewBreaker(cfg)
}

func TestBreakerOpensOnConsecutiveFailures(t *testing.T) {
	clk := newClock()
	b := testBreaker(BreakerConfig{ConsecutiveFailures: 3, OpenFor: time.Second}, clk)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Record(false)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after 2 failures = %v, want Closed", got)
	}
	b.Allow()
	b.Record(false)
	if got := b.State(); got != Open {
		t.Fatalf("state after 3 consecutive failures = %v, want Open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before the cool-down")
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	clk := newClock()
	b := testBreaker(BreakerConfig{ConsecutiveFailures: 3}, clk)
	for i := 0; i < 10; i++ {
		b.Record(false)
		b.Record(false)
		b.Record(true) // breaks the run
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want Closed (runs never reached 3)", got)
	}
}

func TestBreakerRatioTrip(t *testing.T) {
	clk := newClock()
	// 50% failures over a window of 8, never 4 consecutive.
	b := testBreaker(BreakerConfig{ConsecutiveFailures: 100, FailureRatio: 0.5, Window: 8}, clk)
	for i := 0; i < 8 && b.State() == Closed; i++ {
		b.Record(i%2 == 0) // alternate success/failure
	}
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want Open from the ratio trip", got)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := newClock()
	reg := obs.NewRegistry()
	b := testBreaker(BreakerConfig{
		ConsecutiveFailures: 2, OpenFor: time.Second, HalfOpenProbes: 2,
		Name: "t", Obs: reg,
	}, clk)
	b.Record(false)
	b.Record(false)
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want Open", got)
	}

	// Cool-down not yet elapsed: still rejecting.
	clk.Advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker admitted a call 1ms before the cool-down elapsed")
	}

	// Cool-down elapsed: exactly HalfOpenProbes concurrent probes admitted.
	clk.Advance(2 * time.Millisecond)
	if !b.Allow() || !b.Allow() {
		t.Fatal("half-open breaker rejected its probe quota")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted more than HalfOpenProbes concurrent probes")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen", got)
	}

	// Both probes succeed: closed again, calls flow.
	b.Record(true)
	b.Record(true)
	if got := b.State(); got != Closed {
		t.Fatalf("state after probe successes = %v, want Closed", got)
	}
	if !b.Allow() {
		t.Fatal("re-closed breaker rejected a call")
	}
	b.Record(true)
	if v := reg.CounterValue(`resilience_breaker_opens_total{name="t"}`); v != 1 {
		t.Fatalf("opens counter = %d, want 1", v)
	}
	if v := reg.CounterValue(`resilience_breaker_probes_total{name="t"}`); v != 2 {
		t.Fatalf("probes counter = %d, want 2", v)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newClock()
	b := testBreaker(BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Second, HalfOpenProbes: 3}, clk)
	b.Record(false)
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("half-open breaker rejected its first probe")
	}
	b.Record(false)
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want Open", got)
	}
	// The cool-down restarted at the failed probe.
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a call immediately")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker rejected a probe after the second cool-down")
	}
	b.Record(true)
}

func TestBreakerCheck(t *testing.T) {
	clk := newClock()
	b := testBreaker(BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Second}, clk)
	if err := b.Check(); err != nil {
		t.Fatalf("closed breaker Check = %v, want nil", err)
	}
	b.Record(false)
	if err := b.Check(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker Check = %v, want ErrOpen", err)
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker must admit everything")
	}
	b.Record(false)
	if got := b.State(); got != Closed {
		t.Fatalf("nil breaker State = %v, want Closed", got)
	}
}

// TestBreakerOnStateChange: the observer sees every edge of the full
// trip/probe/recovery cycle in order — closed→open on the trip, open→half-open
// when the cool-down lapses inside Allow, half-open→open on a sick probe, and
// half-open→closed on recovery — and it may re-enter the breaker, because it
// fires after the lock is released.
func TestBreakerOnStateChange(t *testing.T) {
	type edge struct{ from, to State }
	var seen []edge
	var reentrant State
	clk := newClock()
	cfg := BreakerConfig{
		Name:                "backing",
		ConsecutiveFailures: 2,
		OpenFor:             time.Second,
		HalfOpenProbes:      1,
	}
	var b *Breaker
	cfg.Clock = clk.Now
	cfg.OnStateChange = func(name string, from, to State) {
		if name != "backing" {
			t.Fatalf("observer got name %q, want \"backing\"", name)
		}
		seen = append(seen, edge{from, to})
		// Re-entrancy: the callback fires outside the lock, so it may read
		// the breaker it observes.
		reentrant = b.State()
	}
	b = NewBreaker(cfg)

	b.Record(true) // no transition, no callback
	b.Record(false)
	b.Record(false) // trip: closed → open
	if b.Allow() {
		t.Fatal("open breaker admitted a call")
	}
	clk.Advance(time.Second)
	if !b.Allow() { // cool-down lapsed: open → half-open, probe granted
		t.Fatal("half-open breaker rejected the probe")
	}
	b.Record(false) // sick probe: half-open → open
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("second probe rejected")
	}
	b.Record(true) // healthy probe: half-open → closed

	want := []edge{
		{Closed, Open},
		{Open, HalfOpen},
		{HalfOpen, Open},
		{Open, HalfOpen},
		{HalfOpen, Closed},
	}
	if len(seen) != len(want) {
		t.Fatalf("observer saw %d edges %v, want %d %v", len(seen), seen, len(want), want)
	}
	for i, e := range want {
		if seen[i] != e {
			t.Fatalf("edge %d = %v, want %v", i, seen[i], e)
		}
	}
	if reentrant != Closed {
		t.Fatalf("re-entrant State() inside the final callback = %v, want Closed", reentrant)
	}
}

// TestRecordLiveMatchesRecord: RecordLive skips only successes that cannot
// change the breaker, so a breaker fed every outcome through RecordLive
// trips, and carries failure evidence, exactly like one fed through Record.
func TestRecordLiveMatchesRecord(t *testing.T) {
	for _, failEvery := range []int{2, 5, 9, 40} {
		clk := newClock()
		cfg := BreakerConfig{ConsecutiveFailures: 3, FailureRatio: 0.2, Window: 16, OpenFor: time.Second}
		all, live := testBreaker(cfg, clk), testBreaker(cfg, clk)
		x := uint64(failEvery)
		for i := 0; i < 20_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			ok := x%uint64(failEvery) != 0
			if i%997 == 0 {
				clk.Advance(2 * time.Second) // let open breakers probe and close
			}
			if all.Live() != live.Live() {
				t.Fatalf("failEvery=%d op %d: Live %v vs %v", failEvery, i, all.Live(), live.Live())
			}
			if all.Live() {
				all.Record(ok)
				live.RecordLive(ok)
			} else if a, l := all.Allow(), live.Allow(); a != l {
				t.Fatalf("failEvery=%d op %d: Allow %v vs %v", failEvery, i, a, l)
			} else if a {
				all.Record(ok)
				live.Record(ok)
			}
			if all.state != live.state || all.consecutive != live.consecutive ||
				all.windowLen != live.windowLen || all.windowFails != live.windowFails {
				t.Fatalf("failEvery=%d op %d: Record (%v c=%d len=%d fails=%d) vs RecordLive (%v c=%d len=%d fails=%d)",
					failEvery, i, all.state, all.consecutive, all.windowLen, all.windowFails,
					live.state, live.consecutive, live.windowLen, live.windowFails)
			}
		}
	}
	var nilB *Breaker
	nilB.RecordLive(false) // nil breakers are inert
}

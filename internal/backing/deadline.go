package backing

import (
	"context"
	"sync"
	"time"
)

// attemptCtx is the per-attempt deadline context the Loader and WriteBehind
// hand their store. context.WithTimeout arms a runtime timer on every
// attempt; most stores (BTree, MapStore) only poll Err, so attemptCtx
// compares the clock against its deadline there instead, and arms a real
// timer (context.WithDeadline) only once someone asks for Done. A store that
// blocks on Done — a remote fetch, a hedged race — still wakes at the
// deadline.
//
// Err is sticky: once it reports an error it reports the same one forever,
// and a Done called after that returns an already-closed channel.
type attemptCtx struct {
	parent   context.Context
	deadline time.Duration // on the clockBase monotonic clock

	mu    sync.Mutex
	err   error
	armed context.Context // timer-backed twin, once Done was called
	stop  context.CancelFunc
}

// closedChan is the Done channel of an attempt that ended before anyone
// asked for one.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// clockBase anchors attempt deadlines: time.Since(clockBase) reads only the
// monotonic clock, half the cost of time.Now's wall + monotonic pair.
var clockBase = time.Now()

// newAttemptCtx derives an attempt context that expires timeout from now.
// The caller must call cancel when the attempt ends.
func newAttemptCtx(parent context.Context, timeout time.Duration) *attemptCtx {
	return &attemptCtx{parent: parent, deadline: time.Since(clockBase) + timeout}
}

// Deadline implements context.Context: the earlier of the attempt's and
// the parent's deadlines.
func (c *attemptCtx) Deadline() (time.Time, bool) {
	d := clockBase.Add(c.deadline)
	if pd, ok := c.parent.Deadline(); ok && pd.Before(d) {
		return pd, true
	}
	return d, true
}

// Value implements context.Context.
func (c *attemptCtx) Value(key any) any { return c.parent.Value(key) }

// Err implements context.Context. Before Done is called it checks the
// parent and the clock; after, it defers to the armed context, so Err never
// reports an error ahead of Done closing.
func (c *attemptCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		switch {
		case c.armed != nil:
			c.err = c.armed.Err()
		case c.parent.Err() != nil:
			c.err = c.parent.Err()
		case time.Since(clockBase) >= c.deadline:
			c.err = context.DeadlineExceeded
		}
	}
	return c.err
}

// Done implements context.Context, arming the deadline timer on first use.
func (c *attemptCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		if c.err != nil {
			return closedChan
		}
		c.armed, c.stop = context.WithDeadline(c.parent, clockBase.Add(c.deadline))
	}
	return c.armed.Done()
}

// cancel ends the attempt: Err reports context.Canceled unless it already
// reported something else, and an armed timer is stopped.
func (c *attemptCtx) cancel() {
	c.mu.Lock()
	if c.err == nil && c.armed != nil {
		c.err = c.armed.Err()
	}
	if c.err == nil {
		c.err = context.Canceled
	}
	stop := c.stop
	c.mu.Unlock()
	if stop != nil {
		stop()
	}
}

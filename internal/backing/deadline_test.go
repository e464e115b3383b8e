package backing

import (
	"context"
	"errors"
	"testing"
	"time"
)

// closed reports whether ch is closed, waiting at most d for it.
func closed(ch <-chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	default:
	}
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

func TestAttemptCtxErrWithoutDone(t *testing.T) {
	c := newAttemptCtx(context.Background(), 20*time.Millisecond)
	defer c.cancel()
	if err := c.Err(); err != nil {
		t.Fatalf("fresh attempt Err = %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err past the deadline = %v, want DeadlineExceeded", err)
	}
	if c.armed != nil {
		t.Fatal("Err armed a timer")
	}
	// Sticky, and a late Done is already closed.
	c.cancel()
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after cancel = %v, want the first error", err)
	}
	if !closed(c.Done(), 0) {
		t.Fatal("Done after expiry is open")
	}
}

func TestAttemptCtxDeadline(t *testing.T) {
	before := time.Now()
	c := newAttemptCtx(context.Background(), time.Hour)
	defer c.cancel()
	d, ok := c.Deadline()
	if !ok || d.Before(before.Add(time.Hour)) || d.After(time.Now().Add(time.Hour)) {
		t.Fatalf("Deadline = %v, %v; want ~now+1h", d, ok)
	}
	parent, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c2 := newAttemptCtx(parent, time.Hour)
	defer c2.cancel()
	pd, _ := parent.Deadline()
	if d, _ := c2.Deadline(); !d.Equal(pd) {
		t.Fatalf("Deadline = %v, want the parent's earlier %v", d, pd)
	}
}

func TestAttemptCtxDoneArmsTimer(t *testing.T) {
	c := newAttemptCtx(context.Background(), 20*time.Millisecond)
	defer c.cancel()
	done := c.Done()
	if c.Err() != nil {
		t.Fatal("Err before the deadline")
	}
	if !closed(done, time.Second) {
		t.Fatal("Done never closed at the deadline")
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", err)
	}
}

func TestAttemptCtxParentCancel(t *testing.T) {
	t.Run("before-done", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		c := newAttemptCtx(parent, time.Hour)
		defer c.cancel()
		cancel()
		if err := c.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err = %v, want Canceled", err)
		}
		if !closed(c.Done(), 0) {
			t.Fatal("Done open after the parent was cancelled")
		}
	})
	t.Run("after-done", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		c := newAttemptCtx(parent, time.Hour)
		defer c.cancel()
		done := c.Done()
		cancel()
		if !closed(done, time.Second) {
			t.Fatal("parent cancel did not close Done")
		}
		if err := c.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err = %v, want Canceled", err)
		}
	})
}

func TestAttemptCtxCancelStopsTimer(t *testing.T) {
	c := newAttemptCtx(context.Background(), time.Hour)
	done := c.Done()
	c.cancel()
	if !closed(done, 0) {
		t.Fatal("cancel did not close Done")
	}
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want Canceled", err)
	}
	// The armed context was cancelled, not left to fire in an hour: its
	// timer is stopped and its error is the cancellation.
	if err := c.armed.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("armed Err = %v, want Canceled", err)
	}
	c.cancel() // idempotent
}

// TestLoaderTimesOutStoreBlockingOnDone: a store that waits on ctx.Done()
// is still cut off at the attempt Timeout.
func TestLoaderTimesOutStoreBlockingOnDone(t *testing.T) {
	block := storeFunc(func(ctx context.Context, key uint64) (uint64, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	l := NewLoader(block, LoaderConfig{Attempts: 1, Timeout: 30 * time.Millisecond})
	start := time.Now()
	_, err := l.Get(context.Background(), 1)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get = %v, want DeadlineExceeded", err)
	}
	if elapsed < 30*time.Millisecond || elapsed > time.Second {
		t.Fatalf("Get returned after %v, want ~30ms", elapsed)
	}
}

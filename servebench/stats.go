package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// samples is a set of durations in nanoseconds. Percentiles are read from
// the sorted samples, not from histogram buckets, so a reported percentile
// is a measured value rather than a bucket edge.
type samples []int64

// pct returns the q-quantile (0 ≤ q ≤ 1) by the nearest-rank rule, or 0
// for an empty set. s keeps its order.
func (s samples) pct(q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	s = append(samples(nil), s...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// p50 returns the median as the mean of the central 1% of the sorted
// samples (at least one): as robust as the median, but a row of
// integer-nanosecond spans does not round to the same value every run.
func (s samples) p50() float64 {
	if len(s) == 0 {
		return 0
	}
	s = append(samples(nil), s...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	half := len(s) / 200
	lo, hi := len(s)/2-half, len(s)/2+half+1
	if hi > len(s) {
		hi = len(s)
	}
	var sum float64
	for _, v := range s[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo)
}

// medianF returns the median of xs (the mean of the middle pair for an even
// count). It sorts xs in place.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the user+system CPU time this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK: the kernel may defer a
// sleeping thread's wake-up by up to this slack (50µs by default).
const prSetTimerSlack = 29

// setTimerSlack cuts the calling OS thread's timer slack to 1µs, so
// preciseSleep wakes on time. The caller must hold its thread
// (runtime.LockOSThread): the slack is a per-thread setting.
func setTimerSlack() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // best-effort
}

// preciseSleep sleeps on the kernel's high-resolution timer instead of the
// Go runtime's: time.Sleep below a millisecond parks in the netpoller,
// whose epoll timeout has millisecond granularity, and so overshoots a
// 100µs sleep by ~1ms on an idle process.
func preciseSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an EINTR just ends the sleep early; the caller re-checks the clock
}

// timerCost estimates what one pair of time.Now reads adds to an interval
// measured with them: the median of many empty measured intervals. Timed
// layer rows subtract it per measured call, so a 60ns engine call timed
// with an 85ns clock is not reported as 145ns.
func timerCost() float64 {
	const n = 20001
	s := make(samples, n)
	for i := range s {
		t0 := time.Now()
		s[i] = int64(time.Since(t0))
	}
	return float64(s.pct(0.5))
}

// windowedPct cuts v, in the order it was recorded, into consecutive
// windows of per samples and returns the median over windows of each
// window's q-quantile, and the number of windows used. A trailing partial
// window is dropped, and so is window i when keep is non-nil and keep[i] is
// false. A host that stalls every CPU for milliseconds a few times a second
// sets a whole run's p99 by itself; the median window's p99 is the tail the
// serving path gives a typical burst of requests, and it holds steady from
// run to run.
func windowedPct(v samples, per int, q float64, keep []bool) (float64, int) {
	var wins []float64
	for i, lo := 0, 0; lo+per <= len(v); i, lo = i+1, lo+per {
		if keep != nil && (i >= len(keep) || !keep[i]) {
			continue
		}
		wins = append(wins, float64(v[lo:lo+per].pct(q)))
	}
	return medianF(wins), len(wins)
}

package replay

import (
	"runtime"
	"time"
)

// waiter blocks until deadlines on a Clock — the package's one way to
// wait. Sleep alone is too coarse to pace arrivals: on a 1 ms timer
// quantum a 5 µs sleep returns after ~600 µs, releasing arrivals in
// bursts and charging every op a delay the store never caused. So the
// wait is sleep-then-yield: sleep only for the part of the wait that
// exceeds margin, the oversleep learned from the run's own sleeps, and
// cover the rest re-reading the clock with a scheduler yield between
// reads. While deadlines are closer together than margin the caller
// therefore occupies one core. An exact Clock (the tests' simulated
// one) never oversleeps, learns a margin of 0 and never spins.
type waiter struct {
	clock  Clock
	margin time.Duration
}

// probeSleep primes a waiter's margin. It only has to outlast the
// scheduler's own spin phase, which catches shorter timers early and
// would make the first sleep look exact.
const probeSleep = 100 * time.Microsecond

// newWaiter returns a waiter whose margin is primed by one probe sleep,
// so callers read their schedule epoch after it.
func newWaiter(clock Clock) *waiter {
	w := &waiter{clock: clock}
	w.sleep(clock.Now(), probeSleep)
	return w
}

// sleep sleeps d from now and folds the observed oversleep into margin:
// a new worst case takes effect at once, a milder one pulls margin a
// 64th of the way down — slowly, because a margin that is too small
// makes an arrival late while one that is too large only costs CPU,
// yet one scheduling hiccup should not make the rest of a slow-paced
// run spin. It returns the clock reading after the sleep.
func (w *waiter) sleep(now time.Time, d time.Duration) time.Time {
	w.clock.Sleep(d)
	woke := w.clock.Now()
	if over := woke.Sub(now) - d; over > w.margin {
		w.margin = over
	} else {
		w.margin -= (w.margin - over) / 64
	}
	return woke
}

// until blocks until the clock reads deadline or later and returns that
// reading.
func (w *waiter) until(deadline time.Time) time.Time {
	now := w.clock.Now()
	if d := deadline.Sub(now) - w.margin; d > 0 {
		now = w.sleep(now, d)
	}
	for now.Before(deadline) {
		runtime.Gosched()
		now = w.clock.Now()
	}
	return now
}

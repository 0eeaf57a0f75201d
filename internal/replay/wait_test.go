package replay

import (
	"testing"
	"time"
)

// coarseClock oversleeps every Sleep by a fixed amount and moves one
// tick per reading: a deterministic stand-in for a wall clock whose
// timer is coarser than the waits asked of it.
type coarseClock struct {
	now        time.Time
	over, tick time.Duration
	sleeps     int
}

func (c *coarseClock) Now() time.Time {
	c.now = c.now.Add(c.tick)
	return c.now
}

func (c *coarseClock) Sleep(d time.Duration) {
	c.sleeps++
	c.now = c.now.Add(d + c.over)
}

// TestWaiterLearnsOversleep: on a clock that oversleeps 1ms, the probe
// must teach the waiter a margin of at least that, after which no wait
// overshoots its deadline by more than the clock's own resolution —
// waits shorter than the margin without sleeping at all, longer ones
// sleeping for the part the margin does not cover.
func TestWaiterLearnsOversleep(t *testing.T) {
	clk := &coarseClock{now: time.Unix(1000, 0), over: time.Millisecond, tick: time.Microsecond}
	w := newWaiter(clk)
	if w.margin < clk.over {
		t.Fatalf("margin %v after the probe, want at least the %v oversleep", w.margin, clk.over)
	}
	for _, d := range []time.Duration{50 * time.Microsecond, 900 * time.Microsecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		sleeps := clk.sleeps
		deadline := clk.Now().Add(d)
		got := w.until(deadline)
		if late := got.Sub(deadline); late < 0 || late > 2*clk.tick {
			t.Fatalf("wait of %v returned %v past its deadline", d, late)
		}
		if slept := clk.sleeps > sleeps; slept != (d > 2*clk.over) {
			t.Fatalf("wait of %v: slept = %v with a margin of %v", d, slept, w.margin)
		}
	}
}

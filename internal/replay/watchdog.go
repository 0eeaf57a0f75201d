package replay

import (
	"errors"
	"sync"
	"time"
)

// ErrStalled is returned by watchdog-guarded runs when no operation
// completed within the stall timeout: the run was aborted and its
// partial results tagged Degraded.
var ErrStalled = errors.New("replay: worker stalled; run aborted by watchdog")

// Watchdog monitors the progress of one or more Collectors and aborts
// them all when any one stalls — the run-level safety net the harness
// arms around online and replay runs so a wedged store degrades the run
// instead of hanging it.
//
// Contract: a collector counts as making progress whenever an operation
// completes (Collector.Do returns). A worker blocked inside a store call
// past the timeout trips the watchdog; every watched collector is then
// aborted (subsequent Do calls return ErrAborted) and Fired is closed.
// The blocked call itself cannot be interrupted — pair the watchdog with
// per-op deadlines (kv.ResilienceOptions.OpTimeout) to bound it; without
// them, the stuck goroutine is abandoned and its result discarded.
type Watchdog struct {
	timeout time.Duration

	mu   sync.Mutex
	cols []*Collector

	fired chan struct{}
	stop  chan struct{}
	once  sync.Once // guards firing
	done  sync.Once // guards Stop
}

// NewWatchdog creates a watchdog with the given stall timeout.
func NewWatchdog(timeout time.Duration) *Watchdog {
	return &Watchdog{
		timeout: timeout,
		fired:   make(chan struct{}),
		stop:    make(chan struct{}),
	}
}

// Watch adds a collector to the watch set.
func (w *Watchdog) Watch(c *Collector) {
	w.mu.Lock()
	w.cols = append(w.cols, c)
	w.mu.Unlock()
}

// Start begins monitoring in a background goroutine.
func (w *Watchdog) Start() { go w.monitor() }

// Stop ends monitoring. Idempotent; safe after the watchdog fired.
func (w *Watchdog) Stop() { w.done.Do(func() { close(w.stop) }) }

// Fired is closed when the watchdog detected a stall and aborted the
// watched collectors.
func (w *Watchdog) Fired() <-chan struct{} { return w.fired }

func (w *Watchdog) monitor() {
	interval := w.timeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			if w.checkStalled() {
				w.fire()
				return
			}
		}
	}
}

// checkStalled reports whether any unfinished collector has made no
// progress within the timeout.
func (w *Watchdog) checkStalled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, c := range w.cols {
		if c.finished.Load() {
			continue
		}
		if c.elapsed()-time.Duration(c.lastProgress.Load()) > w.timeout {
			return true
		}
	}
	return false
}

func (w *Watchdog) fire() {
	w.mu.Lock()
	cols := append([]*Collector(nil), w.cols...)
	w.mu.Unlock()
	for _, c := range cols {
		c.Abort()
	}
	w.once.Do(func() { close(w.fired) })
}

// Guard runs work under a watchdog over cols and reports whether the
// watchdog fired. With timeout <= 0 it runs work inline and returns
// false. When it returns true, work was abandoned mid-flight (its
// goroutine unblocks once the stuck operation returns, and every
// collector has been aborted); callers should return Snapshot results
// tagged Degraded with ErrStalled.
func Guard(timeout time.Duration, cols []*Collector, work func()) (stalled bool) {
	if timeout <= 0 {
		work()
		return false
	}
	wd := NewWatchdog(timeout)
	for _, c := range cols {
		wd.Watch(c)
	}
	wd.Start()
	defer wd.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		work()
	}()
	select {
	case <-done:
		return false
	case <-wd.Fired():
		return true
	}
}

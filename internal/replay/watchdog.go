package replay

import (
	"cmp"
	"errors"
	"sync"
	"time"

	"gadget/internal/kv"
)

// ErrStalled is returned by watchdog-guarded runs when no operation
// completed within the stall timeout: the run was aborted and its
// partial results tagged Degraded.
var ErrStalled = errors.New("replay: worker stalled; run aborted by watchdog")

// driver is the package's one run loop: the collectors of one measured
// run, one body per worker feeding them, and the stall watchdog over
// all of it. Every Run* entry point builds its collectors here and hands
// drive its bodies.
//
// Watchdog contract: a collector makes progress whenever an operation
// completes (Collector.Do returns). When an unfinished collector makes
// none for opts.StallTimeout, every collector is aborted (later Do calls
// return ErrAborted) and drive returns at once. The blocked store call
// itself cannot be interrupted — pair the watchdog with per-op deadlines
// (kv.ResilienceOptions.OpTimeout) to bound it; without them the stuck
// worker is abandoned and its result discarded.
type driver struct {
	opts  Options
	clock Clock // non-nil arms open-loop accounting on every collector

	mu   sync.Mutex
	cols []*Collector // every collector of the run, in creation order
}

// Drive runs one measured worker per store: it creates each store's
// Collector (handing it to opts.Observer), runs body(i, c) for store i,
// seals c as the body returns, and returns every worker's Result and the
// first error. With opts.StallTimeout set, a stalled run returns fresh
// partial Results tagged Degraded and ErrStalled instead of hanging.
func Drive(stores []kv.Store, opts Options, body func(i int, c *Collector) error) ([]Result, error) {
	return (&driver{opts: opts}).drive(stores, body)
}

// collector creates a collector on store and adds it to the run. The
// watchdog watches it from its next tick on, so a collector created
// mid-run — a recovery attempt's — is covered like the first.
func (d *driver) collector(store kv.Store) *Collector {
	c := newCollector(store, d.opts, d.clock)
	d.mu.Lock()
	d.cols = append(d.cols, c)
	d.mu.Unlock()
	return c
}

// drive creates one collector per store and runs body on each: a lone
// worker without a watchdog on the calling goroutine, otherwise every
// worker on its own. It returns the Result of every collector the run
// created, in creation order, and the first worker error. On a stall
// it returns their Snapshots tagged Degraded and ErrStalled; abandoned
// workers unwind once their store call returns.
func (d *driver) drive(stores []kv.Store, body func(i int, c *Collector) error) ([]Result, error) {
	if err := d.opts.Validate(); err != nil {
		return nil, err
	}
	for _, s := range stores {
		d.collector(s)
	}
	workers := d.all()
	errs := make([]error, len(workers))
	work := func(i int) {
		errs[i] = body(i, workers[i])
		workers[i].Finish()
	}
	if d.opts.StallTimeout <= 0 && len(workers) == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(len(workers))
		for i := range workers {
			go func() {
				defer wg.Done()
				work(i)
			}()
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		stop := make(chan struct{})
		defer close(stop)
		select {
		case <-done:
		case <-d.watch(stop):
			return d.results(func(c *Collector) Result {
				r := c.Snapshot()
				r.Degraded = true
				return r
			}), ErrStalled
		}
	}
	return d.results((*Collector).Finish), cmp.Or(errs...)
}

// watch starts the watchdog, which checks every quarter timeout until
// stop closes. The returned channel closes once it has aborted the run;
// without a stall timeout it is nil and never does.
func (d *driver) watch(stop <-chan struct{}) <-chan struct{} {
	if d.opts.StallTimeout <= 0 {
		return nil
	}
	fired := make(chan struct{})
	go func() {
		ticker := time.NewTicker(max(d.opts.StallTimeout/4, time.Millisecond))
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if d.stalled() {
					for _, c := range d.all() {
						c.Abort()
					}
					close(fired)
					return
				}
			}
		}
	}()
	return fired
}

// stalled reports whether an unfinished collector has made no progress
// within the timeout.
func (d *driver) stalled() bool {
	for _, c := range d.all() {
		if !c.finished.Load() && c.elapsed()-time.Duration(c.lastProgress.Load()) > d.opts.StallTimeout {
			return true
		}
	}
	return false
}

// all returns the run's collectors, in creation order.
func (d *driver) all() []*Collector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*Collector(nil), d.cols...)
}

// results applies f to every collector of the run, in creation order.
func (d *driver) results(f func(*Collector) Result) []Result {
	cols := d.all()
	out := make([]Result, len(cols))
	for i, c := range cols {
		out[i] = f(c)
	}
	return out
}

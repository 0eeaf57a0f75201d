package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"gadget/internal/kv"
	"gadget/internal/replay"
)

// Sample is one point of a run's telemetry time series. Ops and the
// latency quantiles are cumulative over the run; IntervalOps and
// Throughput cover just the stretch since the previous sample, so the
// IntervalOps of a complete series sum to the final operation count.
type Sample struct {
	OffsetMs    int64   `json:"offset_ms"`
	Ops         uint64  `json:"ops"`
	IntervalOps uint64  `json:"interval_ops"`
	Throughput  float64 `json:"throughput"`
	MeanMicros  float64 `json:"mean_us"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`
	P999Micros  float64 `json:"p999_us"`
	Errors      uint64  `json:"errors"`
	// Open-loop fields, present only for open-loop runs: cumulative
	// offered events, the offered events and rate over the last interval
	// (offered vs Throughput is the per-interval offered-vs-achieved
	// comparison), overload count, worst dispatch lag, and the
	// intended-arrival p99.
	Offered           uint64  `json:"offered,omitempty"`
	IntervalOffered   uint64  `json:"interval_offered,omitempty"`
	OfferedRate       float64 `json:"offered_rate,omitempty"`
	Overload          uint64  `json:"overload,omitempty"`
	MaxLagMs          float64 `json:"max_lag_ms,omitempty"`
	IntendedP99Micros float64 `json:"intended_p99_us,omitempty"`
	// Crash-recovery fields, present only for recovery runs: cumulative
	// crashes survived and checkpoints cut so far.
	Recoveries  uint64 `json:"recoveries,omitempty"`
	Checkpoints uint64 `json:"checkpoints,omitempty"`
	// Inflight samples the remote pipeline's in-flight window occupancy
	// at sample time (the raw remote.inflight gauge, NOT a delta — the
	// counter-style engine delta below would render a gauge meaningless).
	// Present only for remote stores.
	Inflight int64 `json:"inflight,omitempty"`
	// Engine is the store's introspection delta since run start (nil for
	// non-introspectable stores).
	Engine map[string]int64 `json:"engine,omitempty"`
}

// SamplerOptions configures a run sampler.
type SamplerOptions struct {
	// Interval between samples; must be positive.
	Interval time.Duration
	// Snapshot returns the run's current merged measurements; typically
	// it folds replay.Collector.Snapshot over every live collector.
	Snapshot func() replay.Result
	// Store, when it implements kv.Introspector, supplies the raw engine
	// metrics sampled beside the run: the remote in-flight gauge and the
	// breaker state of progress lines. Any value is accepted (a kv.Store,
	// or a handle that follows a store reopened across crashes); others
	// supply nothing.
	Store any
	// Progress, when set, receives one human-readable line per sample
	// (the harness passes os.Stderr when it is a terminal).
	Progress io.Writer
	// Registry, when set, gets live run gauges (ops, interval
	// throughput, p99) published under gadget_run_*.
	Registry *Registry
}

// Sampler periodically snapshots a live run, accumulating a time series
// and optionally emitting progress lines and registry gauges.
type Sampler struct {
	opts  SamplerOptions
	start time.Time
	stop  chan struct{}
	done  chan struct{}

	mu          sync.Mutex
	series      []Sample
	lastOps     uint64
	lastOffered uint64
	lastTime    time.Time

	gOps  *Gauge
	gThr  *GaugeFloat
	gP99  *GaugeFloat
	gErrs *Gauge
}

// StartSampler validates opts and begins sampling in a background
// goroutine. Call Stop to seal the series.
func StartSampler(opts SamplerOptions) (*Sampler, error) {
	if opts.Interval <= 0 {
		return nil, fmt.Errorf("obs: sampler interval must be positive, got %v", opts.Interval)
	}
	if opts.Snapshot == nil {
		return nil, fmt.Errorf("obs: sampler requires a Snapshot function")
	}
	s := &Sampler{
		opts:  opts,
		start: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.lastTime = s.start
	if reg := opts.Registry; reg != nil {
		s.gOps = reg.Gauge("gadget_run_ops", "Operations applied so far in the live run.")
		s.gThr = reg.GaugeFloat("gadget_run_interval_throughput", "Ops/s over the last sample interval.")
		s.gP99 = reg.GaugeFloat("gadget_run_p99_latency_micros", "Cumulative p99 latency in microseconds.")
		s.gErrs = reg.Gauge("gadget_run_errors", "Store errors observed so far in the live run.")
	}
	go s.loop()
	return s, nil
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.observe(s.opts.Snapshot())
		}
	}
}

// observe folds one snapshot into the series.
func (s *Sampler) observe(res replay.Result) Sample {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	smp := Sample{
		OffsetMs:    now.Sub(s.start).Milliseconds(),
		Ops:         res.Ops,
		IntervalOps: res.Ops - s.lastOps,
		MeanMicros:  res.MeanMicros(),
		P50Micros:   float64(res.Latency.Quantile(0.50)) / 1e3,
		P99Micros:   res.P99Micros(),
		P999Micros:  res.P999Micros(),
		Errors:      res.Errors,
		Engine:      res.Engine,
	}
	dt := now.Sub(s.lastTime).Seconds()
	if dt > 0 {
		smp.Throughput = float64(smp.IntervalOps) / dt
	}
	if res.Offered > 0 {
		smp.Offered = res.Offered
		smp.IntervalOffered = res.Offered - s.lastOffered
		smp.Overload = res.Overload
		smp.MaxLagMs = float64(res.MaxLag.Nanoseconds()) / 1e6
		smp.IntendedP99Micros = res.IntendedP99Micros()
		if dt > 0 {
			smp.OfferedRate = float64(smp.IntervalOffered) / dt
		}
	}
	smp.Recoveries = res.Recoveries
	smp.Checkpoints = res.Checkpoints
	raw := metricsOf(s.opts.Store)
	if v, ok := raw["remote.inflight"]; ok {
		// A gauge: the raw value is the reading, not a delta.
		smp.Inflight = v
	}
	s.lastOps = res.Ops
	s.lastOffered = res.Offered
	s.lastTime = now
	s.series = append(s.series, smp)

	if s.gOps != nil {
		s.gOps.Set(int64(smp.Ops))
		s.gThr.Set(smp.Throughput)
		s.gP99.Set(smp.P99Micros)
		s.gErrs.Set(int64(smp.Errors))
	}
	if s.opts.Progress != nil {
		line := fmt.Sprintf("[%7.1fs] ops=%d (%.0f/s) p99=%.1fus errs=%d",
			float64(smp.OffsetMs)/1e3, smp.Ops, smp.Throughput, smp.P99Micros, smp.Errors)
		if smp.Offered > 0 {
			line += fmt.Sprintf(" offered=%.0f/s ip99=%.1fus lag=%.1fms",
				smp.OfferedRate, smp.IntendedP99Micros, smp.MaxLagMs)
		}
		if smp.Recoveries > 0 || smp.Checkpoints > 0 {
			line += fmt.Sprintf(" recoveries=%d ckpts=%d", smp.Recoveries, smp.Checkpoints)
		}
		if smp.Inflight > 0 {
			line += fmt.Sprintf(" inflight=%d", smp.Inflight)
		}
		if st := breakerState(raw); st != "" {
			line += " breaker=" + st
		}
		fmt.Fprintln(s.opts.Progress, line)
	}
	return smp
}

// metricsOf returns v's engine metrics, or nil when v is not a
// kv.Introspector.
func metricsOf(v any) map[string]int64 {
	if in, ok := v.(kv.Introspector); ok {
		return in.Metrics()
	}
	return nil
}

// breakerState renders the resilience breaker state in an engine
// metrics snapshot ("" when the store has no breaker).
func breakerState(m map[string]int64) string {
	v, ok := m["resilient.breaker_state"]
	if !ok {
		return ""
	}
	switch v {
	case 0:
		return "closed"
	case 1:
		return "open"
	case 2:
		return "half-open"
	default:
		return fmt.Sprintf("state%d", v)
	}
}

// Stop halts sampling, folds the run's final Result in as a closing
// sample (so interval op counts sum exactly to final.Ops), and returns
// the completed series.
func (s *Sampler) Stop(final replay.Result) []Sample {
	close(s.stop)
	<-s.done
	s.observe(final)
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.series...)
}

// Series returns a copy of the samples collected so far.
func (s *Sampler) Series() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.series...)
}

// Package obs is the harness-wide observability layer: a stdlib-only
// metrics registry (gauges, plus collector callbacks read at scrape
// time) with Prometheus text exposition, an HTTP endpoint bundling /metrics with
// expvar and pprof, a run-scoped telemetry sampler producing live
// progress lines and a machine-readable time series, and a JSON run
// report writer. It observes engines through kv.Introspector, so one
// code path covers every store the harness can build.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one Prometheus label pair. Values may contain any bytes;
// exposition escapes them.
type Label struct {
	Name  string
	Value string
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFloat is a Gauge holding a float64 (throughput, ratios).
type GaugeFloat struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *GaugeFloat) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *GaugeFloat) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind discriminates exposition behavior.
type metricKind int

const (
	kindGauge metricKind = iota
	kindGaugeFloat
)

// metric is one registered series: a name, a label set, and a value
// source of one kind.
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels []Label
	g      *Gauge
	gf     *GaugeFloat
}

// EmitFunc is handed to collector callbacks; each call contributes one
// gauge sample to the exposition in progress.
type EmitFunc func(name string, labels []Label, value float64)

// Registry holds metrics and renders them in Prometheus text format.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	metrics    []*metric
	byKey      map[string]*metric
	collectors []func(EmitFunc)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// seriesKey identifies a metric by name and exact label set.
func seriesKey(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Name)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// register adds m unless an identical series exists, in which case the
// existing one is returned (idempotent registration).
func (r *Registry) register(m *metric) *metric {
	key := seriesKey(m.name, m.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byKey[key]; ok {
		if old.kind != m.kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", m.name))
		}
		return old
	}
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Gauge returns the gauge registered under name/labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(&metric{name: name, help: help, kind: kindGauge, labels: labels, g: &Gauge{}}).g
}

// GaugeFloat returns the float gauge registered under name/labels,
// creating it on first use.
func (r *Registry) GaugeFloat(name, help string, labels ...Label) *GaugeFloat {
	return r.register(&metric{name: name, help: help, kind: kindGaugeFloat, labels: labels, gf: &GaugeFloat{}}).gf
}

// RegisterCollector adds a callback run at every exposition; whatever it
// emits appears as gauge samples. Engine introspection hooks in here:
// a collector walks kv.Introspector output and emits one
// gadget_store_metric{metric="..."} sample per key.
func (r *Registry) RegisterCollector(fn func(EmitFunc)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// escapeLabelValue escapes a label value per the Prometheus text
// format: backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// renderLabels renders a label set ({a="b",c="d"}) with extra appended,
// or "" when both are empty.
func renderLabels(labels []Label, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float without exponent noise for integral
// values.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric and collector sample
// in Prometheus text exposition format, grouped into families (one
// # TYPE header per metric name, all series of that name beneath it).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	collectors := append([]func(EmitFunc){}, r.collectors...)
	r.mu.Unlock()

	// Group registered series by family, preserving first-seen order.
	var order []string
	families := make(map[string][]*metric)
	for _, m := range metrics {
		if _, ok := families[m.name]; !ok {
			order = append(order, m.name)
		}
		families[m.name] = append(families[m.name], m)
	}

	bw := &errWriter{w: w}
	for _, name := range order {
		fam := families[name]
		if h := fam[0].help; h != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, strings.ReplaceAll(h, "\n", " "))
		}
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		for _, m := range fam {
			if m.kind == kindGauge {
				fmt.Fprintf(bw, "%s%s %d\n", name, renderLabels(m.labels), m.g.Value())
			} else {
				fmt.Fprintf(bw, "%s%s %s\n", name, renderLabels(m.labels), formatValue(m.gf.Value()))
			}
		}
	}

	// Collector samples: gather, group by family, expose as gauges.
	type sample struct {
		labels []Label
		value  float64
	}
	collected := make(map[string][]sample)
	var corder []string
	for _, fn := range collectors {
		fn(func(name string, labels []Label, value float64) {
			if _, ok := collected[name]; !ok {
				corder = append(corder, name)
			}
			collected[name] = append(collected[name], sample{labels, value})
		})
	}
	for _, name := range corder {
		if _, clash := families[name]; clash {
			// A collector must not re-emit a registered family; skip to
			// keep the exposition parseable.
			continue
		}
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		for _, s := range collected[name] {
			fmt.Fprintf(bw, "%s%s %s\n", name, renderLabels(s.labels), formatValue(s.value))
		}
	}
	return bw.err
}

// errWriter latches the first write error so exposition loops don't
// need per-line error checks.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// SortedKeys returns m's keys sorted — the stable iteration order used
// by exposition and reports.
func SortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

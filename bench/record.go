package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// recordSchema versions the JSON record; README.md documents it.
const recordSchema = "gadget.bench/v1"

// record is one invocation's provenance and results.
type record struct {
	Schema     string            `json:"schema"`
	Commit     string            `json:"commit"`
	Date       string            `json:"date"`
	CPU        string            `json:"cpu"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Go         string            `json:"go"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Workloads  []*workloadRecord `json:"workloads"`
}

// series is one end-to-end metric of one workload: the per-round
// samples, their median and their quartiles.
type series struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func newSeries(unit string, samples []float64) *series {
	q1, q3 := quartiles(samples)
	return &series{Unit: unit, Median: median(samples), Q1: q1, Q3: q3, Samples: samples}
}

// spread is the distance between the quartiles of the per-round samples
// as a share of their median.
func (s *series) spread() float64 { return ratio(s.Q3-s.Q1, math.Abs(s.Median)) }

// workloadRecord is one workload's part of the record.
type workloadRecord struct {
	Name           string `json:"name"`
	Why            string `json:"why"`
	Load           string `json:"load"`
	FlushPolicy    string `json:"flush_policy,omitempty"`
	EventsPerRound int    `json:"events_per_round"`

	// End-to-end pass (absent from a traced-only invocation).
	Rounds         int                `json:"rounds,omitempty"`
	WarmRounds     int                `json:"warm_rounds,omitempty"` // driven and checked before them, not sampled
	Attempted      uint64             `json:"ops_attempted"`
	Failed         uint64             `json:"ops_failed"`
	FailedFrac     float64            `json:"failed_frac"`
	Correct        bool               `json:"correct"`
	Problems       []string           `json:"problems,omitempty"`
	LatencySamples uint64             `json:"latency_samples,omitempty"`
	EndToEnd       map[string]*series `json:"end_to_end,omitempty"`
	Counts         map[string]int64   `json:"counts,omitempty"`
	State          string             `json:"final_state,omitempty"`
	Ladder         []trial            `json:"ladder,omitempty"`
	// RefOverload counts the open loop's arrivals that found the queue
	// full at the reference rate. They are served late, not lost: their
	// delay is in the intended-arrival latency (replay.p99_us and beyond)
	// and they are not failures.
	RefOverload uint64 `json:"ref_overload,omitempty"`

	// Traced pass (absent from an end-to-end-only invocation).
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`

	// standIns fills the driver line, and nothing else, where the
	// workload does not define an end-to-end metric.
	standIns map[string]float64
}

func newRecord(seed int64, seconds float64) *record {
	return &record{
		Schema: recordSchema, Commit: vcsRevision(), Date: time.Now().UTC().Format(time.RFC3339),
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Seed: seed, Seconds: seconds,
	}
}

// vcsRevision reads the commit the binary was built from, when the go
// tool stamped one; a checkout that is not a repository has none.
func vcsRevision() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}

func (w workload) newRecord(r *runner) *workloadRecord {
	return &workloadRecord{
		Name: w.name, Why: w.why, Load: w.load, FlushPolicy: w.flush,
		EventsPerRound: r.scaled(w.events, 1000), Correct: true,
	}
}

// fill copies an end-to-end pass into the record.
func (wr *workloadRecord) fill(p *passResult, l *ladderResult) {
	wr.Rounds, wr.WarmRounds = len(p.rounds), p.warmed
	wr.Attempted, wr.Failed = p.attempted, p.failed
	wr.FailedFrac = ratio(float64(p.failed), float64(p.attempted))
	wr.Correct = p.failed == 0
	wr.Problems = p.problems
	wr.Counts, wr.State = p.counts, p.state
	wr.EndToEnd = map[string]*series{}
	for _, d := range endToEnd {
		if vs := p.e2e[d.Name]; len(vs) > 0 {
			wr.EndToEnd[d.Name] = newSeries(d.Unit, vs)
		}
	}
	for _, out := range p.rounds {
		h := out.res.Latency
		if out.res.IntendedLatency != nil {
			h = out.res.IntendedLatency
		}
		wr.LatencySamples += h.Count()
		wr.RefOverload += out.res.Overload
	}
	wr.standIns = p.standIns()
	if l != nil {
		wr.Ladder = l.trials
	}
}

// print writes the human-readable table of one workload: every metric
// by name with its unit. A per-layer metric the workload does not
// exercise is left out, not printed as zero.
func (wr *workloadRecord) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s (%s)\n", wr.Name, wr.Load)
	if wr.FlushPolicy != "" {
		fmt.Fprintf(out, "   flush policy: %s\n", wr.FlushPolicy)
	}
	if wr.EndToEnd != nil {
		fmt.Fprintf(out, "   %d rounds of %d events after %d warm-up rounds, %d latency samples (%d beyond p95)\n",
			wr.Rounds, wr.EventsPerRound, wr.WarmRounds, wr.LatencySamples, wr.LatencySamples/20)
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			if s == nil {
				continue // not defined on this workload
			}
			fmt.Fprintf(out, "   %-34s %16.4f %-6s  q1 %.4f  q3 %.4f  spread %.1f%%\n",
				d.Name, s.Median, d.Unit, s.Q1, s.Q3, 100*s.spread())
		}
		fmt.Fprintf(out, "   %-34s %16.6f ratio   ops_attempted %d  ops_failed %d\n", "failed_frac", wr.FailedFrac, wr.Attempted, wr.Failed)
		if wr.RefOverload != 0 {
			fmt.Fprintf(out, "   %d arrivals found the queue full at the reference rate (served late, charged to the latency tail: replay.p99_us)\n", wr.RefOverload)
		}
		keys := make([]string, 0, len(wr.Counts))
		for k := range wr.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "   count %-28s %16d\n", k, wr.Counts[k])
		}
	}
	for _, d := range perLayer {
		if v, ok := wr.PerLayer[d.Name]; ok {
			fmt.Fprintf(out, "   %-34s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	for _, p := range wr.Problems {
		fmt.Fprintf(out, "   PROBLEM %s\n", p)
	}
}

// contractLine renders the single JSON object the driver reads from the
// last line of standard output: the end-to-end medians of an untraced
// run, or every per-layer metric (0 where the workload has none) of a
// traced one. The driver wants every end-to-end metric on every
// workload and never zero, so a metric the workload does not define
// appears here, and only here, with its stand-in.
func (wr *workloadRecord) contractLine(traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = value{wr.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			if s := wr.EndToEnd[d.Name]; s != nil {
				metrics[d.Name] = value{s.Median, d.Unit}
			} else {
				metrics[d.Name] = value{wr.standIns[d.Name], d.Unit}
			}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	return string(line)
}

func writeRecord(path string, rec *record) error {
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != recordSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, recordSchema)
	}
	return &rec, nil
}

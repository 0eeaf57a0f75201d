// Package campaign runs scripted fault campaigns: a sweep over
// engines x crash points x checkpoint intervals where every cell
// replays the same trace through a mid-run crash, recovers from the
// newest checkpoint, and reports RTO (recovery downtime), the RPO
// proxy (operations replayed from the checkpoint watermark), and the
// happy-path checkpoint overhead — the robustness matrix the paper's
// evaluation methodology calls for alongside raw throughput numbers.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/replay"
	"gadget/internal/stores"
	"gadget/internal/vfs"
)

// Options configures a campaign sweep.
type Options struct {
	// Trace is the workload every cell replays. Required.
	Trace []kv.Access
	// Engines to sweep. Default: every registry engine except "remote"
	// (a campaign crashes stores locally; a remote server is out of its
	// jurisdiction).
	Engines []string
	// CrashPoints are the logical op indices to crash at, one crash per
	// cell; 0 means a clean run (the overhead baseline for its row).
	// Default: {0, len(Trace)/2}.
	CrashPoints []uint64
	// Intervals are the checkpoint cadences in ops; 0 means no
	// checkpoints (recovery degrades to full replay).
	// Default: {0, len(Trace)/10}.
	Intervals []uint64
	// Store is the engine sizing template; Engine, Dir, and FS are
	// overwritten per cell.
	Store stores.Config
}

// Cell is one campaign measurement: a single engine under a single
// crash schedule and checkpoint cadence.
type Cell struct {
	Engine               string  `json:"engine"`
	CheckpointEvery      uint64  `json:"checkpoint_every_ops"`
	CrashAt              uint64  `json:"crash_at"` // 0 = clean run
	Recoveries           uint64  `json:"recoveries"`
	RTOMillis            float64 `json:"rto_ms"`       // total recovery downtime
	ReplayedOps          uint64  `json:"replayed_ops"` // RPO proxy
	Checkpoints          uint64  `json:"checkpoints"`
	CheckpointCostMillis float64 `json:"checkpoint_cost_ms"`
	CheckpointBytes      uint64  `json:"checkpoint_bytes"`
	// OverheadFrac is the fraction of run time spent cutting
	// checkpoints — the price of the recovery insurance.
	OverheadFrac  float64 `json:"overhead_frac"`
	ThroughputOps float64 `json:"throughput_ops"`
	// StateOK reports whether the final recovered state matched the
	// memstore oracle byte-for-byte.
	StateOK bool   `json:"state_ok"`
	Err     string `json:"err,omitempty"`
}

// Matrix is the campaign result: the robustness matrix plus enough
// workload context to interpret it.
type Matrix struct {
	TraceOps int    `json:"trace_ops"`
	Cells    []Cell `json:"cells"`
}

func (o *Options) defaults() error {
	if len(o.Trace) == 0 {
		return fmt.Errorf("campaign: empty trace")
	}
	if len(o.Engines) == 0 {
		for _, e := range stores.Engines() {
			if e != "remote" {
				o.Engines = append(o.Engines, e)
			}
		}
	}
	n := uint64(len(o.Trace))
	if len(o.CrashPoints) == 0 {
		o.CrashPoints = []uint64{0, n / 2}
	}
	if len(o.Intervals) == 0 {
		o.Intervals = []uint64{0, n / 10}
	}
	for _, p := range o.CrashPoints {
		if p >= n {
			return fmt.Errorf("campaign: crash point %d is past the trace end %d", p, n)
		}
	}
	return nil
}

// Run executes the sweep. Per-cell failures (an engine refusing to
// open, a state mismatch) are recorded in the cell, not returned: a
// campaign's job is to chart robustness, and a crashing cell is a
// data point, not an abort.
func Run(opts Options, logf func(format string, args ...any)) (Matrix, error) {
	if err := opts.defaults(); err != nil {
		return Matrix{}, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	oracle, err := oracleState(opts.Trace)
	if err != nil {
		return Matrix{}, fmt.Errorf("campaign: building oracle: %w", err)
	}
	m := Matrix{TraceOps: len(opts.Trace)}
	for _, engine := range opts.Engines {
		for _, interval := range opts.Intervals {
			for _, crashAt := range opts.CrashPoints {
				cell := runCell(opts, engine, interval, crashAt, oracle)
				m.Cells = append(m.Cells, cell)
				logf("campaign: %-10s ckpt_every=%-6d crash_at=%-6d rto=%.1fms replayed=%d ok=%v%s",
					engine, interval, crashAt, cell.RTOMillis, cell.ReplayedOps, cell.StateOK, errSuffix(cell.Err))
			}
		}
	}
	return m, nil
}

func errSuffix(e string) string {
	if e == "" {
		return ""
	}
	return " err=" + e
}

// oracleState replays the trace into a memstore and returns the final
// contents every cell's recovered store must match.
func oracleState(trace []kv.Access) ([]kv.Entry, error) {
	s := memstore.New()
	defer s.Close()
	var keyBuf [kv.KeyLen]byte
	for _, a := range trace {
		if _, err := replay.Apply(s, nil, a, keyBuf[:]); err != nil {
			return nil, err
		}
	}
	return kv.ScanAll(s)
}

// runCell measures one (engine, interval, crash point) combination.
// The cell's world is a fresh MemFS modeling durable external storage:
// checkpoints are written straight to it, while each store attempt
// lives behind its own FaultFS in its own directory — a crash severs
// the FaultFS and abandons the directory, exactly the
// local-state-is-lost recovery model the runner assumes.
func runCell(opts Options, engine string, interval, crashAt uint64, oracle []kv.Entry) Cell {
	cell := Cell{Engine: engine, CheckpointEvery: interval, CrashAt: crashAt}
	world := vfs.NewMemFS()
	ck := &kv.Checkpointer{FS: world, Dir: "checkpoints", Engine: engine}

	var last kv.Store
	open := func(attempt int) (replay.Attempt, error) {
		cfg := opts.Store
		cfg.Engine = engine
		cfg.Dir = fmt.Sprintf("store/attempt-%d", attempt)
		if engine == "memstore" {
			s, err := stores.Open(cfg)
			if err != nil {
				return replay.Attempt{}, err
			}
			last = s
			return replay.Attempt{Store: s}, nil
		}
		ffs := vfs.NewFaultFS(world, vfs.FaultPlan{})
		cfg.FS = ffs
		s, err := stores.Open(cfg)
		if err != nil {
			return replay.Attempt{}, err
		}
		last = s
		return replay.Attempt{Store: s, Crash: func() {
			ffs.Crash()
			s.Close() // fails loudly on the severed FS; the error is the point
		}}, nil
	}

	ropts := replay.RecoveryOptions{CheckpointEvery: interval, Checkpointer: ck}
	if crashAt > 0 {
		ropts.CrashAtOps = []uint64{crashAt}
	}
	res, err := replay.RunWithRecovery(open, opts.Trace, ropts)
	if err != nil {
		cell.Err = err.Error()
		if last != nil {
			last.Close()
		}
		return cell
	}
	defer last.Close()

	cell.Recoveries = res.Recoveries
	cell.RTOMillis = float64(res.RecoveryTime) / float64(time.Millisecond)
	cell.ReplayedOps = res.ReplayedOps
	cell.Checkpoints = res.Checkpoints
	cell.CheckpointCostMillis = float64(res.CheckpointCost) / float64(time.Millisecond)
	cell.CheckpointBytes = res.CheckpointBytes
	if res.Duration > 0 {
		cell.OverheadFrac = float64(res.CheckpointCost) / float64(res.Duration)
	}
	cell.ThroughputOps = res.Throughput

	got, err := kv.ScanAll(last)
	if err != nil {
		cell.Err = fmt.Sprintf("scanning final state: %v", err)
		return cell
	}
	cell.StateOK = sameEntries(got, oracle)
	if !cell.StateOK && cell.Err == "" {
		cell.Err = fmt.Sprintf("final state diverged from oracle (%d entries vs %d)", len(got), len(oracle))
	}
	return cell
}

func sameEntries(got, want []kv.Entry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Key != want[i].Key || string(got[i].Value) != string(want[i].Value) {
			return false
		}
	}
	return true
}

// JSON renders the matrix as an indented document for results/.
func (m Matrix) JSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// WriteTable renders the matrix as an aligned text table, engines
// sorted, clean rows first within an engine.
func (m Matrix) WriteTable(w io.Writer) error {
	cells := append([]Cell(nil), m.Cells...)
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].Engine != cells[j].Engine {
			return cells[i].Engine < cells[j].Engine
		}
		if cells[i].CheckpointEvery != cells[j].CheckpointEvery {
			return cells[i].CheckpointEvery < cells[j].CheckpointEvery
		}
		return cells[i].CrashAt < cells[j].CrashAt
	})
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ENGINE\tCKPT_EVERY\tCRASH_AT\tRECOVERIES\tRTO_MS\tREPLAYED\tCKPTS\tOVERHEAD\tTHROUGHPUT\tSTATE")
	for _, c := range cells {
		state := "ok"
		if !c.StateOK {
			state = "FAIL"
			if c.Err != "" {
				state = "FAIL: " + c.Err
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.2f\t%d\t%d\t%.2f%%\t%.0f\t%s\n",
			c.Engine, c.CheckpointEvery, c.CrashAt, c.Recoveries, c.RTOMillis,
			c.ReplayedOps, c.Checkpoints, 100*c.OverheadFrac, c.ThroughputOps, state)
	}
	return tw.Flush()
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gadget"
	"gadget/internal/obs"
)

// workload is a small generated workload shared by the tests; crash
// points and rates below are sized to its trace.
const workload = `"source": {"events": 3000, "keys": 200, "seed": 5},
	"operator": {"type": "sliding-incr"}`

// tempEnv points the temp-dir rule of runs without store.dir into a
// per-test directory, and returns a second one for the test's files.
func tempEnv(t *testing.T) string {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	return t.TempDir()
}

func writeConfig(t *testing.T, dir, name, doc string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readReport(t *testing.T, path string) *obs.Report {
	t.Helper()
	rep, err := obs.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// counts is the part of a result a re-run must reproduce exactly.
func counts(rep *obs.Report) [3]uint64 {
	return [3]uint64{rep.Result.Ops, rep.Result.Misses, rep.Result.Errors}
}

// reportConfig re-parses the config a report echoes.
func reportConfig(t *testing.T, rep *obs.Report) gadget.Config {
	t.Helper()
	data, err := json.Marshal(rep.Config)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := gadget.ParseConfig(data)
	if err != nil {
		t.Fatalf("report config does not parse: %v\n%s", err, data)
	}
	return cfg
}

func TestRunOfflineWritesTrace(t *testing.T) {
	dir := tempEnv(t)
	trace := filepath.Join(dir, "t.bin")
	cfg, err := gadget.ParseConfig([]byte(`{` + workload + `,
		"run": {"mode": "offline", "trace_path": "` + trace + `"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := execute(cfg, 1); err != nil {
		t.Fatal(err)
	}
	got, err := gadget.ReadTrace(trace)
	if err != nil {
		t.Fatalf("offline run wrote no trace: %v", err)
	}
	w, err := gadget.NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("trace has %d accesses, want the workload's %d", len(got), len(want))
	}

	// generate writes the same trace from a crash-recovery config: the
	// crash schedule belongs to the run, not to the trace.
	path := writeConfig(t, dir, "crash.json", `{`+workload+`,
		"store": {"chaos": {"crash_at_ops": [100]}}, "run": {"checkpoint_every_ops": 50}}`)
	again := filepath.Join(dir, "again.bin")
	if err := cmdGenerate([]string{"-config", path, "-out", again}); err != nil {
		t.Fatal(err)
	}
	if got, err = gadget.ReadTrace(again); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("generate from a recovery config: %d accesses, err %v", len(got), err)
	}
}

func TestParseConfigRejectsStallInsidePacingGap(t *testing.T) {
	// At 10 ops/s the pacing gap is 100ms: a 50ms watchdog would abort
	// every run at its first paced op.
	if _, err := gadget.ParseConfig([]byte(`{"run": {"service_rate": 10, "stall_timeout_ms": 50}}`)); err == nil {
		t.Fatal("stall timeout inside the pacing gap accepted")
	}
	if _, err := gadget.ParseConfig([]byte(`{"run": {"service_rate": 10, "stall_timeout_ms": 150}}`)); err != nil {
		t.Fatalf("stall timeout beyond the pacing gap rejected: %v", err)
	}
	if _, err := gadget.ParseConfig([]byte(`{"run": {"mode": "open_loop", "rate": 10, "stall_timeout_ms": 50}}`)); err == nil {
		t.Fatal("stall timeout inside the arrival gap accepted")
	}
}

func TestReplayMatchesOnlineRun(t *testing.T) {
	dir := tempEnv(t)
	path := writeConfig(t, dir, "cfg.json", `{`+workload+`, "store": {"engine": "rocksdb"}}`)
	online := filepath.Join(dir, "online.json")
	if err := cmdRun([]string{"-config", path, "-report", online}); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "t.bin")
	if err := cmdGenerate([]string{"-config", path, "-out", trace}); err != nil {
		t.Fatal(err)
	}
	replayed := filepath.Join(dir, "replay.json")
	if err := cmdReplay([]string{"-trace", trace, "-engine", "rocksdb", "-report", replayed}); err != nil {
		t.Fatal(err)
	}
	on, re := readReport(t, online), readReport(t, replayed)
	if on.Result.Ops == 0 || counts(on) != counts(re) {
		t.Fatalf("replay ops/misses/errors = %v, online run %v", counts(re), counts(on))
	}
}

// TestReportConfigReruns feeds every kind of report's config back to
// execute: it must parse, and the re-run must repeat the counts.
func TestReportConfigReruns(t *testing.T) {
	dir := tempEnv(t)
	trace := filepath.Join(dir, "t.bin")
	if err := cmdGenerate([]string{"-config", writeConfig(t, dir, "gen.json", `{`+workload+`}`), "-out", trace}); err != nil {
		t.Fatal(err)
	}
	run := func(name, doc string) func(report string) error {
		path := writeConfig(t, dir, name+".json", doc)
		return func(report string) error { return cmdRun([]string{"-config", path, "-report", report}) }
	}
	replay := func(args ...string) func(report string) error {
		return func(report string) error {
			return cmdReplay(append([]string{"-trace", trace, "-report", report}, args...))
		}
	}
	cases := []struct {
		name string
		run  func(report string) error
	}{
		{"online", run("online", `{`+workload+`, "store": {"engine": "rocksdb"}}`)},
		{"open-loop", run("open-loop", `{`+workload+`,
			"run": {"mode": "open_loop", "rate": 500000, "arrival": "poisson", "max_in_flight": 64}}`)},
		{"recovery", run("recovery", `{`+workload+`,
			"store": {"engine": "rocksdb", "chaos": {"crash_at_ops": [1000, 2500]}},
			"run": {"checkpoint_every_ops": 400}}`)},
		{"replay", replay("-engine", "berkeleydb", "-rate", "1000000", "-stall-timeout", "2s")},
		{"replay-open-loop", replay("-open-loop", "-poisson", "-rate", "500000", "-seed", "9")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			first := filepath.Join(dir, c.name+"-1.json")
			if err := c.run(first); err != nil {
				t.Fatal(err)
			}
			rep := readReport(t, first)
			cfg := reportConfig(t, rep)
			second := filepath.Join(dir, c.name+"-2.json")
			cfg.Obs.ReportPath = second
			if err := execute(cfg, 1); err != nil {
				t.Fatal(err)
			}
			again := readReport(t, second)
			if rep.Result.Ops == 0 || counts(again) != counts(rep) {
				t.Fatalf("re-run ops/misses/errors = %v, first run %v", counts(again), counts(rep))
			}
			if c.name == "recovery" && again.Result.Recoveries != 2 {
				t.Fatalf("re-run recovered %d times, want 2", again.Result.Recoveries)
			}
		})
	}
}

func TestReplayReportNamesNoGenerator(t *testing.T) {
	dir := tempEnv(t)
	trace := filepath.Join(dir, "t.bin")
	if err := cmdGenerate([]string{"-config", writeConfig(t, dir, "gen.json", `{`+workload+`}`), "-out", trace}); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(dir, "r.json")
	if err := cmdReplay([]string{"-trace", trace, "-report", report}); err != nil {
		t.Fatal(err)
	}
	cfg := reportConfig(t, readReport(t, report))
	if cfg.Run.TracePath != trace {
		t.Fatalf("replay report names trace %q, want %q", cfg.Run.TracePath, trace)
	}
	if !reflect.DeepEqual(cfg.Source, gadget.SourceConfig{Seed: 1}) {
		t.Fatalf("replay report source = %+v, want only the -seed default", cfg.Source)
	}
	if !reflect.DeepEqual(cfg.Operator, gadget.OperatorConfig{}) {
		t.Fatalf("replay report operator = %+v, want none", cfg.Operator)
	}
}

func TestReplayRejectsSubMillisecondStallTimeout(t *testing.T) {
	err := cmdReplay([]string{"-trace", "unused.bin", "-stall-timeout", "500us"})
	if err == nil {
		t.Fatal("-stall-timeout 500us accepted; run.stall_timeout_ms would read 0")
	}
}

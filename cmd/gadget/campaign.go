package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gadget"
)

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	cfgPath := fs.String("config", "", "JSON configuration file (workload and store sizing)")
	engines := fs.String("engines", "", "comma-separated engines to sweep (default: every local engine)")
	crashAt := fs.String("crash-at", "", "comma-separated crash points in ops (default: 0 and half the trace)")
	intervals := fs.String("ckpt-every", "", "comma-separated checkpoint intervals in ops (default: 0 and a tenth of the trace)")
	out := fs.String("out", "results/campaign.json", "robustness matrix JSON output path")
	fs.Parse(args)
	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		return err
	}
	w, err := gadget.NewWorkload(cfg)
	if err != nil {
		return err
	}
	tr, err := w.Generate()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign: trace has %d accesses\n", len(tr))
	opts := gadget.CampaignOptions{Trace: tr, Store: cfg.Store}
	if *engines != "" {
		opts.Engines = strings.Split(*engines, ",")
	}
	if opts.CrashPoints, err = parseU64List(*crashAt); err != nil {
		return fmt.Errorf("-crash-at: %w", err)
	}
	if opts.Intervals, err = parseU64List(*intervals); err != nil {
		return fmt.Errorf("-ckpt-every: %w", err)
	}
	m, err := gadget.RunCampaign(opts, func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	})
	if err != nil {
		return err
	}
	data, err := m.JSON()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	if err := m.WriteTable(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("matrix written to %s\n", *out)
	return nil
}

func parseU64List(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]uint64, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

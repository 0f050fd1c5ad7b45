package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload end to end in both modes at toy sizes,
// so that `go test ./...` in this directory catches the benchmark rotting
// against the program without paying for a full run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("forms TCP rings; skipped under -short")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			if trace {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				o := runOpts{workload: w.Name, seed: 42, seconds: 1, trace: trace, smoke: true, checkReplay: true, outDir: dir}
				res, err := run(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d violations=%v", res.Correct, res.Attempted, res.Failed, res.Violations)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if _, ok := res.Metrics[d.Name]; !ok {
						t.Errorf("metric %s not reported", d.Name)
					}
				}
				if _, err := driverLine(res); err != nil {
					t.Error(err)
				}
				if trace {
					if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".jsonl")); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			})
		}
	}
}

// Command benchmark is the repository's benchmark: four named workloads
// over real sockets and virtual time, measured end to end with tracing
// off, and layer by layer (probes plus a traced run) with tracing on.
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

const usageText = `usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
            [--smoke] [--check-replay] [--dir DIR]
        run one workload; the last stdout line is the result as JSON
  benchmark all [the same flags]
        run every workload, each in a process of its own
  benchmark compare BASE.jsonl CANDIDATE.jsonl
        judge the candidate's end-to-end metrics against the base's bounds
  benchmark spread RESULTS.jsonl
        run-to-run spread of a result set against each metric's bound
  benchmark manifest
        print BENCHMARK.json

workloads: %s
`

func main() {
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func realMain(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			if len(args) != 3 {
				return fmt.Errorf("compare wants two result files")
			}
			pass, err := runCompare(os.Stdout, args[1], args[2])
			if err == nil && !pass {
				err = fmt.Errorf("candidate is worse than the base beyond a bound")
			}
			return err
		case "spread":
			if len(args) != 2 {
				return fmt.Errorf("spread wants one result file")
			}
			steady, err := runSpread(os.Stdout, args[1])
			if err == nil && !steady {
				err = fmt.Errorf("a spread exceeds a third of its bound")
			}
			return err
		case "manifest":
			b, err := json.MarshalIndent(buildManifest(), "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(b))
			return nil
		case "all":
			return runAll(args[1:])
		}
	}

	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprintf(os.Stderr, usageText, strings.Join(workloadNames(), ", ")) }
	var o runOpts
	var trace int
	var out string
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 42, "seed of the op stream")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "seconds to measure for")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the layer probes")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes, for the bitrot test; the numbers mean nothing")
	fs.BoolVar(&o.checkReplay, "check-replay", false, "sim-wan: run the stream twice and require identical deterministic fields")
	fs.StringVar(&out, "out", "", "append the full result (provenance, sample counts, spreads) to this JSON-lines file")
	fs.StringVar(&o.outDir, "dir", "benchmarks/out", "directory for traces and temporary data")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.workload == "" || fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("need exactly one --workload")
	}
	if o.seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	o.trace = trace == 1

	res, err := run(context.Background(), o)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s  seed %d  %ds  trace %d  gate rounds %d (retries %d)\n",
		o.workload, o.seed, o.seconds, trace, res.Provenance.GateRounds, res.Provenance.GateRetries)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	printTable(res, defs)
	for _, v := range res.Violations {
		fmt.Println("VIOLATION:", v)
	}
	if out != "" {
		if err := appendResult(out, res); err != nil {
			return err
		}
	}
	if !res.Correct {
		return fmt.Errorf("%s: outputs are wrong (%d violations)", o.workload, len(res.Violations))
	}
	line, err := driverLine(res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// runAll runs every workload in a fresh process each, so that peak RSS
// and warm-up state are per workload, exactly as the driver runs them.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("all: %w", err)
	}
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"--workload", w.Name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.Name)
		}
		fmt.Println()
	}
	if len(failed) > 0 {
		return fmt.Errorf("all: failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

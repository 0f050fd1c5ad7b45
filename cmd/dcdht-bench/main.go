// Command dcdht-bench regenerates every table and figure of the paper's
// evaluation (§3.3 analysis, Figures 6–12), the ablations, and the
// post-paper figures, printing each as a series table and optionally
// writing CSV and machine-readable JSON. Each figure is one entry of
// the internal/exp registry; docs/BENCHMARKS.md lists them with their
// parameters.
//
// Usage:
//
//	dcdht-bench                           # every figure, quick sweeps (minutes)
//	dcdht-bench -full                     # paper-scale axes (10,000 peers, 3h windows)
//	dcdht-bench -figure 7,8               # only selected figures
//	dcdht-bench -csv out/                 # also write CSV per figure
//	dcdht-bench -figure repair -json out  # also write out/BENCH_repair.json
//	dcdht-bench -figure workload -set pattern=zipf -set ratio=0.9 -seed 1
//	dcdht-bench -figure perf -set macro_ops=0 -cpuprofile cpu.pb.gz
//
// -set key=value overrides one parameter of the selected figures, and
// every selected figure must have it; an unknown key or a malformed
// value exits 2 and lists the figure's parameters. A parameter left
// unset keeps its quick or, under -full, its full default. -json DIR
// writes the document of each selected figure that has one as
// DIR/BENCH_<figure>.json; without -json no JSON is written.
// -cpuprofile/-memprofile capture pprof profiles of any run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/exp"
)

// log is the process logger; main replaces it per -log-format before
// any figure runs.
var log = slog.New(slog.NewTextHandler(os.Stderr, nil))

// usageError reports a bad command line and exits 2 before any figure
// runs.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dcdht-bench: "+format+"\n", args...)
	os.Exit(2)
}

// writeJSON serializes one figure's document so CI and perf tracking
// can diff results across commits without parsing tables.
func writeJSON(name, path string, doc exp.Document) {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Error("json marshal failed", "figure", name, "err", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Error("json write failed", "figure", name, "path", path, "err", err)
		os.Exit(1)
	}
	log.Info("wrote results", "figure", name, "path", path)
}

func main() {
	var all []string
	for _, f := range exp.Figures {
		all = append(all, f.Name)
	}
	full := flag.Bool("full", false, "paper-scale axes: 10,000 peers, 3-hour simulated windows (slow; default is quick mode)")
	seed := flag.Int64("seed", 42, "simulation seed; every figure replays bit-identically per seed")
	figures := flag.String("figure", "all", "comma-separated figures to run: "+strings.Join(all, ","))
	var sets []string
	flag.Func("set", "key=value: override a parameter of the selected figures (repeatable)", func(kv string) error {
		sets = append(sets, kv)
		return nil
	})
	jsonDir := flag.String("json", "", "directory to write each selected figure's document to, as BENCH_<figure>.json (empty writes none)")
	csvDir := flag.String("csv", "", "directory to also write one CSV file per table (empty disables)")
	quiet := flag.Bool("quiet", false, "suppress per-run progress lines on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file (inspect with go tool pprof)")
	logFormat := flag.String("log-format", "text", "log output format for diagnostics on stderr: text or json")
	flag.Parse()

	switch *logFormat {
	case "", "text":
		// the default handler set at package level
	case "json":
		log = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		usageError("unknown -log-format %q (want text or json)", *logFormat)
	}

	opts := exp.Options{Full: *full, Seed: *seed}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	// Resolve the selection and every parameter before anything runs,
	// so a typo costs nothing.
	want := map[string]bool{}
	for _, name := range strings.Split(*figures, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && exp.FigureNamed(name) == nil {
			usageError("unknown figure %q (want %s or all)", name, strings.Join(all, ","))
		}
		want[name] = true
	}
	type job struct {
		name string
		run  func() ([]*exp.Table, exp.Document, error)
		doc  exp.Document // what run returned, if anything
	}
	var jobs []job
	for _, f := range exp.Figures {
		if !want["all"] && !want[f.Name] {
			continue
		}
		run, err := f.Prepare(opts, sets)
		if err != nil {
			usageError("%v", err)
		}
		jobs = append(jobs, job{name: f.Name, run: run})
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Error("cpu profile create failed", "path", *cpuProfile, "err", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Error("cpu profile start failed", "err", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var tables []*exp.Table
	for i, j := range jobs {
		ts, doc, err := j.run()
		if err != nil {
			log.Error("figure failed", "figure", j.name, "err", err)
			os.Exit(2)
		}
		for _, t := range ts {
			t.Render(os.Stdout)
			fmt.Println()
			tables = append(tables, t)
		}
		jobs[i].doc = doc
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Error("csv dir create failed", "dir", *csvDir, "err", err)
			os.Exit(1)
		}
		for i, t := range tables {
			name := fmt.Sprintf("table%02d.csv", i)
			if idx := strings.Index(t.Title, ":"); idx > 0 {
				name = strings.ToLower(strings.ReplaceAll(
					strings.ReplaceAll(t.Title[:idx], " ", "_"), "§", "s")) + ".csv"
			}
			f, err := os.Create(filepath.Join(*csvDir, name))
			if err != nil {
				log.Error("csv create failed", "file", name, "err", err)
				os.Exit(1)
			}
			t.CSV(f)
			f.Close()
		}
		log.Info("wrote CSV files", "count", len(tables), "dir", *csvDir)
	}
	// Last, after every other output is safely on disk: a failure here
	// must not discard a long run's figures.
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			log.Error("json dir create failed", "dir", *jsonDir, "err", err)
			os.Exit(1)
		}
		for _, j := range jobs {
			if j.doc != nil {
				writeJSON(j.name, filepath.Join(*jsonDir, "BENCH_"+j.name+".json"), j.doc)
			}
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Error("mem profile create failed", "path", *memProfile, "err", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Error("mem profile write failed", "err", err)
			os.Exit(1)
		}
		f.Close()
		log.Info("wrote heap profile", "path", *memProfile)
	}
}

// Command dcdht-bench regenerates every table and figure of the paper's
// evaluation (§3.3 analysis, Figures 6–12), the ablations, and the
// post-paper figures (replica maintenance, workload engine), printing
// each as a series table and optionally writing CSV and machine-readable
// JSON.
//
// Usage:
//
//	dcdht-bench                 # quick sweeps (minutes)
//	dcdht-bench -full           # paper-scale axes (10,000 peers, 3h windows)
//	dcdht-bench -figure 7,8     # only selected figures
//	dcdht-bench -csv out/       # also write CSV per figure
//	dcdht-bench -figure repair -repair-json BENCH_repair.json
//	dcdht-bench -figure workload -workload zipf -ratio 0.9 -seed 1
//	dcdht-bench -figure scenario -scenario split-heal,lossy-wan
//	dcdht-bench -figure consistency -levels all -bound 5m
//	dcdht-bench -figure recovery -recovery-peers 120
//
// The workload figure drives YCSB-style load (see docs/BENCHMARKS.md)
// and writes BENCH_workload.json by default. The scenario figure plays
// the scripted fault scenarios of docs/SCENARIOS.md — churn waves,
// partitions with heal, degraded links — with replica maintenance off
// and on, and writes BENCH_scenario.json by default. The consistency
// figure measures retrieval cost vs observed currency per consistency
// level (Current / Bounded / Eventual, see docs/CONSISTENCY.md), with
// replica maintenance off and on, and writes BENCH_consistency.json by
// default. The recovery figure plays identical kill-and-restart waves
// with volatile (crash-and-forget) and durable (internal/store) peers
// on the same seed and writes BENCH_recovery.json by default (see
// docs/STORAGE.md). The gateway figure runs the identical Zipf
// hot-key workload directly against peers and through the coalescing
// gateway tier (internal/gateway, see docs/GATEWAY.md) on same-seed
// deployments, comparing KTS traffic, coalescing factor, and latency
// quantiles, and writes BENCH_gateway.json by default. The lookup
// figure races three ways of finding an owner head-to-head — chord's
// authoritative lookup, chord as an operation resolves (guess from
// routing state and learned arcs, else lookup), and the one-hop
// full-table ring — on same-seed deployments, comparing hops, latency
// and maintenance traffic (see docs/LOOKUP.md), and writes
// BENCH_lookup.json by default. The perf figure measures the hot paths
// themselves — per-op message and KTS costs by algorithm and
// consistency level, the bare sim kernel at 1k/10k/100k synthetic
// peers, and a closed-loop macro workload (see docs/PERFORMANCE.md) —
// and writes BENCH_perf.json by default; -perf-strip-timing zeroes the
// host-dependent fields so same-seed runs are byte-identical, and
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
	"time"

	"repro/internal/exp"
	"repro/internal/perf"
)

// log is the process logger; main replaces it per -log-format before
// any figure runs.
var log = slog.New(slog.NewTextHandler(os.Stderr, nil))

// writeJSON serializes one figure's machine-readable points so CI and
// perf tracking can diff results across commits without parsing tables.
func writeJSON(what, path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Error("json marshal failed", "figure", what, "err", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Error("json write failed", "figure", what, "path", path, "err", err)
		os.Exit(1)
	}
	log.Info("wrote results", "figure", what, "path", path)
}

func main() {
	full := flag.Bool("full", false, "paper-scale axes: 10,000 peers, 3-hour simulated windows (slow; default is quick mode)")
	seed := flag.Int64("seed", 42, "simulation seed; every figure replays bit-identically per seed")
	figures := flag.String("figure", "all", "comma-separated figures to run: analysis,6,7,8,9,10,11,12,ablations,repair,workload,scenario,consistency,recovery,gateway,lookup,perf")
	csvDir := flag.String("csv", "", "directory to also write one CSV file per figure (empty disables)")
	repairJSON := flag.String("repair-json", "", "path for the machine-readable repair comparison, e.g. BENCH_repair.json (written when the repair figure runs; empty disables)")
	quiet := flag.Bool("quiet", false, "suppress per-run progress lines on stderr")

	// Workload-figure knobs (-figure workload).
	workloadName := flag.String("workload", "all", "workload pattern: uniform|zipf|hotkey-update|scan-recent|all")
	ratio := flag.Float64("ratio", 0.9, "read fraction of the workload mix, in [0,1]")
	zipfS := flag.Float64("zipf", 1.1, "Zipf skew exponent s (>1; larger is more skewed) for the zipf workload")
	rate := flag.Float64("rate", 0, "open-loop target throughput in ops per simulated second; 0 selects the closed-loop driver")
	concurrency := flag.Int("concurrency", 8, "closed-loop worker count")
	duration := flag.Duration("duration", 2*time.Minute, "measured window of simulated time per workload run, e.g. 2m")
	workloadPeers := flag.Int("workload-peers", 0, "deployment size for the workload figure; 0 selects the default (200 quick, 2000 full)")
	workloadJSON := flag.String("workload-json", "BENCH_workload.json", "path for the machine-readable workload results (written when the workload figure runs; empty disables)")

	// Scenario-figure knobs (-figure scenario).
	scenarioNames := flag.String("scenario", "all", "comma-separated scripted scenarios: calm|churn-wave|split-heal|lossy-wan|mass-crash|all")
	scenarioPeers := flag.Int("scenario-peers", 0, "deployment size for the scenario figure; 0 selects the default (400 quick, base full)")
	scenarioJSON := flag.String("scenario-json", "BENCH_scenario.json", "path for the machine-readable scenario results (written when the scenario figure runs; empty disables)")

	// Consistency-figure knobs (-figure consistency).
	levels := flag.String("levels", "all", "comma-separated consistency levels for the consistency figure: current|bounded|eventual|all")
	bound := flag.Duration("bound", 5*time.Minute, "staleness bound for bounded-consistency reads, in simulated time")
	consistencyPeers := flag.Int("consistency-peers", 0, "deployment size for the consistency figure; 0 selects the default (120 quick, 1000 full)")
	consistencyQueries := flag.Int("consistency-queries", 0, "measured retrieves per consistency point; 0 selects the default (60 quick, 200 full)")
	consistencyWindow := flag.Duration("consistency-duration", 0, "measured window of simulated time per consistency point; 0 selects the default (12m quick, 1h full)")
	consistencyJSON := flag.String("consistency-json", "BENCH_consistency.json", "path for the machine-readable consistency results (written when the consistency figure runs; empty disables)")

	// Gateway-figure knobs (-figure gateway).
	gatewayBackends := flag.Int("gateway-backends", 0, "gateway backend pool size; 0 selects the default (4)")
	gatewayZipf := flag.Float64("gateway-zipf", 0, "Zipf skew exponent for the gateway figure; 0 selects the default (1.6)")
	gatewayConcurrency := flag.Int("gateway-concurrency", 0, "closed-loop worker count for the gateway figure; 0 selects the default (24)")
	gatewayOps := flag.Int("gateway-ops", 0, "operations per gateway arm; 0 selects the default (600)")
	gatewayKeys := flag.Int("gateway-keys", 0, "keyspace size for the gateway figure; 0 selects the default (8)")
	gatewayBoundedFrac := flag.Float64("gateway-bounded-frac", 0.15, "fraction of gateway-figure reads issued at Bounded consistency")
	gatewayEventualFrac := flag.Float64("gateway-eventual-frac", 0.05, "fraction of gateway-figure reads issued at Eventual consistency")
	gatewayBound := flag.Duration("gateway-bound", 0, "staleness bound for the gateway figure's Bounded reads; 0 selects the default (30s)")
	gatewayPeers := flag.Int("gateway-peers", 0, "deployment size for the gateway figure; 0 selects the default (100 quick, 400 full)")
	gatewayJSON := flag.String("gateway-json", "BENCH_gateway.json", "path for the machine-readable gateway results (written when the gateway figure runs; empty disables)")

	// Lookup-figure knobs (-figure lookup).
	lookupPeersFlag := flag.String("lookup-peers", "", "comma-separated deployment sizes for the lookup figure, e.g. 100,1000; empty selects the default (100,300,1000 quick / 100,1000,10000 full)")
	lookupSamples := flag.Int("lookup-samples", 0, "measured lookups per (arm, size) point; 0 selects the default (200)")
	lookupChurn := flag.Int("lookup-churn", 0, "leave+join pairs inside the maintenance window; 0 selects the default (3)")
	lookupWarmup := flag.Duration("lookup-warmup", 0, "settle window of simulated time before (and after) the churn window; 0 selects the default (30s)")
	lookupMaint := flag.Duration("lookup-maint", 0, "churn-and-maintenance observation window of simulated time; 0 selects the default (1m)")
	lookupJSON := flag.String("lookup-json", "BENCH_lookup.json", "path for the machine-readable lookup results (written when the lookup figure runs; empty disables)")

	// Recovery-figure knobs (-figure recovery).
	recoveryPeers := flag.Int("recovery-peers", 0, "deployment size for the recovery figure; 0 selects the default (120 quick, base full)")
	recoveryQueries := flag.Int("recovery-queries", 0, "measured retrieves per recovery mode; 0 selects the default (60)")
	recoveryWindow := flag.Duration("recovery-duration", 0, "measured window of simulated time per recovery mode; 0 selects the shared figure default")
	recoveryJSON := flag.String("recovery-json", "BENCH_recovery.json", "path for the machine-readable recovery results (written when the recovery figure runs; empty disables)")

	// Perf-figure knobs (-figure perf).
	perfOps := flag.Int("perf-ops", 0, "operations per perf micro point; 0 selects the default (30 quick, 200 full)")
	perfPeers := flag.Int("perf-peers", 0, "deployment size for the perf micro and macro points; 0 selects the default (48 quick, 1000 full)")
	perfKernelPeers := flag.String("perf-kernel-peers", "", "comma-separated synthetic scales for the kernel benchmark, e.g. 1000,10000,100000; empty selects the default")
	perfKernelEvents := flag.Int("perf-kernel-events", 0, "kernel-benchmark chain length per synthetic peer; 0 selects the default (10 quick, 50 full)")
	perfMacroOps := flag.Int("perf-macro-ops", 0, "macro workload operation count; 0 selects the default (300 quick, 1000000 full), negative skips the macro point")
	perfStripTiming := flag.Bool("perf-strip-timing", false, "zero the host-dependent timing fields of the perf export so same-seed runs are byte-identical (CI determinism checks)")
	perfJSON := flag.String("perf-json", "BENCH_perf.json", "path for the machine-readable perf results (written when the perf figure runs; empty disables)")

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
		log.Error("unknown -log-format (want text or json)", "got", *logFormat)
		os.Exit(2)
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

	opts := exp.Options{Full: *full, Seed: *seed}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*figures, ",") {
		want[strings.TrimSpace(f)] = true
	}
	wanted := func(tags ...string) bool {
		if want["all"] {
			return true
		}
		for _, t := range tags {
			if want[t] {
				return true
			}
		}
		return false
	}

	var tables []*exp.Table
	emit := func(t *exp.Table) {
		t.Render(os.Stdout)
		fmt.Println()
		tables = append(tables, t)
	}

	if wanted("analysis") {
		emit(exp.AnalysisExpectedRetrievals(opts))
		emit(exp.AnalysisIndirectSuccess(opts))
	}
	if wanted("6") {
		emit(exp.Figure6(opts))
	}
	if wanted("7", "8") {
		t7, t8 := exp.Figures7And8(opts)
		if wanted("7") {
			emit(t7)
		}
		if wanted("8") {
			emit(t8)
		}
	}
	if wanted("9", "10") {
		t9, t10 := exp.Figures9And10(opts)
		if wanted("9") {
			emit(t9)
		}
		if wanted("10") {
			emit(t10)
		}
	}
	if wanted("11") {
		emit(exp.Figure11(opts))
	}
	if wanted("12") {
		emit(exp.Figure12(opts))
	}
	if wanted("ablations") {
		emit(exp.AblationRLU(opts))
		emit(exp.AblationGraceDelay(opts))
		emit(exp.AblationSuccessorList(opts))
		emit(exp.AblationDataHandoff(opts))
	}
	var repairPoints []exp.RepairPoint
	if wanted("repair") {
		t, points := exp.FigureRepair(opts)
		emit(t)
		repairPoints = points
	}
	var workloadPoints []exp.WorkloadPoint
	if wanted("workload") {
		if *ratio < 0 || *ratio > 1 {
			log.Error("-ratio outside [0,1]", "ratio", *ratio)
			os.Exit(2)
		}
		t, points, err := exp.FigureWorkload(opts, exp.WorkloadOptions{
			Pattern:     *workloadName,
			ReadRatio:   ratio,
			ZipfS:       *zipfS,
			Rate:        *rate,
			Concurrency: *concurrency,
			Duration:    *duration,
			Peers:       *workloadPeers,
		})
		if err != nil {
			log.Error("workload figure failed", "err", err)
			os.Exit(2)
		}
		emit(t)
		workloadPoints = points
	}
	var scenarioPoints []exp.ScenarioPoint
	if wanted("scenario") {
		names := []string{}
		for _, n := range strings.Split(*scenarioNames, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		t, points, err := exp.FigureScenario(opts, exp.ScenarioOptions{
			Names: names,
			Peers: *scenarioPeers,
		})
		if err != nil {
			log.Error("scenario figure failed", "err", err)
			os.Exit(2)
		}
		emit(t)
		scenarioPoints = points
	}
	var consistencyPoints []exp.ConsistencyPoint
	if wanted("consistency") {
		names := []string{}
		if *levels != "all" {
			for _, n := range strings.Split(*levels, ",") {
				if n = strings.TrimSpace(n); n != "" && n != "all" {
					names = append(names, n)
				}
			}
		}
		t, points, err := exp.FigureConsistency(opts, exp.ConsistencyOptions{
			Levels:   names,
			Bound:    *bound,
			Peers:    *consistencyPeers,
			Queries:  *consistencyQueries,
			Duration: *consistencyWindow,
		})
		if err != nil {
			log.Error("consistency figure failed", "err", err)
			os.Exit(2)
		}
		emit(t)
		consistencyPoints = points
	}
	var gatewayResult *exp.GatewayResult
	if wanted("gateway") {
		t, res, err := exp.FigureGateway(opts, exp.GatewayOptions{
			Backends:     *gatewayBackends,
			ZipfS:        *gatewayZipf,
			Concurrency:  *gatewayConcurrency,
			Ops:          *gatewayOps,
			Keys:         *gatewayKeys,
			BoundedFrac:  *gatewayBoundedFrac,
			EventualFrac: *gatewayEventualFrac,
			Bound:        *gatewayBound,
			Peers:        *gatewayPeers,
		})
		if err != nil {
			log.Error("gateway figure failed", "err", err)
			os.Exit(2)
		}
		emit(t)
		gatewayResult = res
	}
	var lookupResult *exp.LookupResult
	if wanted("lookup") {
		var sizes []int
		for _, s := range strings.Split(*lookupPeersFlag, ",") {
			if s = strings.TrimSpace(s); s != "" {
				var n int
				if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n <= 0 {
					log.Error("bad -lookup-peers entry", "got", s)
					os.Exit(2)
				}
				sizes = append(sizes, n)
			}
		}
		t, res, err := exp.FigureLookup(opts, exp.LookupOptions{
			Peers:       sizes,
			Samples:     *lookupSamples,
			ChurnEvents: *lookupChurn,
			Warmup:      *lookupWarmup,
			MaintWindow: *lookupMaint,
		})
		if err != nil {
			log.Error("lookup figure failed", "err", err)
			os.Exit(2)
		}
		emit(t)
		lookupResult = res
	}
	var perfFigure *perf.Figure
	if wanted("perf") {
		var kernelPeers []int
		for _, s := range strings.Split(*perfKernelPeers, ",") {
			if s = strings.TrimSpace(s); s != "" {
				var n int
				if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n <= 0 {
					log.Error("bad -perf-kernel-peers entry", "got", s)
					os.Exit(2)
				}
				kernelPeers = append(kernelPeers, n)
			}
		}
		t, fig, err := exp.FigurePerf(opts, exp.PerfOptions{
			MicroOps:            *perfOps,
			Peers:               *perfPeers,
			KernelPeers:         kernelPeers,
			KernelEventsPerPeer: *perfKernelEvents,
			MacroOps:            *perfMacroOps,
		})
		if err != nil {
			log.Error("perf figure failed", "err", err)
			os.Exit(2)
		}
		if *perfStripTiming {
			fig.StripTiming()
		}
		emit(t)
		perfFigure = fig
	}
	var recoveryPoints []exp.RecoveryPoint
	if wanted("recovery") {
		t, points, err := exp.FigureRecovery(opts, exp.RecoveryOptions{
			Peers:    *recoveryPeers,
			Queries:  *recoveryQueries,
			Duration: *recoveryWindow,
		})
		if err != nil {
			log.Error("recovery figure failed", "err", err)
			os.Exit(2)
		}
		emit(t)
		recoveryPoints = points
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
	if repairPoints != nil && *repairJSON != "" {
		writeJSON("repair", *repairJSON, repairPoints)
	}
	if workloadPoints != nil && *workloadJSON != "" {
		writeJSON("workload", *workloadJSON, workloadPoints)
	}
	if scenarioPoints != nil && *scenarioJSON != "" {
		writeJSON("scenario", *scenarioJSON, scenarioPoints)
	}
	if consistencyPoints != nil && *consistencyJSON != "" {
		writeJSON("consistency", *consistencyJSON, consistencyPoints)
	}
	if recoveryPoints != nil && *recoveryJSON != "" {
		writeJSON("recovery", *recoveryJSON, recoveryPoints)
	}
	if gatewayResult != nil && *gatewayJSON != "" {
		writeJSON("gateway", *gatewayJSON, gatewayResult)
	}
	if lookupResult != nil && *lookupJSON != "" {
		writeJSON("lookup", *lookupJSON, lookupResult)
	}
	if perfFigure != nil && *perfJSON != "" {
		writeJSON("perf", *perfJSON, perfFigure)
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

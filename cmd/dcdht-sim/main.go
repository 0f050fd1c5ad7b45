// Command dcdht-sim runs one simulated scenario with explicit knobs and
// prints the aggregate metrics — a workbench for exploring the design
// space beyond the paper's fixed sweeps.
//
// Example:
//
//	dcdht-sim -peers 2000 -alg UMS-Direct -replicas 10 -duration 1h \
//	          -churn 1 -fail 0.05 -updates 1 -queries 30
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/exp"
	"repro/internal/peer"
	"repro/internal/scenario"
)

// newLogger builds the process logger from -log-format ("text" or
// "json"). Diagnostics go to stderr; the report stays on stdout.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func main() {
	peers := flag.Int("peers", 1000, "number of simulated peers")
	alg := flag.String("alg", "UMS-Direct", "algorithm: BRK, UMS-Indirect or UMS-Direct")
	replicas := flag.Int("replicas", 10, "|Hr|: replicas per data item")
	keys := flag.Int("keys", 20, "working-set size in keys")
	duration := flag.Duration("duration", time.Hour, "measured window of simulated time, e.g. 1h")
	queries := flag.Int("queries", 30, "retrieve operations at uniform times over the window (paper: 30)")
	churn := flag.Float64("churn", 1, "peer departures per simulated second (Table 1: 1)")
	fail := flag.Float64("fail", 0.05, "fraction of departures that are failures, in [0,1] (Table 1: 0.05)")
	updates := flag.Float64("updates", 1, "updates per key per simulated hour (Table 1: 1)")
	seed := flag.Int64("seed", 1, "simulation seed; the run replays bit-identically per seed")
	cluster := flag.Bool("cluster", false, "use the LAN cluster profile instead of Table 1's WAN model")
	ring := flag.String("ring", "chord", "overlay substrate: chord, can or onehop (see docs/LOOKUP.md)")
	scen := flag.String("scenario", "", "scripted scenario to play over the window: calm, churn-wave, split-heal, lossy-wan or mass-crash (see docs/SCENARIOS.md); empty plays none")
	metricsOut := flag.String("metrics-out", "", "write the run's aggregated metrics snapshot as JSON to this file (see docs/OBSERVABILITY.md)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	log, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var algorithm exp.Algorithm
	switch *alg {
	case string(exp.AlgBRK):
		algorithm = exp.AlgBRK
	case string(exp.AlgUMSIndirect):
		algorithm = exp.AlgUMSIndirect
	case string(exp.AlgUMSDirect):
		algorithm = exp.AlgUMSDirect
	default:
		log.Error("unknown algorithm", "alg", *alg)
		os.Exit(2)
	}

	for _, c := range []struct {
		flag string
		ok   bool
		want string
	}{
		{"peers", *peers >= 1, "at least 1"},
		{"replicas", *replicas >= 1, "at least 1"},
		{"keys", *keys >= 1, "at least 1"},
		{"queries", *queries >= 0, "not negative"},
		{"churn", *churn >= 0, "not negative"},
		{"fail", *fail >= 0 && *fail <= 1, "in [0,1]"},
		{"updates", *updates >= 0, "not negative"},
	} {
		if !c.ok {
			log.Error("bad -"+c.flag, "want", c.want)
			os.Exit(2)
		}
	}

	sc := exp.Table1Scenario(algorithm, *peers, *seed)
	sc.Replicas = *replicas
	sc.Keys = *keys
	sc.Duration = *duration
	sc.Queries = *queries
	sc.ChurnRate = *churn
	sc.FailRate = *fail
	sc.UpdateRate = *updates
	if sc.Ring, err = peer.ParseRing(*ring); err != nil {
		log.Error("bad -ring", "err", err)
		os.Exit(2)
	}
	if *cluster {
		sc.UseCluster()
	}

	if *scen != "" {
		script, err := scenario.Builtin(*scen, sc.Duration)
		if err != nil {
			log.Error("bad -scenario", "err", err)
			os.Exit(2)
		}
		sc.Script = &script
	}

	log.Info("running", "alg", string(algorithm), "ring", string(sc.Ring), "peers", sc.Peers,
		"replicas", sc.Replicas, "keys", sc.Keys, "duration", sc.Duration,
		"churn_per_sec", sc.ChurnRate, "fail_rate", sc.FailRate,
		"updates_per_hour", sc.UpdateRate)
	r := exp.Run(sc)

	if *metricsOut != "" {
		blob, err := json.MarshalIndent(r.Obs, "", "  ")
		if err == nil {
			err = os.WriteFile(*metricsOut, append(blob, '\n'), 0o644)
		}
		if err != nil {
			log.Error("metrics snapshot write failed", "path", *metricsOut, "err", err)
			os.Exit(1)
		}
		log.Info("metrics snapshot written", "path", *metricsOut)
	}

	fmt.Printf("algorithm          %s\n", algorithm)
	fmt.Printf("response time      %.3f s (stddev %.3f, min %.3f, max %.3f)\n",
		r.RespTime.Mean(), r.RespTime.StdDev(), r.RespTime.Min(), r.RespTime.Max())
	fmt.Printf("messages/retrieve  %.1f (stddev %.1f)\n", r.Msgs.Mean(), r.Msgs.StdDev())
	fmt.Printf("replicas probed    %.2f (nums)\n", r.Probed.Mean())
	fmt.Printf("provably current   %.0f%%\n", 100*r.CurrentRate)
	fmt.Printf("stale fallbacks    %d\n", r.StaleReturns)
	fmt.Printf("failed queries     %d / %d\n", r.QueriesFailed, r.QueriesRun)
	fmt.Printf("updates run        %d (failed %d)\n", r.UpdatesRun, r.UpdatesFailed)
	fmt.Printf("churn events       %d (failures %d)\n", r.ChurnEvents, r.FailEvents)
	if r.Trace != nil {
		fmt.Printf("scenario           %s: %d events applied\n", r.Trace.Script, len(r.Trace.Applied))
	}
	fmt.Printf("network messages   %d total\n", r.TotalNetMsgs)
	fmt.Printf("simulation         %d events\n", r.SimEvents)
}

package exp

import (
	"context"
	"flag"
	"fmt"
	"time"

	"repro/internal/workload"
)

// The workload figure: YCSB-style load generation against a simulated
// UMS-Direct deployment. Where the paper's figures measure 30 queries
// at uniform times, this figure drives sustained traffic with skewed
// key popularity and explicit read/write mixes, and reports the latency
// *distribution* (p50/p95/p99/p999 from log-bucketed histograms) per
// op type instead of a single mean — the shape production capacity
// planning actually needs.

// workloadParams are the workload figure's parameters.
type workloadParams struct {
	pattern     string
	ratio, rate float64
	concurrency int
	duration    time.Duration
	ops, keys   int
	peers       int
}

func (p *workloadParams) declare(fs *flag.FlagSet, o Options) {
	fs.StringVar(&p.pattern, "pattern", "all", "workload pattern: uniform|zipf|hotkey-update|scan-recent|all")
	fs.Float64Var(&p.ratio, "ratio", 0.9, "read fraction of the mix, in [0,1]")
	fs.Float64Var(&p.rate, "rate", 0, "open-loop target in ops per simulated second; 0 runs the closed-loop driver")
	fs.IntVar(&p.concurrency, "concurrency", 8, "closed-loop worker count")
	fs.DurationVar(&p.duration, "duration", 2*time.Minute, "measured window of simulated time per run; 0 bounds the run by ops alone")
	fs.IntVar(&p.ops, "ops", 0, "operations per run; 0 bounds the run by duration alone")
	fs.IntVar(&p.keys, "keys", 50, "keyspace size")
	fs.IntVar(&p.peers, "peers", pick(o, 200, 2000), "deployment size")
}

// WorkloadPoint is one pattern's outcome in machine-readable form.
type WorkloadPoint struct {
	Peers int `json:"peers"`
	workload.Report
}

// WorkloadPoints is the workload figure's document (BENCH_workload.json).
type WorkloadPoints []WorkloadPoint

// Validate checks that every pattern ran and accounted for its
// operations.
func (ps WorkloadPoints) Validate() error {
	if len(ps) == 0 {
		return fmt.Errorf("workload: empty point set")
	}
	for _, p := range ps {
		if p.Peers <= 0 || p.Ops <= 0 {
			return fmt.Errorf("workload: pattern %q: peers=%d ops=%d", p.Workload, p.Peers, p.Ops)
		}
		if p.Reads.Ops+p.Writes.Ops != p.Ops {
			return fmt.Errorf("workload: pattern %q: %d reads + %d writes != %d ops",
				p.Workload, p.Reads.Ops, p.Writes.Ops, p.Ops)
		}
	}
	return nil
}

// run drives each selected pattern against a fresh deployment built
// from the same seed, and tabulates throughput and latency quantiles
// per op type for each.
func (p *workloadParams) run(o Options) (*Table, *WorkloadPoints, error) {
	if p.ratio < 0 || p.ratio > 1 {
		return nil, nil, fmt.Errorf("exp: workload ratio %v outside [0,1]", p.ratio)
	}
	patterns := workload.Patterns()
	if p.pattern != "all" {
		pat, err := workload.ParsePattern(p.pattern)
		if err != nil {
			return nil, nil, err
		}
		patterns = []workload.Pattern{pat}
	}
	points := make(WorkloadPoints, 0, len(patterns))
	for _, pat := range patterns {
		d := NewDeployment(Table1Deployment(p.peers, o.Seed))
		d.RunFor(table1Warmup) // let ring maintenance settle before loading
		rep, err := d.RunWorkload(context.Background(), workload.Spec{
			Pattern:     pat,
			Seed:        o.Seed,
			ReadRatio:   &p.ratio,
			Rate:        p.rate,
			Concurrency: p.concurrency,
			Duration:    p.duration,
			Ops:         p.ops,
			Keys:        p.keys,
		})
		d.K.Stop()
		if err != nil {
			return nil, nil, err
		}
		points = append(points, WorkloadPoint{Peers: p.peers, Report: *rep})
		o.progress("workload-%-16s ops=%5d %6.2f ops/s  read p50=%7.0fms p99=%7.0fms  write p99=%7.0fms stale=%d err=%d",
			pat, rep.Ops, rep.OpsPerSec, rep.Reads.P50Ms, rep.Reads.P99Ms,
			rep.Writes.P99Ms, rep.Reads.Stale, rep.Reads.Errors+rep.Writes.Errors)
	}
	t := NewTable("Workload: throughput and latency quantiles by access pattern (UMS-Direct)",
		"workload", "latency (ms) / throughput",
		[]string{"ops/s", "read p50", "read p95", "read p99", "write p99", "stale", "errors"})
	for _, pt := range points {
		t.Row(pt.Workload, pt.OpsPerSec, pt.Reads.P50Ms, pt.Reads.P95Ms, pt.Reads.P99Ms,
			pt.Writes.P99Ms, float64(pt.Reads.Stale), float64(pt.Reads.Errors+pt.Writes.Errors))
	}
	driver := "closed loop"
	if p.rate > 0 {
		driver = "open loop"
	}
	t.Notes = append(t.Notes,
		"latencies are simulated milliseconds under the Table 1 WAN model, quantiles from log-bucketed histograms;",
		driver+" driver; the same spec and seed replay bit-identically (workload determinism tests)")
	return t, &points, nil
}

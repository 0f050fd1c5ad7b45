package dcdht

import (
	"context"
	"fmt"

	"repro/internal/network"
	"repro/internal/workload"
)

// WorkloadSpec configures one workload run: the key-popularity pattern
// (uniform, zipf, hotkey-update, scan-recent), the read/write mix, the
// keyspace, and the driver — closed-loop (Concurrency workers issuing
// back to back) or open-loop (operations issued at Rate per second
// regardless of completions). The zero value is a read-heavy uniform
// workload of 500 operations; see the field docs on workload.Spec.
type WorkloadSpec = workload.Spec

// WorkloadReport is one workload run's outcome: throughput, per-op-type
// latency quantiles (p50/p95/p99/p999 from log-bucketed histograms),
// and error/staleness counts. It serializes to the BENCH_workload.json
// schema documented in docs/BENCHMARKS.md.
type WorkloadReport = workload.Report

// WorkloadOpStats is one operation kind's slice of a WorkloadReport.
type WorkloadOpStats = workload.OpStats

// WorkloadPattern names a key-popularity pattern.
type WorkloadPattern = workload.Pattern

// The built-in workload patterns.
const (
	// WorkloadUniform draws reads and writes uniformly over the keyspace
	// — the paper's own access model.
	WorkloadUniform = workload.Uniform
	// WorkloadZipf draws both from a Zipf distribution (skew
	// WorkloadSpec.ZipfS), concentrating traffic on a few hot keys.
	WorkloadZipf = workload.Zipf
	// WorkloadHotKeyUpdate hammers writes on a small hot set while reads
	// stay uniform — stresses timestamping of contended keys.
	WorkloadHotKeyUpdate = workload.HotKeyUpdate
	// WorkloadScanRecent writes round-robin and reads the most recently
	// written keys — stresses currency of fresh updates.
	WorkloadScanRecent = workload.ScanRecent
)

// RunWorkload drives spec against any Client; a context that is already
// done is rejected before any operation is issued. A SimNetwork runs
// the whole workload as virtual-time processes, so the generator, the
// issuing peers and every latency sample replay bit for bit per seed
// (when spec.Seed is zero the network's own seed is used, keeping one
// knob for full reproducibility). Every other Client — a Node, a
// Gateway — is driven by wall-clock goroutines, each read at the level
// the spec's mix drew. Cancelling ctx stops issuing new operations at
// the next boundary.
func RunWorkload(ctx context.Context, c Client, spec WorkloadSpec) (*WorkloadReport, error) {
	if err := network.CtxError(ctx); err != nil {
		return nil, fmt.Errorf("dcdht: %w", err)
	}
	if s, ok := c.(*SimNetwork); ok {
		if spec.Seed == 0 {
			spec.Seed = s.cfg.Seed
		}
		return s.d.RunWorkload(ctx, spec)
	}
	env := network.NewRealEnv(spec.Seed)
	defer env.Close()
	return workload.Run(ctx, env, clientBackend{c}, spec)
}

// RunWorkload is RunWorkload(ctx, s, spec).
func (s *SimNetwork) RunWorkload(ctx context.Context, spec WorkloadSpec) (*WorkloadReport, error) {
	return RunWorkload(ctx, s, spec)
}

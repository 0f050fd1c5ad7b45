// Package dcdht is a Go reproduction of "Data Currency in Replicated
// DHTs" (Akbarinia, Pacitti, Valduriez — SIGMOD 2007): an Update
// Management Service (UMS) that retrieves provably current replicas from
// a replicated DHT, built on a Key-based Timestamping Service (KTS) that
// generates monotonic per-key timestamps with distributed local counters.
//
// The package offers two deployment styles with one protocol codebase:
//
//   - NewSimNetwork builds a deterministic simulated network (virtual
//     time, the paper's Table 1 latency/bandwidth model, churn and
//     failures on demand) — the equivalent of the paper's SimJava study;
//   - StartNode runs a real peer over TCP — the equivalent of the
//     paper's 64-node cluster deployment.
//
// Both satisfy the deployment-agnostic Client interface, and both run
// reproducible YCSB-style load through RunWorkload (uniform, Zipfian,
// hot-key-update and scan-of-recent patterns with per-op latency
// histograms — see WorkloadSpec).
//
// Reads are tunable along the paper's currency/cost axis: every Get
// takes a Consistency level (WithConsistency) — Current proves
// currency against KTS, Bounded(d) accepts a cached floor within a
// staleness bound, Eventual takes the first reachable replica — and
// Result.Currency reports the claim the read earned. NewSession opens
// a Session with read-your-writes and monotonic-reads guarantees
// enforced cheaply from per-key timestamp floors. See
// docs/CONSISTENCY.md.
//
// The evaluation harness that regenerates the paper's figures lives in
// internal/exp and is exposed through cmd/dcdht-bench; wall-clock costs
// are the benchmarks/ module's. docs/ARCHITECTURE.md maps the packages;
// docs/BENCHMARKS.md documents every figure and JSON schema.
package dcdht

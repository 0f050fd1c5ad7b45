package workload

import (
	"time"

	"repro/internal/dht"
	"repro/internal/stats"
)

// OpStats reports one operation kind's outcome counts and latency
// distribution. Latencies are in milliseconds of environment time —
// simulated milliseconds under simulation, wall milliseconds over TCP —
// with quantiles read from the log-bucketed histogram (~3% relative
// error; Max is exact).
type OpStats struct {
	// Ops counts completed operations of this kind, OK the ones that
	// returned a fully successful result.
	Ops int `json:"ops"`
	OK  int `json:"ok"`
	// Stale counts operations that fell back to the most-recent-available
	// replica (currency not provable); NotFound operations on absent
	// keys. Both outcomes surface on reads in practice, but each kind
	// keeps its own counters so no client behavior can cross-pollute the
	// accounting. Both returned data and their latency is recorded.
	Stale    int `json:"stale,omitempty"`
	NotFound int `json:"not_found,omitempty"`
	// Errors counts operations that failed outright (timeouts,
	// unreachable replica sets). Their latency is recorded too — a
	// timeout's cost is part of the tail.
	Errors int `json:"errors"`
	// Latency quantiles in milliseconds.
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	// OpsPerSec is this kind's completed throughput over the run.
	OpsPerSec float64 `json:"ops_per_sec"`
}

// Report is one workload run's outcome: the resolved spec echoed for
// provenance, aggregate throughput, and per-kind statistics. It
// serializes to the BENCH_workload.json schema (see docs/BENCHMARKS.md).
type Report struct {
	// Workload echoes the pattern; ReadRatio, ZipfS, Keys, Seed,
	// Concurrency and TargetRate echo the resolved spec so a JSON
	// record is self-describing.
	Workload    string  `json:"workload"`
	ReadRatio   float64 `json:"read_ratio"`
	ZipfS       float64 `json:"zipf_s,omitempty"`
	Keys        int     `json:"keys"`
	Seed        int64   `json:"seed"`
	Concurrency int     `json:"concurrency,omitempty"`
	TargetRate  float64 `json:"target_ops_per_sec,omitempty"`
	// ElapsedSec is the measured window in environment seconds; Ops the
	// total completed operations; OpsPerSec the aggregate throughput.
	ElapsedSec float64 `json:"elapsed_sec"`
	Ops        int     `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// EventualFrac/BoundedFrac echo a requested read-consistency mix;
	// ReadsEventual/ReadsBounded/ReadsCurrent count the completed reads
	// issued at each level (all zero for a mix-free spec, whose reads
	// are all provably current and counted by Reads alone).
	EventualFrac  float64 `json:"eventual_frac,omitempty"`
	BoundedFrac   float64 `json:"bounded_frac,omitempty"`
	BoundSec      float64 `json:"bound_sec,omitempty"`
	ReadsEventual int     `json:"reads_eventual,omitempty"`
	ReadsBounded  int     `json:"reads_bounded,omitempty"`
	ReadsCurrent  int     `json:"reads_current,omitempty"`
	// Reads and Writes split every counter and quantile by op kind.
	Reads  OpStats `json:"reads"`
	Writes OpStats `json:"writes"`
	// ReadHist and WriteHist are the underlying histograms (nanosecond
	// samples), exposed for merging and for the determinism tests.
	ReadHist  *stats.Histogram `json:"-"`
	WriteHist *stats.Histogram `json:"-"`
	// Trace is the issued operation sequence, recorded only when
	// Spec.Trace is set.
	Trace []Op `json:"-"`
}

// recorder accumulates per-kind outcomes during a run. The drivers
// serialize access (a mutex on real environments; the kernel under
// simulation).
type recorder struct {
	hist     [2]*stats.Histogram // indexed by OpKind, like every counter
	ok       [2]int
	errs     [2]int
	stale    [2]int
	notFound [2]int
	levels   [3]int // completed reads by dht.Level (mixed specs only)
	trace    []Op
}

func newRecorder() *recorder {
	return &recorder{hist: [2]*stats.Histogram{new(stats.Histogram), new(stats.Histogram)}}
}

// outcome classifies one completed operation.
type outcome uint8

const (
	outcomeOK outcome = iota
	outcomeStale
	outcomeNotFound
	outcomeError
)

// record adds one completed operation.
func (r *recorder) record(op Op, lat time.Duration, oc outcome) {
	kind := op.Kind
	r.hist[kind].Record(lat)
	if kind == OpGet && int(op.Level) < len(r.levels) {
		r.levels[op.Level]++
	}
	switch oc {
	case outcomeOK:
		r.ok[kind]++
	case outcomeStale:
		r.stale[kind]++
	case outcomeNotFound:
		r.notFound[kind]++
	default:
		r.errs[kind]++
	}
}

// report assembles the final Report for spec over a run of elapsed
// environment time.
func (r *recorder) report(spec Spec, elapsed time.Duration) *Report {
	rep := &Report{
		Workload:   string(spec.Pattern),
		ReadRatio:  spec.readRatio(),
		Keys:       spec.Keys,
		Seed:       spec.Seed,
		ElapsedSec: elapsed.Seconds(),
		ReadHist:   r.hist[OpGet],
		WriteHist:  r.hist[OpPut],
		Trace:      r.trace,
	}
	if spec.Pattern == Zipf {
		rep.ZipfS = spec.ZipfS
	}
	if spec.mixed() {
		rep.EventualFrac = spec.EventualFrac
		rep.BoundedFrac = spec.BoundedFrac
		rep.BoundSec = spec.Bound.Seconds()
		rep.ReadsEventual = r.levels[dht.LevelEventual]
		rep.ReadsBounded = r.levels[dht.LevelBounded]
		rep.ReadsCurrent = r.levels[dht.LevelCurrent]
	}
	if spec.Rate > 0 {
		rep.TargetRate = spec.Rate
	} else {
		rep.Concurrency = spec.Concurrency
	}
	rep.Reads = r.opStats(OpGet, elapsed)
	rep.Writes = r.opStats(OpPut, elapsed)
	rep.Ops = rep.Reads.Ops + rep.Writes.Ops
	if secs := elapsed.Seconds(); secs > 0 {
		rep.OpsPerSec = float64(rep.Ops) / secs
	}
	return rep
}

// opStats summarizes one kind's histogram and counters.
func (r *recorder) opStats(kind OpKind, elapsed time.Duration) OpStats {
	h := r.hist[kind]
	ms := func(v int64) float64 { return float64(v) / float64(time.Millisecond) }
	s := OpStats{
		Ops:      int(h.Count()),
		OK:       r.ok[kind],
		Stale:    r.stale[kind],
		NotFound: r.notFound[kind],
		Errors:   r.errs[kind],
		MeanMs:   h.Mean() / float64(time.Millisecond),
		P50Ms:    ms(h.Quantile(0.50)),
		P95Ms:    ms(h.Quantile(0.95)),
		P99Ms:    ms(h.Quantile(0.99)),
		P999Ms:   ms(h.Quantile(0.999)),
		MaxMs:    ms(h.Max()),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		s.OpsPerSec = float64(s.Ops) / secs
	}
	return s
}

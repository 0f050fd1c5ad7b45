// Package obs is the node-level observability layer: a dependency-free
// metrics registry (counters, gauges, histograms backed by
// internal/stats.Histogram), a hand-rolled Prometheus text-exposition
// writer, and an op-event tracing hook threaded through contexts
// alongside network.WithMeter.
//
// Design constraints, in order:
//
//   - Determinism. Metrics must never perturb a simulation replay:
//     nothing here reads wall clocks or random streams, and Snapshot
//     orders families and series by name so two replays of the same
//     seed serialize to byte-identical JSON.
//   - Cheap hot path. Counters and gauges are single atomics;
//     histograms take one short mutex (inside stats.Histogram). A
//     scrape copies state under those same locks and formats outside
//     them, so a Prometheus poll never stalls an op.
//   - No dependencies. Only the standard library and internal/stats;
//     the exposition writer is hand-rolled (prom.go).
//
// All constructors are usable on a nil *Registry: they return live
// metric objects that simply are not exported anywhere, so packages
// instrument unconditionally and wiring decides who gets scraped.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Kind labels a metric family for the exposition writer and snapshots.
type Kind string

// The three family kinds of the exposition format. Func-backed families
// (CounterFunc, GaugeFunc) render as their underlying kind.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry holds metric families and renders them as Prometheus text or
// as a deterministic Snapshot. One registry serves one scrape domain: a
// real node has its own, a simulated deployment shares one across all
// peers so cluster-wide families aggregate automatically (every peer's
// Counter call resolves to the same series).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric with all its label permutations.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string // label names; empty for plain metrics

	mu     sync.Mutex
	series map[string]*series // key: label values joined by \xff
	funcs  []func() float64   // func-backed families: summed at scrape
	dur    bool               // histogram samples are nanoseconds; expose seconds
}

// series is one label permutation's live state.
type series struct {
	labelVals []string
	counter   atomic.Uint64
	gauge     atomic.Int64
	hist      *stats.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey joins label values into a map key. \xff cannot appear in the
// label values we generate (metric labels here are enum-ish strings).
func labelKey(vals []string) string { return strings.Join(vals, "\xff") }

// lookup returns the named family, creating it on first use. Lookups
// are idempotent — every peer of a simulated deployment "creates" the
// same families — but a name must keep one kind and label arity for the
// life of the registry; a mismatch panics, since it is a programming
// error that would corrupt the exposition.
func (r *Registry) lookup(name, help string, kind Kind, dur bool, labels []string) *family {
	if r == nil {
		// Unregistered live family: callers get working metrics that no
		// scrape will ever see, so instrumentation needs no nil checks.
		return &family{name: name, help: help, kind: kind, dur: dur,
			labels: labels, series: map[string]*series{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, dur: dur,
			labels: labels, series: map[string]*series{}}
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic("obs: metric " + name + " re-registered with a different kind or label set")
	}
	return f
}

// with returns the series for one label permutation, creating it (and
// its histogram, for histogram families) on first use.
func (f *family) with(vals []string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := labelKey(vals)
	s, ok := f.series[k]
	if !ok {
		s = &series{labelVals: append([]string(nil), vals...)}
		if f.kind == KindHistogram {
			s.hist = &stats.Histogram{}
		}
		f.series[k] = s
	}
	return s
}

// Counter is a monotonically increasing count. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.counter.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.s.counter.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.s.counter.Load() }

// Gauge is an instantaneous level (e.g. in-flight calls).
type Gauge struct{ s *series }

// Set replaces the level.
func (g *Gauge) Set(v int64) { g.s.gauge.Store(v) }

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.s.gauge.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.s.gauge.Load() }

// Histogram is a distribution of samples. Duration histograms (made by
// DurationHistogram*) record nanoseconds and expose seconds; value
// histograms record raw units (hops, ages in rounds, ...).
type Histogram struct{ s *series }

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) { h.s.hist.Record(d) }

// ObserveValue records one raw sample.
func (h *Histogram) ObserveValue(v int64) { h.s.hist.RecordValue(v) }

// Count returns the number of samples recorded so far.
func (h *Histogram) Count() uint64 { return h.s.hist.Count() }

// CounterVec is a counter family with labels; With resolves one series.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family with labels; With resolves one series.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family with labels; With resolves one series.
type HistogramVec struct{ f *family }

// With returns the counter for the given label values (one per declared
// label name, in order), creating the series at zero on first use.
func (v *CounterVec) With(vals ...string) *Counter { return &Counter{s: v.f.with(vals)} }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(vals ...string) *Gauge { return &Gauge{s: v.f.with(vals)} }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram { return &Histogram{s: v.f.with(vals)} }

// Counter returns the plain (label-less) counter family name, creating
// it on first use. Safe on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{s: r.lookup(name, help, KindCounter, false, nil).with(nil)}
}

// Gauge returns the plain gauge family name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{s: r.lookup(name, help, KindGauge, false, nil).with(nil)}
}

// CounterVec declares a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, KindCounter, false, labels)}
}

// GaugeVec declares a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, KindGauge, false, labels)}
}

// DurationHistogramVec declares a labeled duration histogram family
// (stored as nanoseconds, exposed in seconds).
func (r *Registry) DurationHistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, KindHistogram, true, labels)}
}

// ValueHistogram returns a plain histogram of raw (unit-less) samples,
// e.g. lookup hop counts.
func (r *Registry) ValueHistogram(name, help string) *Histogram {
	return &Histogram{s: r.lookup(name, help, KindHistogram, false, nil).with(nil)}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for packages that already keep cumulative stats
// (repair.Stats, WAL append counts) without importing obs. Multiple
// registrations under one name sum, which is how a simulated deployment
// aggregates per-peer stats into one cluster series. Safe on a nil
// registry (the func is simply never called).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, KindCounter, false, nil)
	f.mu.Lock()
	f.funcs = append(f.funcs, fn)
	f.mu.Unlock()
}

// GaugeFunc registers a gauge read from fn at scrape time; multiple
// registrations under one name sum, like CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, KindGauge, false, nil)
	f.mu.Lock()
	f.funcs = append(f.funcs, fn)
	f.mu.Unlock()
}

// Snapshot captures every family deterministically: families sorted by
// name, series sorted by label values, func collectors summed in
// registration order. Two identical replays produce identical snapshots
// (and identical JSON), which the determinism tests assert.
func (r *Registry) Snapshot() *Snapshot {
	out := &Snapshot{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		out.Families = append(out.Families, f.snapshot())
	}
	return out
}

// snapshot captures one family under its lock.
func (f *family) snapshot() FamilySnap {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snap := FamilySnap{Name: f.name, Help: f.help, Kind: f.kind}
	for _, k := range keys {
		s := f.series[k]
		ss := SeriesSnap{}
		if len(f.labels) > 0 {
			ss.Labels = map[string]string{}
			for i, name := range f.labels {
				ss.Labels[name] = s.labelVals[i]
			}
		}
		switch f.kind {
		case KindCounter:
			ss.Value = float64(s.counter.Load())
		case KindGauge:
			ss.Value = float64(s.gauge.Load())
		case KindHistogram:
			ss.Hist = histSnap(s.hist, f.dur)
		}
		snap.Series = append(snap.Series, ss)
	}
	funcs := append([]func() float64(nil), f.funcs...)
	f.mu.Unlock()
	if len(funcs) > 0 {
		// Func collectors read live state outside the family lock (the
		// callee has its own); summing in registration order keeps the
		// result deterministic across replays.
		var sum float64
		for _, fn := range funcs {
			sum += fn()
		}
		if len(snap.Series) == 0 {
			snap.Series = append(snap.Series, SeriesSnap{Value: sum})
		} else {
			snap.Series[0].Value += sum
		}
	}
	return snap
}

// histSnap summarizes one histogram for snapshots: scale converts the
// recorded unit into the exposed one (1e-9 for duration histograms).
func histSnap(h *stats.Histogram, dur bool) *HistSnap {
	snap := h.Snapshot()
	scale := 1.0
	if dur {
		scale = 1e-9
	}
	hs := &HistSnap{
		Count: snap.Count(),
		Sum:   float64(snap.Sum()) * scale,
	}
	if hs.Count > 0 {
		hs.Min = float64(snap.Min()) * scale
		hs.Max = float64(snap.Max()) * scale
		hs.P50 = float64(snap.Quantile(0.50)) * scale
		hs.P95 = float64(snap.Quantile(0.95)) * scale
		hs.P99 = float64(snap.Quantile(0.99)) * scale
	}
	ladder := valueLadder
	if dur {
		ladder = durationLadder
	}
	buckets := snap.Buckets()
	var cum uint64
	bi := 0
	for _, le := range ladder {
		raw := le / scale
		for bi < len(buckets) && float64(buckets[bi].Upper-1) <= raw {
			cum += buckets[bi].Count
			bi++
		}
		hs.Buckets = append(hs.Buckets, BucketSnap{LE: le, Count: cum})
	}
	return hs
}

// Snapshot is a point-in-time, deterministic copy of a registry,
// JSON-serializable for exp.Result and /debug/status consumers.
type Snapshot struct {
	Families []FamilySnap `json:"families"`
}

// FamilySnap is one metric family in a Snapshot.
type FamilySnap struct {
	Name   string       `json:"name"`
	Help   string       `json:"help,omitempty"`
	Kind   Kind         `json:"kind"`
	Series []SeriesSnap `json:"series,omitempty"`
}

// SeriesSnap is one label permutation's captured value.
type SeriesSnap struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value,omitempty"`
	Hist   *HistSnap         `json:"hist,omitempty"`
}

// HistSnap summarizes a histogram series: exact count/sum/extremes,
// bucketed quantiles (~3% relative error), and the cumulative
// Prometheus bucket ladder.
type HistSnap struct {
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min,omitempty"`
	Max     float64      `json:"max,omitempty"`
	P50     float64      `json:"p50,omitempty"`
	P95     float64      `json:"p95,omitempty"`
	P99     float64      `json:"p99,omitempty"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// BucketSnap is one cumulative exposition bucket: Count samples were <= LE.
type BucketSnap struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Get returns the named family snapshot, or nil — convenience for tests
// and figure code digging one family out of a Snapshot.
func (s *Snapshot) Get(name string) *FamilySnap {
	if s == nil {
		return nil
	}
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Total sums a family's series values — handy for counters split across
// label permutations (e.g. verdicts by level).
func (f *FamilySnap) Total() float64 {
	if f == nil {
		return 0
	}
	var sum float64
	for _, s := range f.Series {
		sum += s.Value
	}
	return sum
}

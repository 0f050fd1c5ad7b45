package stats

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"time"
)

// The histogram's bucket layout is HDR-style log-linear over int64
// nanoseconds: values below 2^linBits land in exact unit-width buckets,
// and every octave [2^t, 2^(t+1)) above that is split into 2^subShift
// linear sub-buckets, bounding the relative quantile error at
// 2^-subShift (~3.1%) while covering nanoseconds to centuries in a few
// kilobytes of counters.
const (
	histLinBits  = 6                 // exact buckets below 2^6 ns
	histSubShift = 5                 // 32 sub-buckets per octave
	histLinCount = 1 << histLinBits  // 64 exact buckets
	histSubCount = 1 << histSubShift // 32
	histOctaves  = 63 - histLinBits  // octaves above the linear region
	histBuckets  = histLinCount + histOctaves*histSubCount
)

// Histogram is a fixed-memory log-bucketed latency histogram: Record is
// O(1) and allocation-free, quantiles are read with bounded (~3%)
// relative error, and two histograms fed the same samples are equal
// sample for sample — which is what lets the workload determinism tests
// compare whole distributions across simulation replays. The zero value
// is ready to use. All methods are safe for concurrent use: writers
// serialize on an internal mutex, and scrapers read a consistent copy
// via Snapshot, so a metrics endpoint never races the workload driver.
// Histograms must not be copied by value; share them by pointer.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	total  uint64
	sum    int64 // exact sum of recorded values, for Mean
	min    int64 // exact observed extremes (quantiles are bucketed)
	max    int64
}

// histIndex maps a non-negative value to its bucket.
func histIndex(v int64) int {
	u := uint64(v)
	if u < histLinCount {
		return int(u)
	}
	top := bits.Len64(u) - 1 // >= histLinBits
	if top > 62 {
		top = 62 // clamp absurd values into the last octave
		u = 1<<63 - 1
	}
	sub := (u - 1<<uint(top)) >> uint(top-histSubShift)
	return histLinCount + (top-histLinBits)*histSubCount + int(sub)
}

// histUpper returns the exclusive upper bound of bucket i.
func histUpper(i int) int64 {
	if i < histLinCount {
		return int64(i) + 1
	}
	i -= histLinCount
	top := histLinBits + i/histSubCount
	sub := int64(i%histSubCount) + 1
	return 1<<uint(top) + sub<<uint(top-histSubShift)
}

// Record adds one duration sample. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) { h.RecordValue(int64(d)) }

// RecordValue adds one raw sample (the unit is the caller's; the
// workload engine records nanoseconds). Negative values clamp to zero.
func (h *Histogram) RecordValue(v int64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[histIndex(v)]++
	h.total++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the exact sum of all recorded values, or 0 when empty;
// the Prometheus exposition's histogram _sum line comes from here.
func (h *Histogram) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Min returns the smallest recorded value exactly, or 0 when empty.
func (h *Histogram) Min() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value exactly, or 0 when empty.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Mean returns the exact arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns the q-th quantile (0 <= q <= 1) as the upper bound
// of the bucket holding the nearest-rank sample, clamped to the exact
// observed extremes — so Quantile(0) == Min, Quantile(1) == Max, and
// the result never exceeds any recorded maximum. Empty histograms
// return 0. Because ranks walk one cumulative scan, quantiles are
// monotone in q by construction.
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.total))
	if rank == 0 {
		return h.min
	}
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum > rank {
			v := histUpper(i) - 1 // largest value the bucket can hold
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Merge folds other's samples into h. Merging an empty histogram is a
// no-op; the exact min/max/sum/mean survive the merge. The fold works
// on a snapshot of other, so the two histograms' locks are never held
// together (h.Merge(h) is a harmless self-doubling, not a deadlock).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	o := other.Snapshot()
	if o.total == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
}

// Snapshot returns an independent copy of the histogram taken under the
// lock: concurrent RecordValue calls never race a scrape, and the copy
// can be read without further synchronization. Snapshotting nil or an
// empty histogram returns an empty histogram.
func (h *Histogram) Snapshot() *Histogram {
	out := &Histogram{}
	if h == nil {
		return out
	}
	h.mu.Lock()
	out.counts = h.counts
	out.total = h.total
	out.sum = h.sum
	out.min = h.min
	out.max = h.max
	h.mu.Unlock()
	return out
}

// Bucket is one populated histogram bucket, for export and equality
// checks: Upper is the bucket's exclusive upper bound, Count how many
// samples it holds.
type Bucket struct {
	Upper int64
	Count uint64
}

// Buckets returns the populated buckets in ascending value order. Two
// histograms fed identical samples return identical slices, which the
// determinism tests rely on.
func (h *Histogram) Buckets() []Bucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []Bucket
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, Bucket{Upper: histUpper(i), Count: c})
		}
	}
	return out
}

// String renders a compact one-line summary with the quantiles the
// workload reports use.
func (h *Histogram) String() string {
	s := h.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.0f p50=%d p95=%d p99=%d p999=%d max=%d",
		s.total, s.Mean(), s.Quantile(0.50), s.Quantile(0.95),
		s.Quantile(0.99), s.Quantile(0.999), s.Max())
	return b.String()
}

package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a quantile before it is
// reported: with fewer, the value is one outlier's latency, not a
// property of the distribution.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted. ok is false
// when fewer than minBeyond samples lie beyond it (above for q >= 0.5,
// below otherwise; the median needs them on both sides).
func quantile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	above, below := n-1-idx, idx
	switch {
	case q > 0.5:
		ok = above >= minBeyond
	case q < 0.5:
		ok = below >= minBeyond
	default:
		ok = above >= minBeyond && below >= minBeyond
	}
	return sorted[idx], ok
}

// quantileOrZero is quantile for metric tables: an unsupported quantile
// reads 0, which the glossary documents as "not enough samples".
func quantileOrZero(sorted []float64, q float64) float64 {
	v, ok := quantile(sorted, q)
	if !ok {
		return 0
	}
	return v
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (exclusive
// method), so the spreads printed here are the ones the driver computes.
// Fewer than two values give (x, x, x).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// median is the middle of xs (mean of the two middle values when even).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spreadShare is the inter-quartile distance of xs as a share of the
// median; zero when the median is zero.
func spreadShare(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, zero when b is zero: per-layer ratios of a workload that
// does none of the work read 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// verdict is the outcome of comparing a candidate's metric to a base's.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictBetter     verdict = "better"
	verdictWorse      verdict = "WORSE"
	verdictUnresolved verdict = "unresolved"
)

// judge applies a metric's direction and bound: worsening by more than
// bound (a share of the base) is a regression; improving by more than
// bound is reported as better. When either side's recorded spread
// exceeds the bound the difference cannot be told from noise, so the
// metric is unresolved rather than unchanged.
func judge(better string, bound, base, cand, baseSpread, candSpread float64) verdict {
	if baseSpread > bound || candSpread > bound {
		return verdictUnresolved
	}
	change := worsening(better, base, cand)
	switch {
	case change > bound:
		return verdictWorse
	case change < -bound:
		return verdictBetter
	}
	return verdictOK
}

// worsening is how much cand is worse than base as a share of base;
// negative when it is better.
func worsening(better string, base, cand float64) float64 {
	if base == 0 {
		if cand == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (cand - base) / math.Abs(base)
	if better == higher {
		d = -d
	}
	return d
}

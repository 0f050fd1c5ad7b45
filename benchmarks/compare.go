package main

import (
	"fmt"
	"io"
	"sort"
)

// A compare row is one workload x metric: the medians of both sides, the
// change in the metric's worse direction, and the verdict under the
// metric's bound.
type compareRow struct {
	Workload, Metric, Unit string
	Base, Cand             float64
	BaseN, CandN           int // runs behind each side
	Worsening              float64
	Bound                  float64
	Verdict                verdict
}

// side collects one result set's values of one workload x metric.
type side struct {
	values  []float64
	spreads []float64 // each run's own window spread
}

// spread is the run-to-run spread when the set has several runs, else
// the single run's recorded window spread.
func (s side) spread() float64 {
	if len(s.values) >= 2 {
		return spreadShare(s.values)
	}
	if len(s.spreads) == 1 {
		return s.spreads[0]
	}
	return 0
}

type metricKey struct{ workload, metric string }

func collect(rs []result) (map[metricKey]*side, map[string]map[int64]string) {
	sides := map[metricKey]*side{}
	digests := map[string]map[int64]string{} // workload -> seed -> replay digest
	for _, r := range rs {
		if r.Provenance.Traced || r.Provenance.Smoke {
			continue // bounds apply to untraced full-size runs only
		}
		for name, m := range r.Metrics {
			k := metricKey{r.Provenance.Workload, name}
			if sides[k] == nil {
				sides[k] = &side{}
			}
			sides[k].values = append(sides[k].values, m.Value)
			sides[k].spreads = append(sides[k].spreads, m.Spread)
		}
		if r.Replay != "" {
			if digests[r.Provenance.Workload] == nil {
				digests[r.Provenance.Workload] = map[int64]string{}
			}
			digests[r.Provenance.Workload][r.Provenance.Seed] = r.Replay
		}
	}
	return sides, digests
}

// compareSets judges every end-to-end metric of every workload present
// in both sets, in declared order. replayDiffs lists the seeds whose
// deterministic sim fields differ between the sets.
func compareSets(base, cand []result) (rows []compareRow, replaySame, replayDiffs []string) {
	bs, bd := collect(base)
	cs, cd := collect(cand)
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := metricKey{w.Name, d.Name}
			b, c := bs[k], cs[k]
			if b == nil || c == nil {
				continue
			}
			bm, cm := median(b.values), median(c.values)
			rows = append(rows, compareRow{
				Workload: w.Name, Metric: d.Name, Unit: d.Unit,
				Base: bm, Cand: cm, BaseN: len(b.values), CandN: len(c.values),
				Worsening: worsening(d.Better, bm, cm), Bound: d.Bound,
				Verdict: judge(d.Better, d.Bound, bm, cm, b.spread(), c.spread()),
			})
		}
		var seeds []int64
		for seed := range bd[w.Name] {
			if _, ok := cd[w.Name][seed]; ok {
				seeds = append(seeds, seed)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, seed := range seeds {
			label := fmt.Sprintf("%s seed %d", w.Name, seed)
			if bd[w.Name][seed] == cd[w.Name][seed] {
				replaySame = append(replaySame, label)
			} else {
				replayDiffs = append(replayDiffs, label)
			}
		}
	}
	return rows, replaySame, replayDiffs
}

// runCompare implements the compare subcommand; it reports whether the
// candidate passes: no metric worse than its bound. Replay drift is
// printed, not failed: a change to protocol behaviour moves sim-wan's
// deterministic fields on purpose, a refactoring must not.
func runCompare(w io.Writer, basePath, candPath string) (bool, error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return false, err
	}
	rows, same, diffs := compareSets(base, cand)
	if len(rows) == 0 {
		return false, fmt.Errorf("compare: %s and %s share no untraced full-size workload", basePath, candPath)
	}
	fmt.Fprintf(w, "%-14s %-12s %12s %12s %-5s %5s %9s %7s  %s\n",
		"workload", "metric", "base", "candidate", "unit", "runs", "worse by", "bound", "verdict")
	pass := true
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-12s %12.4f %12.4f %-5s %2d/%-2d %+8.1f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.Base, r.Cand, r.Unit, r.BaseN, r.CandN, 100*r.Worsening, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictWorse {
			pass = false
		}
	}
	for _, s := range same {
		fmt.Fprintf(w, "replay %-24s deterministic fields identical\n", s)
	}
	for _, s := range diffs {
		fmt.Fprintf(w, "replay %-24s deterministic fields DIFFER\n", s)
	}
	return pass, nil
}

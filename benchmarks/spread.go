package main

import (
	"fmt"
	"io"
)

// runSpread implements the spread subcommand: the run-to-run spread of
// every end-to-end metric in a result set, computed the way the driver
// computes it, against the metric's bound. It reports whether every
// spread stays within a third of its bound (setup_s excepted: the driver
// holds it to its median only).
func runSpread(w io.Writer, path string) (bool, error) {
	rs, err := readResults(path)
	if err != nil {
		return false, err
	}
	sides, _ := collect(rs)
	fmt.Fprintf(w, "%-14s %-12s %4s %12s %12s %12s %-5s %7s %7s\n",
		"workload", "metric", "runs", "q1", "median", "q3", "unit", "spread", "bound")
	steady := true
	for _, wl := range workloads {
		for _, d := range endToEnd {
			s := sides[metricKey{wl.Name, d.Name}]
			if s == nil {
				continue
			}
			q1, m, q3 := quartiles(s.values)
			sp := spreadShare(s.values)
			mark := ""
			if d.Name != "setup_s" && sp > d.Bound/3 {
				mark, steady = "  > bound/3", false
			}
			fmt.Fprintf(w, "%-14s %-12s %4d %12.4f %12.4f %12.4f %-5s %6.1f%% %6.0f%%%s\n",
				wl.Name, d.Name, len(s.values), q1, m, q3, d.Unit, 100*sp, 100*d.Bound, mark)
		}
	}
	return steady, nil
}

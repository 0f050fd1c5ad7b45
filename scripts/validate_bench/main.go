// Command validate_bench checks a document dcdht-bench wrote against
// its figure's schema and acceptance invariants, as the internal/exp
// registry declares them next to each figure's result type (the
// invariants are listed per document in docs/BENCHMARKS.md).
//
// Usage: validate_bench FIGURE BENCH_<figure>.json [BASELINE.json]
//
// With a baseline (the perf figure only), the document's deterministic
// fields must also equal the baseline's exactly: same-seed simulation is
// a pure function, so any drift is a behavior change that needs a
// regenerated baseline (timing fields are never compared). Exit status
// 0 when the document conforms, 1 with a diagnostic when it does not,
// 2 on bad usage.
package main

import (
	"fmt"
	"os"

	"repro/internal/exp"
)

func main() {
	if len(os.Args) != 3 && len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: validate_bench FIGURE BENCH_<figure>.json [BASELINE.json]")
		os.Exit(2)
	}
	fig := exp.FigureNamed(os.Args[1])
	if fig == nil || !fig.Writes() {
		fmt.Fprintf(os.Stderr, "validate_bench: figure %q writes no document\n", os.Args[1])
		os.Exit(2)
	}
	var docs [2][]byte
	for i, path := range os.Args[2:] {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "validate_bench: %v\n", err)
			os.Exit(1)
		}
		docs[i] = data
	}
	if err := fig.Check(docs[0], docs[1]); err != nil {
		fmt.Fprintf(os.Stderr, "validate_bench: %s: %v\n", os.Args[2], err)
		os.Exit(1)
	}
	fmt.Printf("validate_bench: %s conforms to the %s figure\n", os.Args[2], fig.Name)
}

// Command validate_bench checks a document dcdht-bench wrote against
// its figure's schema and acceptance invariants, as the internal/exp
// registry declares them next to each figure's result type (the
// invariants are listed per document in docs/BENCHMARKS.md). Drift from
// a committed baseline is a byte compare's job (scripts/check_bench.sh),
// since every document replays bit-identically per seed.
//
// Usage: validate_bench FIGURE BENCH_<figure>.json
//
// Exit status 0 when the document conforms, 1 with a diagnostic when it
// does not, 2 on bad usage.
package main

import (
	"fmt"
	"os"

	"repro/internal/exp"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: validate_bench FIGURE BENCH_<figure>.json")
		os.Exit(2)
	}
	fig := exp.FigureNamed(os.Args[1])
	if fig == nil || !fig.Writes() {
		fmt.Fprintf(os.Stderr, "validate_bench: figure %q writes no document\n", os.Args[1])
		os.Exit(2)
	}
	doc, err := os.ReadFile(os.Args[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "validate_bench: %v\n", err)
		os.Exit(1)
	}
	if err := fig.Check(doc); err != nil {
		fmt.Fprintf(os.Stderr, "validate_bench: %s: %v\n", os.Args[2], err)
		os.Exit(1)
	}
	fmt.Printf("validate_bench: %s conforms to the %s figure\n", os.Args[2], fig.Name)
}

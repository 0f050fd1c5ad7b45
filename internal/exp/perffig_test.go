package exp

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/perf"
)

// tinyPerf runs the perf figure at a scale that keeps its tests in CI
// time; extra sets override the toy parameters.
func tinyPerf(t *testing.T, seed int64, sets ...string) *perf.Figure {
	t.Helper()
	toy := []string{"ops=6", "peers=24", "macro_ops=30", "macro_concurrency=2"}
	_, doc := runFigure(t, "perf", Options{Seed: seed}, append(toy, sets...)...)
	return doc.(*perf.Figure)
}

func TestFigurePerfValidatesAtToyScale(t *testing.T) {
	fig := tinyPerf(t, 11)
	if err := fig.Validate(); err != nil {
		t.Fatalf("figure invalid: %v", err)
	}
	if len(fig.Ops) != 6 {
		t.Fatalf("op points = %d, want 6 (ums put/get x3 levels, brk put/get)", len(fig.Ops))
	}
	if fig.Macro == nil || fig.Macro.Ops == 0 {
		t.Fatal("macro point missing or empty")
	}
}

// TestFigurePerfDeterministic regenerates the figure twice on one seed
// and demands the exports match byte for byte.
func TestFigurePerfDeterministic(t *testing.T) {
	run := func() []byte {
		data, err := json.Marshal(tinyPerf(t, 23))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	a := run()
	b := run()
	if string(a) != string(b) {
		t.Fatalf("same-seed perf figures differ:\n%s\n%s", a, b)
	}
}

// TestFigurePerfBaselineDrift regenerates the committed BENCH_perf.json
// at the parameters scripts/check_bench.sh compares it at (and its
// -update mode writes it at) and requires the bytes dcdht-bench would
// write to equal it: any change to a cost the figure reports must come
// with a regenerated baseline.
func TestFigurePerfBaselineDrift(t *testing.T) {
	committed, err := os.ReadFile("../../BENCH_perf.json")
	if err != nil {
		t.Fatal(err)
	}
	_, doc := runFigure(t, "perf", Options{Seed: 42}, "ops=12", "peers=32", "macro_ops=120")
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if got := string(data) + "\n"; got != string(committed) {
		t.Fatalf("BENCH_perf.json drifted; regenerate it with ./scripts/check_bench.sh -update.\ngot:\n%s", got)
	}
}

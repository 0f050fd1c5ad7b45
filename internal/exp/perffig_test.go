package exp

import (
	"encoding/json"
	"testing"

	"repro/internal/perf"
)

// tinyPerf runs the perf figure at a scale that keeps its tests in CI
// time; extra sets override the toy parameters.
func tinyPerf(t *testing.T, seed int64, sets ...string) *perf.Figure {
	t.Helper()
	toy := []string{"ops=6", "peers=24", "kernel_peers=50,200", "kernel_events=3", "macro_ops=30", "macro_concurrency=2"}
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
	// Timing fields must be populated on a live run (only strip_timing
	// zeroes them).
	if fig.Kernel[0].EventsPerSec == 0 {
		t.Fatal("kernel timing missing")
	}
}

// TestFigurePerfDeterministic regenerates the figure twice on one seed
// and demands the stripped exports match byte for byte — the property
// scripts/check_bench.sh holds the shipped binary to.
func TestFigurePerfDeterministic(t *testing.T) {
	run := func() []byte {
		data, err := json.Marshal(tinyPerf(t, 23, "strip_timing=true"))
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

// TestFigurePerfBaselineDrift proves ValidateAgainst catches a changed
// deterministic outcome: a different seed produces different costs.
func TestFigurePerfBaselineDrift(t *testing.T) {
	base, other := tinyPerf(t, 11), tinyPerf(t, 12)
	if err := other.ValidateAgainst(base); err == nil {
		t.Fatal("cross-seed figures validated against each other")
	}
	var perfCopy perf.Figure
	data, _ := json.Marshal(base)
	if err := json.Unmarshal(data, &perfCopy); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if err := perfCopy.ValidateAgainst(base); err != nil {
		t.Fatalf("JSON round trip failed baseline check: %v", err)
	}
}

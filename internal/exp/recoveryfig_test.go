package exp

import (
	"encoding/json"
	"testing"
)

// tinyRecovery runs the figure at a scale that keeps the tests fast: a
// small population still plays both crash waves and both full restart
// waves.
func tinyRecovery(t *testing.T) (*Table, RecoveryPoints) {
	t.Helper()
	tables, doc := runFigure(t, "recovery", Options{Seed: 17}, "peers=30", "duration=20m", "queries=16")
	return tables[0], *doc.(*RecoveryPoints)
}

// TestRecoveryFigureDeterminism is the acceptance test the race job
// replays: both storage modes must replay bit-identically per seed —
// identical point JSON, including the event counts and every metric.
func TestRecoveryFigureDeterminism(t *testing.T) {
	run := func() []byte {
		_, points := tinyRecovery(t)
		blob, err := json.Marshal(points)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	blob1 := run()
	blob2 := run()
	if string(blob1) != string(blob2) {
		t.Fatalf("recovery points diverged across replays:\n%s\nvs\n%s", blob1, blob2)
	}
}

// TestRecoveryFigureShapes checks the figure plumbing and the ordering
// the bench gate enforces: one point per mode, both waves played, and
// the durable mode at least as current — and no more lossy — than
// crash-and-forget on the same seed.
func TestRecoveryFigureShapes(t *testing.T) {
	table, points := tinyRecovery(t)
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2 (crash-forget and durable)", len(points))
	}
	if points[0].Mode != "crash-forget" || points[1].Mode != "durable" {
		t.Fatalf("mode order = %q, %q", points[0].Mode, points[1].Mode)
	}
	for _, p := range points {
		if p.QueriesRun == 0 {
			t.Fatalf("mode %q ran no queries", p.Mode)
		}
		if p.Crashes == 0 || p.Restarts == 0 {
			t.Fatalf("mode %q: crashes=%d restarts=%d, want both waves played", p.Mode, p.Crashes, p.Restarts)
		}
		if p.Seed != points[0].Seed || p.Peers != points[0].Peers {
			t.Fatalf("modes diverge in provenance: %+v vs %+v", p, points[0])
		}
	}
	cf, du := points[0], points[1]
	if du.CurrentRate < cf.CurrentRate {
		t.Fatalf("durable currency %.3f below crash-forget %.3f on the same seed",
			du.CurrentRate, cf.CurrentRate)
	}
	if du.FailedQueries > cf.FailedQueries {
		t.Fatalf("durable failed %d queries, crash-forget only %d", du.FailedQueries, cf.FailedQueries)
	}
	if len(table.XS) != 2 {
		t.Fatalf("table rows = %v", table.XS)
	}
	if _, err := json.Marshal(points); err != nil {
		t.Fatalf("points not serializable: %v", err)
	}
}

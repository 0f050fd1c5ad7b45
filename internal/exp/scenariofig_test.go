package exp

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/scenario"
)

// tinyScenario keeps the determinism test fast: a small population
// and window still exercises every event kind.
var tinyScenario = scenarioParams{
	scenarios: scenario.SplitHeal + "," + scenario.ChurnWave,
	peers:     40,
	duration:  8 * time.Minute,
	queries:   8,
}

// TestScenarioDeterminism is the acceptance test the race job replays:
// a scenario combining a churn wave and a partition/heal must replay
// bit-identically for a fixed seed — identical applied-event traces and
// identical figure JSON.
func TestScenarioDeterminism(t *testing.T) {
	o := Options{Seed: 11}
	run := func() ([]byte, []*scenario.Trace) {
		var traces []*scenario.Trace
		points := make([]ScenarioPoint, 0)
		for _, name := range names(tinyScenario.scenarios, nil) {
			sc := tinyScenario.base(o)
			sc.Name = "determinism-" + name
			script, err := scenario.Builtin(name, sc.Duration)
			if err != nil {
				t.Fatal(err)
			}
			sc.Script = &script
			r := Run(sc)
			traces = append(traces, r.Trace)
			points = append(points, ScenarioPoint{
				Scenario:          name,
				Peers:             sc.Peers,
				EventsApplied:     len(r.Trace.Applied),
				QueriesRun:        r.QueriesRun,
				CurrentRate:       r.CurrentRate,
				ProbesPerRetrieve: r.Probed.Mean(),
				RespTimeSec:       r.RespTime.Mean(),
				MsgsPerRetrieve:   r.Msgs.Mean(),
				StaleReturns:      r.StaleReturns,
				FailedQueries:     r.QueriesFailed,
			})
		}
		blob, err := json.Marshal(points)
		if err != nil {
			t.Fatal(err)
		}
		return blob, traces
	}
	blob1, traces1 := run()
	blob2, traces2 := run()
	if string(blob1) != string(blob2) {
		t.Fatalf("figure JSON diverged across replays:\n%s\nvs\n%s", blob1, blob2)
	}
	if !reflect.DeepEqual(traces1, traces2) {
		t.Fatalf("scenario traces diverged across replays:\n%+v\nvs\n%+v", traces1, traces2)
	}
	for i, tr := range traces1 {
		if tr == nil || len(tr.Applied) == 0 {
			t.Fatalf("scenario %d applied no events", i)
		}
	}
}

// TestScenarioComparisonShapes checks the figure plumbing: one point
// per (scenario, repair mode), the table rows populated, and the
// repair-on run actually doing maintenance work under a crash-heavy
// scenario.
func TestScenarioComparisonShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario comparison is minutes of simulated time")
	}
	tables, doc := runFigure(t, "scenario", Options{Seed: 5},
		"scenarios="+scenario.MassCrash, "peers=40", "duration=8m", "queries=8")
	table, points := tables[0], *doc.(*ScenarioPoints)
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2 (off and on)", len(points))
	}
	for _, p := range points {
		if p.Scenario != scenario.MassCrash {
			t.Fatalf("point scenario = %q", p.Scenario)
		}
		if p.EventsApplied == 0 {
			t.Fatalf("mode %q applied no events", p.Repair)
		}
		if p.QueriesRun == 0 {
			t.Fatalf("mode %q ran no queries", p.Repair)
		}
	}
	if points[0].Repair != "off" || points[1].Repair != "on" {
		t.Fatalf("mode order = %q, %q", points[0].Repair, points[1].Repair)
	}
	if points[1].ReplicasHealed == 0 && points[1].ReadRepairs == 0 {
		t.Fatal("repair-on mode did no maintenance work under mass-crash")
	}
	if len(table.XS) != 2 {
		t.Fatalf("table rows = %v", table.XS)
	}
	run, err := FigureNamed("scenario").Prepare(Options{Seed: 5}, []string{"scenarios=bogus"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
}

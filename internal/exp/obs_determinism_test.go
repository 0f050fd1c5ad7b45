package exp

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/scenario"
)

// obsRun plays one scripted scenario figure run and returns the applied
// -event trace and metrics snapshot as JSON, plus the simulation's raw
// activity counters.
func obsRun(t *testing.T, noObs bool) (trace, snap []byte, msgs, events uint64) {
	t.Helper()
	sc := (&scenarioParams{peers: 40, duration: 8 * time.Minute, queries: 8}).base(Options{Seed: 29})
	sc.Name = "obs-determinism"
	sc.NoObs = noObs
	script, err := scenario.Builtin(scenario.ChurnWave, sc.Duration)
	if err != nil {
		t.Fatal(err)
	}
	sc.Script = &script
	r := Run(sc)
	if r.QueriesRun == 0 {
		t.Fatal("scenario ran no queries")
	}
	trace, err = json.Marshal(r.Trace)
	if err != nil {
		t.Fatal(err)
	}
	snap, err = json.Marshal(r.Obs)
	if err != nil {
		t.Fatal(err)
	}
	return trace, snap, r.TotalNetMsgs, r.SimEvents
}

// TestObsDeterminism is the observability layer's acceptance test: a
// scripted scenario figure replayed twice with instrumentation enabled
// must produce bit-identical traces AND bit-identical metrics
// snapshots, and the instrumented run must march through the exact same
// simulation as an uninstrumented one — proof that metrics and tracing
// consume no RNG stream and read only virtual clocks.
func TestObsDeterminism(t *testing.T) {
	tr1, snap1, msgs1, ev1 := obsRun(t, false)
	tr2, snap2, msgs2, ev2 := obsRun(t, false)
	if !bytes.Equal(tr1, tr2) {
		t.Fatalf("instrumented replay diverged: trace\n%s\nvs\n%s", tr1, tr2)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Fatalf("metrics snapshot not deterministic:\n%s\nvs\n%s", snap1, snap2)
	}
	if msgs1 != msgs2 || ev1 != ev2 {
		t.Fatalf("replay diverged: msgs %d vs %d, events %d vs %d", msgs1, msgs2, ev1, ev2)
	}
	if string(snap1) == "null" || len(snap1) < 100 {
		t.Fatalf("instrumented run produced no metrics snapshot: %s", snap1)
	}

	// Instrumentation off: the simulation itself must be untouched.
	tr3, snap3, msgs3, ev3 := obsRun(t, true)
	if !bytes.Equal(tr1, tr3) {
		t.Fatalf("instrumentation perturbed the scenario trace:\n%s\nvs\n%s", tr1, tr3)
	}
	if msgs1 != msgs3 || ev1 != ev3 {
		t.Fatalf("instrumentation perturbed the simulation: msgs %d vs %d, events %d vs %d",
			msgs1, msgs3, ev1, ev3)
	}
	if string(snap3) != "null" {
		t.Fatalf("NoObs run still produced a snapshot: %s", snap3)
	}
}

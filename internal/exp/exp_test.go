package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// quickScenario is a small, fast configuration used across tests. The
// churn rate is per-capita equivalent to Table 1 (1/s at 10,000 peers
// would recycle a 60-peer network many times over in minutes).
func quickScenario(alg Algorithm, seed int64) Scenario {
	sc := Table1Scenario(alg, 60, seed)
	sc.Duration = 10 * time.Minute
	sc.Warmup = time.Minute
	sc.Keys = 8
	sc.Queries = 12
	sc.ChurnRate = 0.05
	sc.UpdateRate = 6 // time-compressed Table 1 update rate
	sc.Chord.StabilizeEvery = 10 * time.Second
	sc.Chord.FixFingersEvery = 15 * time.Second
	sc.Chord.CheckPredEvery = 10 * time.Second
	return sc
}

func TestRunScenarioUMSDirect(t *testing.T) {
	r := Run(quickScenario(AlgUMSDirect, 1))
	if r.QueriesRun == 0 {
		t.Fatal("no queries ran")
	}
	if r.QueriesFailed == r.QueriesRun {
		t.Fatalf("every query failed: %+v", r)
	}
	if r.RespTime.Mean() <= 0 {
		t.Fatal("no response time recorded")
	}
	if r.Msgs.Mean() <= 0 {
		t.Fatal("no message cost recorded")
	}
	if r.ChurnEvents == 0 {
		t.Fatal("churn process never fired")
	}
	if r.CurrentRate == 0 {
		t.Fatalf("UMS-Direct returned no provably current replica at all: %+v", r)
	}
	t.Logf("UMS-Direct: resp=%.2fs msgs=%.1f probes=%.2f current=%.0f%% churn=%d events=%d",
		r.RespTime.Mean(), r.Msgs.Mean(), r.Probed.Mean(), 100*r.CurrentRate,
		r.ChurnEvents, r.SimEvents)
}

func TestRunScenarioBRKProbesAllReplicas(t *testing.T) {
	r := Run(quickScenario(AlgBRK, 2))
	if r.QueriesRun == 0 {
		t.Fatal("no queries ran")
	}
	// BRK must always probe all |Hr| replica positions.
	if got := r.Probed.Mean(); got != 10 {
		t.Fatalf("BRK probed %.2f replicas on average, want exactly |Hr|=10", got)
	}
	if r.CurrentRate != 0 {
		t.Fatal("BRK must never prove currency")
	}
}

func TestUMSBeatsBRK(t *testing.T) {
	ums := Run(quickScenario(AlgUMSDirect, 3))
	brk := Run(quickScenario(AlgBRK, 3))
	if ums.Probed.Mean() >= brk.Probed.Mean() {
		t.Fatalf("UMS probed %.2f vs BRK %.2f — UMS should probe far fewer",
			ums.Probed.Mean(), brk.Probed.Mean())
	}
	if ums.RespTime.Mean() >= brk.RespTime.Mean() {
		t.Fatalf("UMS response %.2fs vs BRK %.2fs — the paper's headline result is inverted",
			ums.RespTime.Mean(), brk.RespTime.Mean())
	}
	if ums.Msgs.Mean() >= brk.Msgs.Mean() {
		t.Fatalf("UMS msgs %.1f vs BRK %.1f — communication cost should favor UMS",
			ums.Msgs.Mean(), brk.Msgs.Mean())
	}
	t.Logf("UMS-Direct resp=%.2fs msgs=%.1f | BRK resp=%.2fs msgs=%.1f",
		ums.RespTime.Mean(), ums.Msgs.Mean(), brk.RespTime.Mean(), brk.Msgs.Mean())
}

func TestScenarioDeterministic(t *testing.T) {
	a := Run(quickScenario(AlgUMSDirect, 7))
	b := Run(quickScenario(AlgUMSDirect, 7))
	if a.RespTime.Mean() != b.RespTime.Mean() || a.Msgs.Mean() != b.Msgs.Mean() ||
		a.ChurnEvents != b.ChurnEvents || a.SimEvents != b.SimEvents {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := NewTable("T", "x", "y", []string{"a", "b"})
	tb.Set("1", "a", 1.5)
	tb.Set("1", "b", 2)
	tb.Set("2", "a", 100)
	tb.Notes = append(tb.Notes, "hello")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T", "x", "a", "b", "1.50", "100", "hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	tb.CSV(&buf)
	csv := buf.String()
	if !strings.HasPrefix(csv, "x,a,b\n") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "2,100,") {
		t.Fatalf("csv missing row with empty cell: %q", csv)
	}
	if _, ok := tb.Get("2", "b"); ok {
		t.Fatal("missing cell reported present")
	}
}

func TestAnalysisTables(t *testing.T) {
	tables, _ := runFigure(t, "analysis", Options{Seed: 1})
	ex, ps := tables[0], tables[1]
	if v, ok := ex.Get("0.35", "E(X) analytic"); !ok || v >= 3 {
		t.Fatalf("E(X) at 0.35 = %v (present=%v), paper promises < 3", v, ok)
	}
	if v, ok := ps.Get("0.3", "|Hr|=13"); !ok || v <= 0.99 {
		t.Fatalf("ps(0.3,13) = %v, want > 0.99", v)
	}
}

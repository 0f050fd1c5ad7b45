package exp

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/workload"
)

// workloadTestSets keep the figure fast enough for `go test`: runs
// bounded by operation count alone.
var workloadTestSets = []string{"peers=32", "keys=12", "ops=40", "duration=0", "concurrency=3", "ratio=0.8"}

func TestFigureWorkload(t *testing.T) {
	tables, doc := runFigure(t, "workload", Options{Seed: 5},
		append(workloadTestSets, "pattern="+string(workload.Zipf))...)
	table, points := tables[0], *doc.(*WorkloadPoints)
	if len(points) != 1 {
		t.Fatalf("got %d points, want 1", len(points))
	}
	p := points[0]
	if p.Workload != string(workload.Zipf) || p.Peers != 32 {
		t.Fatalf("point provenance wrong: %+v", p)
	}
	if p.Ops != 40 || p.Reads.Ops+p.Writes.Ops != 40 {
		t.Fatalf("ops accounting wrong: %+v", p)
	}
	if p.OpsPerSec <= 0 || p.Reads.P50Ms <= 0 {
		t.Fatalf("throughput/latency missing: %+v", p)
	}
	if p.Reads.P50Ms > p.Reads.P95Ms || p.Reads.P95Ms > p.Reads.P99Ms {
		t.Fatalf("read quantiles not monotone: %+v", p.Reads)
	}
	if v, ok := table.Get(string(workload.Zipf), "ops/s"); !ok || v != p.OpsPerSec {
		t.Fatalf("table row missing or wrong: %v %v", v, ok)
	}
	if _, err := json.Marshal(points); err != nil {
		t.Fatalf("points not serializable: %v", err)
	}
}

func TestFigureWorkloadRejectsUnknownPattern(t *testing.T) {
	run, err := FigureNamed("workload").Prepare(Options{Seed: 5}, append(workloadTestSets, "pattern=bogus"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run(); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

// TestDeploymentWorkloadDeterminism is the sim-mode acceptance check at
// the exp layer: the same seed must replay the identical operation
// sequence and identical latency histograms.
func TestDeploymentWorkloadDeterminism(t *testing.T) {
	run := func() *workload.Report {
		d := NewDeployment(Table1Deployment(32, 9))
		defer d.K.Stop()
		d.RunFor(2 * time.Minute)
		rep, err := d.RunWorkload(context.Background(), workload.Spec{
			Pattern: workload.ScanRecent, Seed: 9, Keys: 10, Ops: 30,
			Concurrency: 3, DataSize: 64, Trace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("op sequences diverged across same-seed replays")
	}
	if !reflect.DeepEqual(a.ReadHist.Buckets(), b.ReadHist.Buckets()) ||
		!reflect.DeepEqual(a.WriteHist.Buckets(), b.WriteHist.Buckets()) {
		t.Fatal("latency histograms diverged across same-seed replays")
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("reports diverged:\n%s\n%s", aj, bj)
	}
}

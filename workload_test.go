package dcdht

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"
)

// runSimWorkload builds a fresh simulated network and runs one traced
// zipf workload on it — the acceptance scenario for seed-determinism.
func runSimWorkload(t *testing.T, seed int64) *WorkloadReport {
	t.Helper()
	net := NewSimNetwork(40, SimConfig{Seed: seed})
	defer net.Close()
	rep, err := net.RunWorkload(context.Background(), WorkloadSpec{
		Pattern:     WorkloadZipf,
		ReadRatio:   Float(0.9),
		Keys:        12,
		Ops:         40,
		Concurrency: 4,
		DataSize:    100,
		Trace:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSimWorkloadDeterminism is the acceptance criterion: two runs with
// the same seed must produce identical operation sequences and
// identical latency histograms.
func TestSimWorkloadDeterminism(t *testing.T) {
	a := runSimWorkload(t, 1)
	b := runSimWorkload(t, 1)
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("same-seed replays issued different op sequences")
	}
	if !reflect.DeepEqual(a.ReadHist.Buckets(), b.ReadHist.Buckets()) ||
		!reflect.DeepEqual(a.WriteHist.Buckets(), b.WriteHist.Buckets()) {
		t.Fatal("same-seed replays produced different latency histograms")
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("same-seed reports diverged:\n%s\n%s", aj, bj)
	}

	// A different seed must actually change the stream — otherwise the
	// equality above proves nothing.
	c := runSimWorkload(t, 2)
	if reflect.DeepEqual(a.Trace, c.Trace) {
		t.Fatal("different seeds replayed the identical op sequence")
	}
}

func TestSimWorkloadReport(t *testing.T) {
	rep := runSimWorkload(t, 3)
	if rep.Ops != 40 || rep.Reads.Ops+rep.Writes.Ops != 40 {
		t.Fatalf("ops accounting wrong: %+v", rep)
	}
	if rep.Reads.Ops == 0 || rep.Writes.Ops == 0 {
		t.Fatalf("0.9 read mix produced no reads or no writes: %+v", rep)
	}
	if rep.OpsPerSec <= 0 || rep.ElapsedSec <= 0 {
		t.Fatalf("throughput missing: %+v", rep)
	}
	if rep.Reads.P50Ms <= 0 || rep.Reads.P50Ms > rep.Reads.P95Ms || rep.Reads.P95Ms > rep.Reads.P99Ms {
		t.Fatalf("read quantiles broken: %+v", rep.Reads)
	}
	if rep.Workload != string(WorkloadZipf) || rep.ZipfS <= 1 {
		t.Fatalf("spec echo missing: %+v", rep)
	}
}

// TestSimWorkloadOpenLoop drives the open-loop driver through the
// public facade: ops are issued at the target rate in virtual time.
func TestSimWorkloadOpenLoop(t *testing.T) {
	net := NewSimNetwork(32, SimConfig{Seed: 4})
	defer net.Close()
	rep, err := net.RunWorkload(context.Background(), WorkloadSpec{
		Pattern:  WorkloadUniform,
		Keys:     8,
		Ops:      20,
		Rate:     2, // 2 ops per simulated second
		DataSize: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 20 || rep.TargetRate != 2 {
		t.Fatalf("open-loop run wrong: %+v", rep)
	}
	// 20 ops at 2/s dispatch over ~10 simulated seconds; the window
	// includes the drain of in-flight operations.
	if rep.ElapsedSec < 9 {
		t.Fatalf("open-loop pacing ignored: elapsed %.2fs", rep.ElapsedSec)
	}
}

// TestSimWorkloadExpiredContext: RunWorkload rejects a done context
// with the context's error before issuing anything, whichever client it
// drives — the simulated network's own kernel path, or the wall-clock
// path every other client takes.
func TestSimWorkloadExpiredContext(t *testing.T) {
	net := NewSimNetwork(16, SimConfig{Seed: 5})
	defer net.Close()
	gw, err := NewGateway([]Client{net}, GatewayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		c    Client
	}{{"sim", net}, {"gateway", gw}} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RunWorkload(ctx, tc.c, WorkloadSpec{Ops: 10})
			if !errors.Is(err, context.Canceled) || rep != nil {
				t.Fatalf("done context: report %v, err %v; want no report and context.Canceled", rep, err)
			}
		})
	}
}

// TestTCPWorkload runs the same engine against a real TCP ring: same
// spec type, same report schema, wall-clock latencies.
func TestTCPWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration test")
	}
	const peers = 6
	cfg := NodeConfig{
		Replicas:       5,
		Seed:           7,
		StabilizeEvery: 100 * time.Millisecond,
		GraceDelay:     50 * time.Millisecond,
	}
	first, err := StartNode("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.CreateRing()
	nodes := []*Node{first}
	for i := 1; i < peers; i++ {
		nd, err := StartNode("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Join(first.Addr()); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	time.Sleep(time.Second) // a few stabilization rounds

	// Through the generic entry point's wall-clock path, every op issued
	// from this node.
	rep, err := RunWorkload(context.Background(), nodes[2], WorkloadSpec{
		Pattern:     WorkloadScanRecent,
		ReadRatio:   Float(0.7),
		Keys:        6,
		Ops:         30,
		Concurrency: 3,
		DataSize:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 30 {
		t.Fatalf("completed %d ops, want 30", rep.Ops)
	}
	if rep.Reads.OK+rep.Reads.Stale+rep.Reads.NotFound+rep.Reads.Errors != rep.Reads.Ops {
		t.Fatalf("read outcomes do not sum: %+v", rep.Reads)
	}
	if rep.Reads.Ops > 0 && rep.Reads.P50Ms <= 0 {
		t.Fatalf("wall-clock latency missing: %+v", rep.Reads)
	}
}

package perf

import (
	"strings"
	"testing"
)

// validFigure builds a figure that satisfies every Validate invariant;
// tests mutate copies of it to probe individual checks.
func validFigure() *Figure {
	return &Figure{
		Schema: SchemaV2,
		Seed:   42,
		Ops: []OpPoint{
			{Alg: "ums", Op: "put", OpsRun: 40, MsgsPerOp: 30, KTSReqsPerOp: 1, SimLatencyMs: 80},
			{Alg: "ums", Op: "get", Level: "current", OpsRun: 40, MsgsPerOp: 12, KTSReqsPerOp: 1, SimLatencyMs: 60},
			{Alg: "ums", Op: "get", Level: "bounded", OpsRun: 40, MsgsPerOp: 4, KTSReqsPerOp: 0.1, SimLatencyMs: 20},
			{Alg: "ums", Op: "get", Level: "eventual", OpsRun: 40, MsgsPerOp: 3, KTSReqsPerOp: 0, SimLatencyMs: 15},
			{Alg: "brk", Op: "put", OpsRun: 40, MsgsPerOp: 25, SimLatencyMs: 70},
			{Alg: "brk", Op: "get", OpsRun: 40, MsgsPerOp: 18, SimLatencyMs: 65},
		},
		Macro: &MacroPoint{Peers: 48, Ops: 300, SimElapsedSec: 120, SimOpsPerSec: 2.5},
	}
}

func TestValidateAcceptsWellFormedFigure(t *testing.T) {
	if err := validFigure().Validate(); err != nil {
		t.Fatalf("valid figure rejected: %v", err)
	}
}

func TestValidateRejectsBrokenFigures(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*Figure)
		want   string
	}{
		{"schema", func(f *Figure) { f.Schema = "dcdht-perf/v1" }, "schema"},
		{"no ops", func(f *Figure) { f.Ops = nil }, "empty op point set"},
		{"bad alg", func(f *Figure) { f.Ops[0].Alg = "paxos" }, "unknown alg"},
		{"bad level", func(f *Figure) { f.Ops[1].Level = "snapshot" }, "unknown level"},
		{"level on put", func(f *Figure) { f.Ops[0].Level = "current" }, "level"},
		{"missing level", func(f *Figure) { f.Ops[1].Level = "" }, "without a level"},
		{"no ops run", func(f *Figure) { f.Ops[0].OpsRun = 0 }, "ran no operations"},
		{"brk kts", func(f *Figure) { f.Ops[4].KTSReqsPerOp = 2 }, "brk"},
		{"put without grant", func(f *Figure) { f.Ops[0].KTSReqsPerOp = 0.5 }, "want >= 1"},
		{"eventual kts", func(f *Figure) { f.Ops[3].KTSReqsPerOp = 1 }, "eventual get touched KTS"},
		{"ordering", func(f *Figure) { f.Ops[3].MsgsPerOp = 50 }, "not strictly ordered"},
		{"macro empty", func(f *Figure) { f.Macro.Ops = 0 }, "macro point ran no operations"},
		{"macro failures", func(f *Figure) { f.Macro.Failed = 200 }, ">10%"},
	}
	for _, tc := range cases {
		f := validFigure()
		tc.break_(f)
		err := f.Validate()
		if err == nil {
			t.Errorf("%s: broken figure accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestKernelBenchEventCountIsDeterministic(t *testing.T) {
	cfg := KernelConfig{Seed: 7, Peers: 500, EventsPerPeer: 8}
	a := KernelBench(cfg)
	b := KernelBench(cfg)
	if a.Events != b.Events {
		t.Fatalf("event counts differ across runs: %d vs %d", a.Events, b.Events)
	}
	if want := uint64(500 * 8); a.Events != want {
		t.Fatalf("events = %d, want exactly peers x chain length = %d", a.Events, want)
	}
	if a.Peers != 500 {
		t.Fatalf("peers = %d, want 500", a.Peers)
	}
}

func TestKernelBenchScalesEventsWithPeers(t *testing.T) {
	small := KernelBench(KernelConfig{Seed: 1, Peers: 100, EventsPerPeer: 5})
	large := KernelBench(KernelConfig{Seed: 1, Peers: 1000, EventsPerPeer: 5})
	if large.Events <= small.Events {
		t.Fatalf("events did not scale: %d at 100 peers vs %d at 1000", small.Events, large.Events)
	}
}

// TestKernelBenchTimesTheDrain: the wall-clock rate the repository
// benchmark's simnet probe reports is filled in, and a zero config
// falls back to the default scale.
func TestKernelBenchTimesTheDrain(t *testing.T) {
	p := KernelBench(KernelConfig{})
	if p.Peers != 1000 || p.Events != 10000 {
		t.Fatalf("default run = %d peers / %d events, want 1000 / 10000", p.Peers, p.Events)
	}
	if p.EventsPerSec <= 0 {
		t.Fatalf("events/sec %v not positive", p.EventsPerSec)
	}
}

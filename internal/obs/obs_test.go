package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// feed applies one fixed series of updates to a registry.
func feed(r *Registry) {
	c := r.Counter("test_ops_total", "ops")
	c.Add(41)
	c.Inc()
	r.Gauge("test_level", "level").Set(-7)
	v := r.CounterVec("test_verdicts_total", "verdicts", "level", "verdict")
	v.With("current", "proven").Add(3)
	v.With("eventual", "unknown").Inc()
	h := r.DurationHistogramVec("test_latency_seconds", "latency").With()
	h.Observe(1500 * time.Microsecond)
	h.Observe(80 * time.Millisecond)
	h.Observe(2 * time.Second)
	r.ValueHistogram("test_hops", "hops").ObserveValue(3)
	r.CounterFunc("test_func_total", "func counter", func() float64 { return 5 })
	r.CounterFunc("test_func_total", "func counter", func() float64 { return 2 })
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	feed(a)
	feed(b)
	ja, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := json.Marshal(b.Snapshot())
	if string(ja) != string(jb) {
		t.Fatalf("snapshots differ across identical feeds:\n%s\n%s", ja, jb)
	}
	snap := a.Snapshot()
	if got := snap.Get("test_ops_total").Total(); got != 42 {
		t.Fatalf("counter total = %v, want 42", got)
	}
	if got := snap.Get("test_func_total").Total(); got != 7 {
		t.Fatalf("func counter sums registrations: got %v, want 7", got)
	}
	if got := snap.Get("test_verdicts_total").Total(); got != 4 {
		t.Fatalf("verdict total = %v, want 4", got)
	}
	hist := snap.Get("test_latency_seconds").Series[0].Hist
	if hist.Count != 3 || hist.Sum < 2.08 || hist.Sum > 2.082 {
		t.Fatalf("histogram count/sum wrong: %+v", hist)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	feed(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_ops_total counter",
		"test_ops_total 42",
		"# TYPE test_level gauge",
		"test_level -7",
		`test_verdicts_total{level="current",verdict="proven"} 3`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_count 3",
		"test_func_total 7",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Cumulative buckets must be monotone and end at the sample count.
	var last uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "test_latency_seconds_bucket") {
			continue
		}
		var c uint64
		if _, err := parseUint(strings.Fields(line)[1]); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		c, _ = parseUint(strings.Fields(line)[1])
		if c < last {
			t.Fatalf("bucket counts not monotone at %q", line)
		}
		last = c
	}
	if last != 3 {
		t.Fatalf("+Inf bucket = %d, want 3", last)
	}
}

func parseUint(s string) (uint64, error) {
	var v uint64
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, &json.UnsupportedValueError{}
		}
		v = v*10 + uint64(r-'0')
	}
	return v, nil
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("a_total", "a").Inc()
	r.Gauge("g", "g").Set(1)
	r.DurationHistogramVec("h_seconds", "h").With().Observe(time.Millisecond)
	r.CounterVec("v_total", "v", "l").With("x").Inc()
	r.CounterFunc("f_total", "f", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Snapshot().Families); got != 0 {
		t.Fatalf("nil registry exported %d families", got)
	}
	NewMetricsTracer(nil).OpEnd(OpResult{Op: Op{Op: "get", Alg: "ums"}})
}

func TestTracerAndPhasesContext(t *testing.T) {
	ctx := context.Background()
	if TracerFrom(ctx) != nil || PhasesFrom(ctx) != nil {
		t.Fatal("empty context must carry nothing")
	}
	PhasesFrom(ctx).Add(PhaseLookup, time.Second) // nil-safe
	r := NewRegistry()
	mt := NewMetricsTracer(r)
	ctx = WithTracer(ctx, mt)
	if TracerFrom(ctx) != mt {
		t.Fatal("tracer did not round-trip")
	}
	p := NewPhases()
	ctx = WithPhases(ctx, p)
	PhasesFrom(ctx).Add(PhaseLookup, 2*time.Millisecond)
	PhasesFrom(ctx).Add(PhaseKTS, time.Millisecond)
	PhasesFrom(ctx).Add(PhaseLookup, time.Millisecond)
	list := p.List()
	if len(list) != 2 || list[0].Name != PhaseKTS || list[1].D != 3*time.Millisecond {
		t.Fatalf("phase accumulation wrong: %+v", list)
	}

	mt.OpStart(Op{Op: "get", Alg: "ums", Level: "current", Key: "k"})
	mt.OpEnd(OpResult{
		Op:      Op{Op: "get", Alg: "ums", Level: "current", Key: "k"},
		Verdict: "proven", Elapsed: 5 * time.Millisecond,
		Msgs: 7, Bytes: 1400, Phases: list,
	})
	snap := r.Snapshot()
	if got := snap.Get("dcdht_op_msgs_total").Total(); got != 7 {
		t.Fatalf("msgs total = %v", got)
	}
	if got := snap.Get("dcdht_op_verdicts_total").Total(); got != 1 {
		t.Fatalf("verdicts = %v", got)
	}
	if got := snap.Get("dcdht_ops_inflight").Total(); got != 0 {
		t.Fatalf("inflight = %v", got)
	}
	// Pre-registered families are visible before any sample lands.
	fresh := NewRegistry()
	NewMetricsTracer(fresh)
	var sb strings.Builder
	_ = fresh.WritePrometheus(&sb)
	for _, fam := range []string{"dcdht_op_duration_seconds", "dcdht_op_verdicts_total", "dcdht_op_errors_total"} {
		if !strings.Contains(sb.String(), "# TYPE "+fam) {
			t.Fatalf("fresh tracer does not pre-register %s", fam)
		}
	}
}

// TestConcurrentScrape hammers a registry with writers while scraping;
// meaningful under -race.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	mt := NewMetricsTracer(r)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				mt.OpStart(Op{Op: "get", Alg: "ums", Level: "current"})
				mt.OpEnd(OpResult{
					Op:      Op{Op: "get", Alg: "ums", Level: "current"},
					Verdict: "proven", Elapsed: time.Duration(i) * time.Microsecond, Msgs: 1,
				})
				r.Counter("hammer_total", "x").Inc()
			}
		}()
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Get("hammer_total").Total(); got != 2000 {
		t.Fatalf("lost increments: %v", got)
	}
}

package workload

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
)

func ratio(v float64) *float64 { return &v }

func drawOps(spec Spec, n int) []Op {
	g := NewGenerator(spec)
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return ops
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, p := range Patterns() {
		spec := Spec{Pattern: p, Seed: 7, Keys: 40}
		a := drawOps(spec, 500)
		b := drawOps(spec, 500)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two generators with the same seed diverged", p)
		}
		c := drawOps(Spec{Pattern: p, Seed: 8, Keys: 40}, 500)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds produced identical streams", p)
		}
	}
}

func TestGeneratorReadRatio(t *testing.T) {
	for _, want := range []float64{0, 0.5, 0.9, 1} {
		ops := drawOps(Spec{Seed: 3, Keys: 20, ReadRatio: ratio(want)}, 4000)
		reads := 0
		for _, op := range ops {
			if op.Kind == OpGet {
				reads++
			}
		}
		got := float64(reads) / float64(len(ops))
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("ReadRatio %.2f: observed %.3f", want, got)
		}
	}
}

func TestGeneratorZipfSkew(t *testing.T) {
	keys := 50
	ops := drawOps(Spec{Pattern: Zipf, Seed: 5, Keys: keys, ZipfS: 1.2}, 5000)
	counts := map[core.Key]int{}
	for _, op := range ops {
		counts[op.Key]++
	}
	hottest := 0
	for _, c := range counts {
		if c > hottest {
			hottest = c
		}
	}
	uniformShare := len(ops) / keys
	if hottest < 3*uniformShare {
		t.Errorf("zipf hottest key got %d ops, want > 3x the uniform share %d", hottest, uniformShare)
	}
}

func TestGeneratorHotKeyUpdate(t *testing.T) {
	keys := 100
	spec := Spec{Pattern: HotKeyUpdate, Seed: 11, Keys: keys, ReadRatio: ratio(0.5)}
	ops := drawOps(spec, 3000)
	hot := keys / 20
	writeKeys := map[core.Key]bool{}
	readKeys := map[core.Key]bool{}
	for _, op := range ops {
		if op.Kind == OpPut {
			writeKeys[op.Key] = true
		} else {
			readKeys[op.Key] = true
		}
	}
	if len(writeKeys) > hot {
		t.Errorf("hotkey-update wrote %d distinct keys, want <= hot set size %d", len(writeKeys), hot)
	}
	if len(readKeys) < keys/2 {
		t.Errorf("hotkey-update reads covered only %d distinct keys, want broad coverage", len(readKeys))
	}
}

func TestGeneratorScanRecent(t *testing.T) {
	spec := Spec{Pattern: ScanRecent, Seed: 13, Keys: 30, ReadRatio: ratio(0.5)}
	g := NewGenerator(spec)
	written := map[core.Key]bool{}
	for i := 0; i < spec.Keys; i++ {
		written[g.key(i)] = true // preload marks every key written
	}
	writes := 0
	var prev, cur core.Key
	for i := 0; i < 2000; i++ {
		op := g.Next()
		if op.Kind == OpPut {
			if writes > 0 && op.Key == prev {
				t.Fatalf("scan-recent wrote %q twice in a row; want a round-robin walk", op.Key)
			}
			prev = op.Key
			written[op.Key] = true
			writes++
			continue
		}
		cur = op.Key
		if !written[cur] {
			t.Fatalf("scan-recent read %q before it was ever written", cur)
		}
	}
	if writes == 0 {
		t.Fatal("no writes generated")
	}
}

func TestParsePattern(t *testing.T) {
	for _, p := range Patterns() {
		got, err := ParsePattern(string(p))
		if err != nil || got != p {
			t.Errorf("ParsePattern(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := ParsePattern("nope"); err == nil {
		t.Error("ParsePattern accepted an unknown pattern")
	}
}

// fakeClient serves instantly from an in-memory map, optionally
// injecting classified failures.
type fakeClient struct {
	mu   sync.Mutex
	data map[core.Key][]byte
	fail func(op string, key core.Key) error
	puts int
	gets int
}

func newFakeClient() *fakeClient { return &fakeClient{data: map[core.Key][]byte{}} }

func (f *fakeClient) Insert(ctx context.Context, key core.Key, data []byte) (dht.OpResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	if f.fail != nil {
		if err := f.fail("put", key); err != nil {
			return dht.OpResult{}, err
		}
	}
	f.data[key] = data
	return dht.OpResult{Stored: 1}, nil
}

func (f *fakeClient) Retrieve(ctx context.Context, key core.Key, _ dht.ReadPolicy) (dht.OpResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	if f.fail != nil {
		if err := f.fail("get", key); err != nil {
			return dht.OpResult{}, err
		}
	}
	d, ok := f.data[key]
	if !ok {
		return dht.OpResult{}, core.ErrNotFound
	}
	return dht.OpResult{Data: d, Currency: dht.CurrencyProven}, nil
}

func TestRunClosedLoop(t *testing.T) {
	env := network.NewRealEnv(1)
	defer env.Close()
	c := newFakeClient()
	rep, err := Run(context.Background(), env, c, Spec{
		Seed: 2, Keys: 10, Ops: 120, Concurrency: 4, DataSize: 32, ReadRatio: ratio(0.8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 120 {
		t.Fatalf("completed %d ops, want 120", rep.Ops)
	}
	if rep.Reads.Ops+rep.Writes.Ops != rep.Ops {
		t.Fatalf("per-kind ops %d+%d do not sum to %d", rep.Reads.Ops, rep.Writes.Ops, rep.Ops)
	}
	if rep.Reads.OK != rep.Reads.Ops || rep.Writes.OK != rep.Writes.Ops {
		t.Fatalf("unexpected non-OK outcomes: %+v %+v", rep.Reads, rep.Writes)
	}
	if rep.OpsPerSec <= 0 || rep.ElapsedSec <= 0 {
		t.Fatalf("throughput not reported: %+v", rep)
	}
	if c.puts < 10 {
		t.Fatalf("preload did not run: %d puts", c.puts)
	}
}

func TestRunOpenLoop(t *testing.T) {
	env := network.NewRealEnv(1)
	defer env.Close()
	c := newFakeClient()
	rep, err := Run(context.Background(), env, c, Spec{
		Seed: 2, Keys: 8, Ops: 50, Rate: 2000, DataSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 50 {
		t.Fatalf("completed %d ops, want 50", rep.Ops)
	}
	if rep.TargetRate != 2000 || rep.Concurrency != 0 {
		t.Fatalf("open-loop provenance wrong: %+v", rep)
	}
}

func TestRunClassifiesOutcomes(t *testing.T) {
	env := network.NewRealEnv(1)
	defer env.Close()
	c := newFakeClient()
	n := 0
	c.fail = func(op string, key core.Key) error {
		if op != "get" {
			return nil
		}
		n++
		switch n % 3 {
		case 0:
			return fmt.Errorf("stale: %w", core.ErrNoCurrentReplica)
		case 1:
			return fmt.Errorf("slow: %w", core.ErrTimeout)
		default:
			return nil
		}
	}
	rep, err := Run(context.Background(), env, c, Spec{
		Seed: 4, Keys: 6, Ops: 90, Concurrency: 2, DataSize: 16, ReadRatio: ratio(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reads.Stale == 0 || rep.Reads.Errors == 0 {
		t.Fatalf("outcome classification missed stale/error reads: %+v", rep.Reads)
	}
	if rep.Reads.OK+rep.Reads.Stale+rep.Reads.NotFound+rep.Reads.Errors != rep.Reads.Ops {
		t.Fatalf("read outcomes do not sum: %+v", rep.Reads)
	}
}

func TestRunTraceAndDurationBound(t *testing.T) {
	env := network.NewRealEnv(1)
	defer env.Close()
	c := newFakeClient()
	rep, err := Run(context.Background(), env, c, Spec{
		Seed: 9, Keys: 5, Ops: 40, Concurrency: 3, DataSize: 16, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace) != 40 {
		t.Fatalf("trace recorded %d ops, want 40", len(rep.Trace))
	}
	for _, op := range rep.Trace {
		if !strings.HasPrefix(string(op.Key), "wl-") {
			t.Fatalf("unexpected key %q in trace", op.Key)
		}
	}

	// A duration bound alone also terminates.
	rep2, err := Run(context.Background(), env, c, Spec{
		Seed: 9, Keys: 5, Duration: 50 * time.Millisecond, Concurrency: 2, DataSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Ops == 0 {
		t.Fatal("duration-bounded run completed no ops")
	}
}

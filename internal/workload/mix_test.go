package workload

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
)

// TestGeneratorConsistencyMix: with a mix configured, read levels are
// assigned deterministically in roughly the requested proportions, and
// writes never carry a relaxed level.
func TestGeneratorConsistencyMix(t *testing.T) {
	spec := Spec{Seed: 7, Keys: 20, EventualFrac: 0.6, BoundedFrac: 0.3}
	g1, g2 := NewGenerator(spec), NewGenerator(spec)
	counts := map[dht.Level]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		op1, op2 := g1.Next(), g2.Next()
		if op1 != op2 {
			t.Fatalf("op %d diverged: %+v vs %+v", i, op1, op2)
		}
		if op1.Kind == OpPut {
			if op1.Level != dht.LevelCurrent {
				t.Fatalf("write carries read level %v", op1.Level)
			}
			continue
		}
		counts[op1.Level]++
	}
	reads := counts[dht.LevelCurrent] + counts[dht.LevelBounded] + counts[dht.LevelEventual]
	evFrac := float64(counts[dht.LevelEventual]) / float64(reads)
	bdFrac := float64(counts[dht.LevelBounded]) / float64(reads)
	if evFrac < 0.55 || evFrac > 0.65 {
		t.Errorf("eventual fraction %.3f, want ~0.6", evFrac)
	}
	if bdFrac < 0.25 || bdFrac > 0.35 {
		t.Errorf("bounded fraction %.3f, want ~0.3", bdFrac)
	}
	if counts[dht.LevelCurrent] == 0 {
		t.Error("no current reads in a 10% remainder")
	}
}

// TestGeneratorMixFreeStreamUnchanged: a spec without a mix consumes no
// extra randomness, so the historical operation streams (and every
// determinism baseline built on them) are preserved exactly.
func TestGeneratorMixFreeStreamUnchanged(t *testing.T) {
	plain := NewGenerator(Spec{Seed: 3, Keys: 10})
	mixed := NewGenerator(Spec{Seed: 3, Keys: 10, EventualFrac: 0.5})
	diverged := false
	for i := 0; i < 500; i++ {
		a, b := plain.Next(), mixed.Next()
		if a.Level != dht.LevelCurrent {
			t.Fatalf("mix-free op %d has level %v", i, a.Level)
		}
		if a.Seq != b.Seq || a.Kind != b.Kind || a.Key != b.Key {
			diverged = true
		}
	}
	if !diverged {
		t.Log("streams happened to agree; mix draw consumed no divergent randomness for this seed")
	}
}

// TestMixResolveClamps: negative fractions clamp to zero and
// over-committed mixes normalize to sum 1.
func TestMixResolveClamps(t *testing.T) {
	s := Spec{EventualFrac: -1, BoundedFrac: 0.5}.resolve()
	if s.EventualFrac != 0 || s.BoundedFrac != 0.5 {
		t.Fatalf("clamp: %+v", s)
	}
	s = Spec{EventualFrac: 0.9, BoundedFrac: 0.9}.resolve()
	if sum := s.EventualFrac + s.BoundedFrac; sum > 1.0001 || sum < 0.9999 {
		t.Fatalf("normalize: %+v (sum %v)", s, sum)
	}
	if s.Bound <= 0 {
		t.Fatalf("bound default missing: %+v", s)
	}
}

// levelRecordingClient counts the levels reads arrive at.
type levelRecordingClient struct {
	*fakeClient
	levels map[dht.Level]int
}

func (c *levelRecordingClient) Retrieve(ctx context.Context, key core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	c.fakeClient.mu.Lock()
	c.levels[pol.Level]++
	c.fakeClient.mu.Unlock()
	return c.fakeClient.Retrieve(ctx, key, pol)
}

// TestRunHonorsConsistencyMix: the driver issues every read at the
// level the generator drew and the report counts completed reads per
// level.
func TestRunHonorsConsistencyMix(t *testing.T) {
	env := network.NewRealEnv(1)
	defer env.Close()
	c := &levelRecordingClient{fakeClient: newFakeClient(), levels: map[dht.Level]int{}}
	rep, err := Run(context.Background(), env, c, Spec{
		Seed: 5, Keys: 10, Ops: 200, Concurrency: 4, DataSize: 16,
		ReadRatio: ratio(0.8), EventualFrac: 0.7, BoundedFrac: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReadsEventual == 0 || rep.ReadsBounded == 0 || rep.ReadsCurrent == 0 {
		t.Fatalf("per-level read counts missing: %+v", rep)
	}
	if got := rep.ReadsEventual + rep.ReadsBounded + rep.ReadsCurrent; got != rep.Reads.Ops {
		t.Fatalf("level counts sum %d != reads %d", got, rep.Reads.Ops)
	}
	if c.levels[dht.LevelEventual] != rep.ReadsEventual || c.levels[dht.LevelBounded] != rep.ReadsBounded ||
		c.levels[dht.LevelCurrent] != rep.ReadsCurrent {
		t.Fatalf("client saw %v, report says ev=%d bd=%d", c.levels, rep.ReadsEventual, rep.ReadsBounded)
	}
	if rep.EventualFrac != 0.7 || rep.BoundedFrac != 0.2 || rep.BoundSec <= 0 {
		t.Fatalf("mix echo missing: %+v", rep)
	}
}

package exp

import (
	"encoding/json"
	"testing"
	"time"
)

// toyLookupOptions shrinks the lookup figure to test scale: one small
// deployment size, few samples, generous settle windows so every
// substrate reconverges after the churn window.
func toyLookupOptions() LookupOptions {
	return LookupOptions{
		Peers:       []int{24},
		Samples:     40,
		Warmup:      2 * time.Minute,
		MaintWindow: time.Minute,
		ChurnEvents: 2,
	}
}

func pointFor(t *testing.T, res *LookupResult, arm string, peers int) LookupPoint {
	t.Helper()
	for _, pt := range res.Points {
		if pt.Arm == arm && pt.Peers == peers {
			return pt
		}
	}
	t.Fatalf("no point for arm %q peers %d", arm, peers)
	return LookupPoint{}
}

// TestLookupFigureOrderings checks the figure's claims at toy scale:
// lookups always land on the true owner, onehop stays at ~one hop and
// strictly below chord, and resolving through learned arcs never costs
// more hops than the authoritative lookup alone.
func TestLookupFigureOrderings(t *testing.T) {
	res, err := LookupComparison(Options{Seed: 7}, toyLookupOptions())
	if err != nil {
		t.Fatalf("lookup comparison: %v", err)
	}
	for _, pt := range res.Points {
		if pt.WrongOwner != 0 {
			t.Errorf("%s/n=%d: %d lookups missed the true owner", pt.Arm, pt.Peers, pt.WrongOwner)
		}
	}
	peers := res.Points[0].Peers
	chord := pointFor(t, res, LookupArmChord, peers)
	cache := pointFor(t, res, LookupArmCache, peers)
	onehop := pointFor(t, res, LookupArmOneHop, peers)
	if onehop.MeanHops > 1.1 {
		t.Errorf("onehop mean hops %.2f exceeds the 1.1 promise", onehop.MeanHops)
	}
	if onehop.MeanHops >= chord.MeanHops {
		t.Errorf("onehop mean hops %.2f not strictly below chord's %.2f", onehop.MeanHops, chord.MeanHops)
	}
	if cache.MeanHops > chord.MeanHops {
		t.Errorf("cache arm mean hops %.2f worse than plain chord's %.2f", cache.MeanHops, chord.MeanHops)
	}
	if cache.CacheHitRate == 0 {
		t.Error("cache arm reports a zero hit rate — no learned arc ever answered")
	}
}

// TestLookupFigureDeterminism replays the whole figure twice from the
// same seed and requires byte-identical JSON — the property the CI
// double-run step enforces on the shipped artifact.
func TestLookupFigureDeterminism(t *testing.T) {
	run := func() []byte {
		res, err := LookupComparison(Options{Seed: 11}, toyLookupOptions())
		if err != nil {
			t.Fatalf("lookup comparison: %v", err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("lookup figure is not deterministic:\n%s\n%s", a, b)
	}
}

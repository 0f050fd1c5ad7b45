package dcdht

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
)

// learnedStats is the deployment-wide use of learned arcs: operations a
// learned owner accepted (Hits), operations one refused or never
// answered, sending the router to the authoritative lookup (Misses),
// and the arcs held by every peer the network ever ran (Arcs).
type learnedStats struct{ Hits, Misses, Arcs float64 }

func sumLearnedStats(n *SimNetwork) learnedStats {
	snap := n.MetricsSnapshot()
	st := learnedStats{Arcs: snap.Get("dcdht_chord_learned_arcs").Total()}
	for _, s := range snap.Get("dcdht_dht_guess_total").Series {
		if s.Labels["source"] != string(dht.GuessLearned) {
			continue
		}
		switch s.Labels["outcome"] {
		case "hit":
			st.Hits = s.Value
		case "miss":
			st.Misses = s.Value
		}
	}
	return st
}

// TestLearnedArcsSafetyUnderChurnAndHeal is the learned arcs' safety
// acceptance test at the facade, on the default stack: a churn wave
// followed by a network split with heal must never let an arc that has
// gone stale produce a wrong-owner read — the named peer's own
// responsibility check has to refuse, and the router has to forget it
// and fall back to the authoritative lookup instead.
func TestLearnedArcsSafetyUnderChurnAndHeal(t *testing.T) {
	ctx := context.Background()
	// Inspection reconciles split-brain counters post-heal, exactly as
	// in the split-heal scenario test; learned arcs must not change any
	// of those outcomes.
	n := NewSimNetwork(24, SimConfig{
		Replicas:    3,
		Seed:        13,
		FailureRate: Float(0),
		Inspect:     time.Minute,
	})
	defer n.Close()

	const keys = 6
	key := func(i int) Key { return Key(fmt.Sprintf("pc%d", i)) }
	for i := 0; i < keys; i++ {
		if _, err := n.Put(ctx, key(i), []byte(fmt.Sprintf("v0-%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Repeat reads from a pinned issuer teach it the arcs of the keys.
	for round := 0; round < 3; round++ {
		for i := 0; i < keys; i++ {
			if _, err := n.Get(ctx, key(i), WithIssuer(0)); err != nil {
				t.Fatalf("warm get %d: %v", i, err)
			}
		}
	}
	if st := sumLearnedStats(n); st.Hits == 0 {
		t.Fatalf("no learned arc answered during the warm reads: %+v", st)
	}

	// The churn wave: graceful departures with replacements, reads from
	// the pinned issuer in between so its learned arcs meet departed
	// owners. The run is seeded, so the loop's outcome replays exactly;
	// it keeps churning until the fallback path has provably fired.
	for wave := 0; wave < 20 && sumLearnedStats(n).Misses == 0; wave++ {
		for j := 0; j < 3; j++ {
			n.ChurnOne()
		}
		n.Advance(time.Minute)
		for i := 0; i < keys; i++ {
			// Errors are acceptable mid-churn; wrong data never is —
			// checked below once the overlay settles.
			n.Get(ctx, key(i), WithIssuer(0))
		}
	}
	if st := sumLearnedStats(n); st.Misses == 0 {
		t.Fatalf("churn never exercised the forget-and-fall-back path: %+v", st)
	}

	// Split and heal on top of the churned overlay.
	sc := Scenario{Name: "learned-split-heal", Events: []Event{
		{At: time.Minute, Kind: EventPartition, Groups: []float64{0.6, 0.4}},
		{At: 4 * time.Minute, Kind: EventHeal},
	}}
	if err := n.PlayScenario(sc); err != nil {
		t.Fatalf("PlayScenario: %v", err)
	}
	n.Advance(2 * time.Minute)
	for i := 0; i < keys; i++ {
		// Reads during the split teach both sides arcs the heal will
		// invalidate.
		n.Get(ctx, key(i), WithIssuer(0))
		n.Get(ctx, key(i), WithIssuer(7))
	}
	n.Advance(15 * time.Minute)
	if !n.ScenarioDone() {
		t.Fatal("scenario events did not all apply")
	}

	// Settled: a fresh write then reads through many issuers must
	// return exactly the current value — a stale learned owner that
	// answered instead of refusing would surface here as wrong or old
	// data.
	for i := 0; i < keys; i++ {
		payload := []byte(fmt.Sprintf("v1-%d", i))
		if _, err := n.Put(ctx, key(i), payload); err != nil {
			t.Fatalf("post-heal put %d: %v", i, err)
		}
		for probe := 0; probe < 4; probe++ {
			g, err := n.Get(ctx, key(i), WithIssuer(probe*3))
			if err != nil {
				t.Fatalf("post-heal get %d (issuer %d): %v", i, probe*3, err)
			}
			if !g.Current() || string(g.Data) != string(payload) {
				t.Fatalf("post-heal get %d (issuer %d): current=%v data=%q, want current %q",
					i, probe*3, g.Current(), g.Data, payload)
			}
		}
	}

	// Ring-layer check of the same invariant: the authoritative lookup
	// may ask a learned peer next but never answers from one, so
	// whatever the pinned issuer remembers, every position it resolves
	// must land on a live node that claims it.
	issuer := n.d.LivePeers()[0]
	for i := 0; i < 200; i++ {
		id := core.ID(uint64(i+1) * 0x9e3779b97f4a7c15)
		var ref dht.NodeRef
		var err error
		if !n.d.Do(func() { ref, _, err = issuer.Node.Lookup(context.Background(), id) }) {
			t.Fatal("lookup stalled")
		}
		if err != nil {
			t.Fatalf("lookup %d failed on the settled overlay: %v", i, err)
		}
		var owner bool
		for _, p := range n.d.LivePeers() {
			if p.Node.Self().ID == ref.ID {
				owner = p.Node.OwnsID(id)
				break
			}
		}
		if !owner {
			t.Fatalf("lookup %d resolved %s, which is dead or does not claim the target", i, ref.ID)
		}
	}
}

// TestLearnedArcsChurnReplaysBitIdentical replays the learned-arcs-
// under-churn regime twice from one seed: the network's message count,
// the kernel's event count and the aggregated learned-arc counters must
// all match exactly — the table consumes no randomness, iterates no map
// and sends nothing of its own.
func TestLearnedArcsChurnReplaysBitIdentical(t *testing.T) {
	run := func() (uint64, uint64, learnedStats) {
		n := NewSimNetwork(20, SimConfig{Replicas: 3, Seed: 29, FailureRate: Float(0)})
		defer n.Close()
		ctx := context.Background()
		for i := 0; i < 4; i++ {
			n.Put(ctx, Key(fmt.Sprintf("rp%d", i)), []byte("v"))
		}
		for wave := 0; wave < 6; wave++ {
			for i := 0; i < 4; i++ {
				n.Get(ctx, Key(fmt.Sprintf("rp%d", i)), WithIssuer(0))
			}
			n.ChurnOne()
			n.Advance(time.Minute)
		}
		return n.d.Net.TotalMessages(), n.d.K.Events(), sumLearnedStats(n)
	}
	msgs1, events1, st1 := run()
	msgs2, events2, st2 := run()
	if msgs1 != msgs2 || events1 != events2 || st1 != st2 {
		t.Fatalf("replay diverged: msgs %d vs %d, events %d vs %d, learned %+v vs %+v",
			msgs1, msgs2, events1, events2, st1, st2)
	}
	if st1.Hits == 0 {
		t.Fatal("no learned arc ever answered")
	}
}

// TestWarmChordIssuerPaysTheMessageFloor pins what learned arcs buy, on
// a converged 16-peer chord ring with |Hr| = 10. An issuer that has
// never issued anything pays the lookups the paper prices (its first
// put must cost no more than before the table existed: learning sends
// nothing). Once its own lookups have proved the arcs of the key, an
// update put is gen_ts plus one request/reply pair per replica —
// 2·(|Hr|+1) = 22 messages — and a provably-current get is last_ts plus
// one probe: 4.
func TestWarmChordIssuerPaysTheMessageFloor(t *testing.T) {
	// The update put of a never-used issuer, measured: 56 at commit
	// f876ac0, before the table existed (its second put cost the same
	// there, and its get 12), and 56 again once lookups route through
	// learned peers. This put's owners are prefetched while gen_ts is
	// out, so its lookups start side by side from the same empty table
	// and no lookup can route through an arc another one teaches.
	const coldPutMsgs = 56
	ctx := context.Background()
	n := NewSimNetwork(16, SimConfig{Replicas: 10, Seed: 5, FailureRate: Float(0)})
	defer n.Close()
	if _, err := n.Put(ctx, "pin2", []byte("v0"), WithIssuer(9)); err != nil {
		t.Fatalf("first put: %v", err)
	}
	const issuer = 3
	cold, err := n.Put(ctx, "pin2", []byte("v1"), WithIssuer(issuer))
	if err != nil {
		t.Fatalf("cold put: %v", err)
	}
	if cold.Msgs > coldPutMsgs {
		t.Errorf("first-contact put cost %d msgs, want at most %d", cold.Msgs, coldPutMsgs)
	}
	warm, err := n.Put(ctx, "pin2", []byte("v2"), WithIssuer(issuer))
	if err != nil {
		t.Fatalf("warm put: %v", err)
	}
	if warm.Stored != 10 || warm.Msgs > 22 {
		t.Errorf("warm update put: %d replicas stored for %d msgs, want 10 for at most 22", warm.Stored, warm.Msgs)
	}
	got, err := n.Get(ctx, "pin2", WithIssuer(issuer))
	if err != nil {
		t.Fatalf("warm get: %v", err)
	}
	if !got.Current() || string(got.Data) != "v2" || got.Msgs > 4 {
		t.Errorf("warm get: current=%v data=%q for %d msgs, want current \"v2\" for at most 4", got.Current(), got.Data, got.Msgs)
	}
	if st := sumLearnedStats(n); st.Hits == 0 || st.Misses != 0 {
		t.Errorf("learned arcs on a calm ring: %+v, want hits and no miss", st)
	}
}

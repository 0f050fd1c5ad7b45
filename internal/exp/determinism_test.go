package exp

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/network/simwire"
	"repro/internal/peer"
)

// TestWholeNetworkDeterminism replays a full deployment — churn, joins,
// service traffic — on every substrate and asserts the network-level
// counters are bit-identical: the foundation of reproducible
// experiments. Fifteen rounds of churn are what it takes for an order
// that leaks from a map (CAN's neighbour table did) to show in the
// counts.
func TestWholeNetworkDeterminism(t *testing.T) {
	for _, ring := range []peer.RingKind{peer.RingChord, peer.RingOneHop, peer.RingCAN} {
		t.Run(string(ring), func(t *testing.T) {
			run := func() (uint64, uint64, int) {
				cfg := Table1Scenario(AlgUMSDirect, 40, 1234).DeployConfig
				cfg.Net = simwire.Config{}
				cfg.Replicas = 5
				cfg.Ring = ring
				d := NewDeployment(cfg)
				defer d.K.Stop()
				d.RunFor(time.Minute)
				rng := d.K.NewRand("drive")
				d.Do(func() {
					for i := 0; i < 15; i++ {
						p := d.RandomLivePeer(rng)
						p.UMS.Insert(context.Background(), "det-key", []byte("payload"))
						victim := d.RandomLivePeer(rng)
						d.Depart(victim, i%2 == 0)
						d.SpawnJoin(rng)
					}
					for i := 0; i < 5; i++ {
						p := d.RandomLivePeer(rng)
						p.UMS.Retrieve(context.Background(), "det-key")
					}
				})
				d.RunFor(time.Minute)
				return d.Net.TotalMessages(), d.K.Events(), len(d.LivePeers())
			}
			m1, e1, p1 := run()
			m2, e2, p2 := run()
			if m1 != m2 || e1 != e2 || p1 != p2 {
				t.Fatalf("replay diverged: msgs %d vs %d, events %d vs %d, peers %d vs %d",
					m1, m2, e1, e2, p1, p2)
			}
			if m1 == 0 || e1 == 0 {
				t.Fatal("deployment produced no traffic")
			}
		})
	}
}

// TestAblationsSmoke plays every variant of every ablation, through
// the ablation table's own mutators, at a tiny scale to keep the
// bench-scale tables honest. The set is pinned by name, so the three
// tables docs/BENCHMARKS.md lists stay the ones the figure prints.
func TestAblationsSmoke(t *testing.T) {
	var names []string
	for _, a := range ablations {
		names = append(names, a.name)
	}
	if got, want := strings.Join(names, " "), "ablation-rlu ablation-succs ablation-handoff"; got != want {
		t.Fatalf("ablations %q, want %q", got, want)
	}
	if testing.Short() {
		t.Skip("ablation smoke test")
	}
	for _, a := range ablations {
		for _, v := range a.variants {
			sc := Table1Scenario(a.alg, 40, 3)
			sc.Duration = 5 * time.Minute
			sc.Warmup = 30 * time.Second
			sc.Keys = 4
			sc.Queries = 6
			sc.ChurnRate = 0.05
			sc.UpdateRate = 6
			v.set(&sc)
			r := Run(sc)
			if r.QueriesRun == 0 {
				t.Errorf("%s=%s ran no queries", a.name, v.x)
			}
			if !sc.NoDataHandoff && r.CurrentRate == 0 {
				t.Errorf("%s=%s: with data handoff, some retrieves must be provably current", a.name, v.x)
			}
		}
	}
}

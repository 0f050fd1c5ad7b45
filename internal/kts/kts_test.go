package kts

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/store"
)

// cluster bundles a simulated Chord ring with a KTS service per node,
// every node registering its metrics on one shared registry.
type cluster struct {
	t        *testing.T
	k        *simnet.Kernel
	net      *simwire.Network
	set      hashing.Set
	obs      *obs.Registry
	nodes    []*chord.Node
	services []*Service
}

func newCluster(t *testing.T, seed int64, n int, cfg Config) *cluster {
	return newClusterOn(t, seed, n, cfg, nil)
}

// newClusterOn is newCluster with node i's replicas and counters on
// backing(i); a nil backing keeps every node on volatile memory.
func newClusterOn(t *testing.T, seed int64, n int, cfg Config, backing func(i int) *store.Store) *cluster {
	k := simnet.New(seed)
	net := simwire.New(k, simwire.Config{
		LatencyMS:      stats.Normal{Mean: 5, Variance: 0, Min: 5},
		BandwidthKbps:  stats.Normal{Mean: 1e6, Variance: 0, Min: 1e6},
		DefaultTimeout: 250 * time.Millisecond,
	})
	c := &cluster{t: t, k: k, net: net, set: hashing.NewSet(5), obs: obs.NewRegistry()}
	chordCfg := chord.Config{
		StabilizeEvery:  500 * time.Millisecond,
		FixFingersEvery: 400 * time.Millisecond,
		CheckPredEvery:  500 * time.Millisecond,
		RPCTimeout:      250 * time.Millisecond,
	}
	if cfg.GraceDelay == 0 {
		cfg.GraceDelay = 10 * time.Millisecond
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("peer%d", i)
		ep := net.NewEndpoint(name)
		ndCfg := chordCfg
		ndCfg.Obs = c.obs
		if backing != nil {
			ndCfg.Store = backing(i)
		}
		nd := chord.New(net.Env(), ep, hashing.NodeID(name), ndCfg)
		c.nodes = append(c.nodes, nd)
		c.services = append(c.services, New(nd, c.set, "ums", cfg))
	}
	chord.AssembleRing(c.nodes)
	for _, nd := range c.nodes {
		nd.Start()
	}
	return c
}

func (c *cluster) do(fn func()) {
	c.t.Helper()
	done := false
	c.k.Go(func() {
		fn()
		done = true
	})
	for i := 0; i < 600 && !done; i++ {
		c.k.Run(c.k.Now() + 100*time.Millisecond)
	}
	if !done {
		c.t.Fatal("simulated operation did not complete")
	}
}

func (c *cluster) settle(d time.Duration) { c.k.Run(c.k.Now() + d) }

// svc returns any live service to issue requests from.
func (c *cluster) svc() *Service {
	for i, nd := range c.nodes {
		if nd.Alive() {
			return c.services[i]
		}
	}
	c.t.Fatal("no live service")
	return nil
}

// responsibleFor returns the index of the live node owning hts(k).
func (c *cluster) responsibleFor(k core.Key) int {
	id := c.set.HTS.ID(k)
	for i, nd := range c.nodes {
		if nd.Alive() && nd.OwnsID(id) {
			return i
		}
	}
	c.t.Fatalf("no responsible for %q", k)
	return -1
}

func TestGenTSStartsAtOneAndIncrements(t *testing.T) {
	c := newCluster(t, 1, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	c.do(func() {
		for want := uint64(1); want <= 5; want++ {
			ts, err := c.svc().GenTS(context.Background(), "fresh-key")
			if err != nil {
				t.Errorf("gen_ts: %v", err)
				return
			}
			if ts != core.TS(want) {
				t.Errorf("gen_ts #%d = %v", want, ts)
			}
		}
	})
}

func TestLastTSFollowsGenTS(t *testing.T) {
	c := newCluster(t, 2, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	c.do(func() {
		if ts, err := c.svc().LastTS(context.Background(), "nokey"); err != nil || !ts.IsZero() {
			t.Errorf("last_ts of never-stamped key = %v, %v", ts, err)
		}
		for i := 0; i < 3; i++ {
			if _, err := c.svc().GenTS(context.Background(), "k1"); err != nil {
				t.Errorf("gen_ts: %v", err)
			}
		}
		ts, err := c.svc().LastTS(context.Background(), "k1")
		if err != nil || ts != core.TS(3) {
			t.Errorf("last_ts = %v, %v; want ts(3)", ts, err)
		}
		// last_ts must not consume timestamps.
		ts2, err := c.svc().LastTS(context.Background(), "k1")
		if err != nil || ts2 != core.TS(3) {
			t.Errorf("repeated last_ts = %v, %v", ts2, err)
		}
	})
}

func TestTimestampsForDifferentKeysIndependent(t *testing.T) {
	c := newCluster(t, 3, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	c.do(func() {
		for i := 0; i < 3; i++ {
			c.svc().GenTS(context.Background(), "ka")
		}
		ts, err := c.svc().GenTS(context.Background(), "kb")
		if err != nil || ts != core.TS(1) {
			t.Errorf("first gen for kb = %v, %v (keys must not share counters)", ts, err)
		}
	})
}

// Monotonicity across a graceful handoff: the direct algorithm must move
// the counter to the next responsible.
func TestDirectTransferOnGracefulLeave(t *testing.T) {
	c := newCluster(t, 4, 10, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	key := core.Key("stable-key")
	var before core.Timestamp
	c.do(func() {
		for i := 0; i < 4; i++ {
			ts, err := c.svc().GenTS(context.Background(), key)
			if err != nil {
				t.Errorf("gen: %v", err)
				return
			}
			before = ts
		}
	})

	// The responsible leaves gracefully.
	idx := c.responsibleFor(key)
	c.do(func() {
		if err := c.nodes[idx].Leave(); err != nil {
			t.Errorf("leave: %v", err)
		}
	})
	c.net.Kill(c.nodes[idx].Self().Addr)
	c.settle(3 * time.Second)

	// The new responsible continues the sequence without re-initializing
	// (no replicas exist, so indirect init would restart at 1 — direct
	// transfer is the only way to continue).
	c.do(func() {
		ts, err := c.svc().GenTS(context.Background(), key)
		if err != nil {
			t.Errorf("gen after leave: %v", err)
			return
		}
		if !before.Less(ts) {
			t.Errorf("monotonicity violated: %v then %v", before, ts)
		}
		if ts != before.Next() {
			t.Errorf("direct transfer should continue exactly: got %v after %v", ts, before)
		}
	})
	_, _, arrivals := c.services[c.responsibleFor(key)].Stats()
	if arrivals == 0 {
		t.Error("new responsible reports no direct counter arrivals")
	}
}

// Monotonicity across a crash: with replicas stored in the DHT, the
// indirect algorithm reconstructs a safe (strictly higher) counter. The
// crashed responsible's last grant is still being written when its
// successor detects the crash, and the successor's first gen_ts arrives
// at once: the grace delay, counted from the change that handed it the
// arc, is what lets those writes land before it reads the replicas.
func TestIndirectInitAfterCrash(t *testing.T) {
	const grace = time.Second
	c := newCluster(t, 5, 10, Config{Mode: ModeDirect, GraceDelay: grace})
	c.settle(2 * time.Second)
	key := core.Key("crash-key")

	// Generate timestamps AND store a replica carrying the latest one,
	// as UMS would (the indirect algorithm reads these).
	client := dht.NewClient(c.nodes[0], "ums")
	write := func(ts core.Timestamp) {
		for _, h := range c.set.Hr {
			client.PutH(context.Background(), key, h, core.Value{Data: []byte("v"), TS: ts}, dht.PutIfNewer)
		}
	}
	gen := func(from *Service) core.Timestamp {
		ts, err := from.GenTS(context.Background(), key)
		if err != nil {
			t.Fatalf("gen: %v", err)
		}
		return ts
	}
	var last core.Timestamp
	c.do(func() {
		for i := 0; i < 3; i++ {
			write(gen(c.svc()))
		}
		// Two more grants: the first one's put never writes (its writer
		// gave up), the second's writes are still to come.
		gen(c.svc())
		last = gen(c.svc())
	})

	idx := c.responsibleFor(key)
	succ := c.nodes[idx].Successor()
	var heir *chord.Node
	var heirKTS *Service
	for i, nd := range c.nodes {
		if nd.Self().ID == succ.ID {
			heir, heirKTS = nd, c.services[i]
		}
	}
	crashed := c.k.Now()
	c.nodes[idx].Crash()
	c.net.Kill(c.nodes[idx].Self().Addr)
	// Detection clears the heir's predecessor; stabilization then links
	// the crashed peer's predecessor in. Either moves its arc.
	for heir.Predecessor().IsZero() || heir.HeldSince() <= crashed {
		if c.k.Now()-crashed > 10*time.Second {
			t.Fatal("the successor never took the crashed peer's arc over")
		}
		c.k.Run(c.k.Now() + 10*time.Millisecond)
	}
	detected := heir.HeldSince()

	var ts core.Timestamp
	var landed time.Duration
	c.do(func() {
		env := c.nodes[0].Env()
		env.Join(2, func(i int) {
			if i == 0 {
				// Sent from the heir, which serves it locally at once.
				ts = gen(heirKTS)
				return
			}
			if env.Sleep(grace/3) == nil {
				write(last)
				landed = env.Now()
			}
		})
	})
	if landed == 0 || landed-detected >= grace {
		t.Fatalf("the late writes landed %v after detection; the test needs them inside the %v grace", landed-detected, grace)
	}
	if !last.Less(ts) {
		t.Errorf("monotonicity violated after crash: %v then %v", last, ts)
	}
	// Indirect init: counter = tsm+1 = last+1, gen returns last+2.
	if ts != last.Add(2) {
		t.Errorf("indirect init should yield tsm+2 on first gen: got %v after %v", ts, last)
	}
}

// ModeIndirect must not transfer counters even on graceful leaves.
func TestModeIndirectDropsCountersOnLeave(t *testing.T) {
	c := newCluster(t, 6, 10, Config{Mode: ModeIndirect})
	c.settle(2 * time.Second)
	key := core.Key("ind-key")
	client := dht.NewClient(c.nodes[0], "ums")
	var last core.Timestamp
	c.do(func() {
		for i := 0; i < 3; i++ {
			ts, err := c.svc().GenTS(context.Background(), key)
			if err != nil {
				t.Errorf("gen: %v", err)
				return
			}
			last = ts
			for _, h := range c.set.Hr {
				client.PutH(context.Background(), key, h, core.Value{Data: []byte("v"), TS: ts}, dht.PutIfNewer)
			}
		}
	})
	idx := c.responsibleFor(key)
	c.do(func() {
		if err := c.nodes[idx].Leave(); err != nil {
			t.Errorf("leave: %v", err)
		}
	})
	c.net.Kill(c.nodes[idx].Self().Addr)
	c.settle(3 * time.Second)

	c.do(func() {
		ts, err := c.svc().GenTS(context.Background(), key)
		if err != nil {
			t.Errorf("gen: %v", err)
			return
		}
		if !last.Less(ts) {
			t.Errorf("monotonicity violated: %v then %v", last, ts)
		}
		// Indirect re-init from replicas: tsm+1 then +1 → last+2.
		if ts != last.Add(2) {
			t.Errorf("expected indirect re-init (+2), got %v after %v", ts, last)
		}
	})
	newIdx := c.responsibleFor(key)
	_, inits, arrivals := c.services[newIdx].Stats()
	if arrivals != 0 {
		t.Error("ModeIndirect must not receive direct transfers")
	}
	if inits == 0 {
		t.Error("ModeIndirect should have re-initialized indirectly")
	}
}

// The global monotonicity property (Theorem 2 + Lemma 1): across churn,
// every sequence of timestamps per key is strictly increasing.
func TestMonotonicityUnderChurn(t *testing.T) {
	for _, mode := range []InitMode{ModeDirect, ModeIndirect} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, 7, 14, Config{Mode: mode})
			c.settle(2 * time.Second)
			client := dht.NewClient(c.nodes[0], "ums")
			keys := []core.Key{"m1", "m2", "m3"}
			lastSeen := map[core.Key]core.Timestamp{}
			rng := c.k.NewRand("churn")
			nextPeer := 100

			genAll := func() {
				for _, k := range keys {
					ts, err := c.svc().GenTS(context.Background(), k)
					if err != nil {
						continue // responsible mid-transition: acceptable, no violation
					}
					if prev, ok := lastSeen[k]; ok && !prev.Less(ts) {
						t.Errorf("%s: %q got %v after %v", mode, k, ts, prev)
					}
					lastSeen[k] = ts
					for _, h := range c.set.Hr {
						client.PutH(context.Background(), k, h, core.Value{Data: []byte("x"), TS: ts}, dht.PutIfNewer)
					}
				}
			}

			for round := 0; round < 12; round++ {
				c.do(genAll)
				c.settle(time.Second)
				// Churn: alternate graceful leaves and joins; every third
				// round crash instead.
				var alive []*chord.Node
				for _, nd := range c.nodes {
					if nd.Alive() {
						alive = append(alive, nd)
					}
				}
				if len(alive) > 6 {
					victim := alive[rng.Intn(len(alive))]
					if round%3 == 2 {
						victim.Crash()
						c.net.Kill(victim.Self().Addr)
					} else {
						c.do(func() { victim.Leave() })
						c.net.Kill(victim.Self().Addr)
					}
				}
				// A replacement joins.
				name := fmt.Sprintf("late%d", nextPeer)
				nextPeer++
				ep := c.net.NewEndpoint(name)
				nd := chord.New(c.net.Env(), ep, hashing.NodeID(name), c.nodes[0].Config())
				svc := New(nd, c.set, "ums", Config{Mode: mode, GraceDelay: 10 * time.Millisecond})
				var boot *chord.Node
				for _, cand := range c.nodes {
					if cand.Alive() {
						boot = cand
						break
					}
				}
				c.do(func() {
					if err := nd.Join(boot.Self().Addr); err != nil {
						t.Logf("join failed (tolerated): %v", err)
						nd.Crash()
						c.net.Kill(ep.Addr())
					}
				})
				if nd.Alive() {
					nd.Start()
					c.nodes = append(c.nodes, nd)
					c.services = append(c.services, svc)
				}
				c.settle(2 * time.Second)
			}
		})
	}
}

// RLU cannot tell that its arc has not moved, so every gen_ts pays an
// initialization and the whole grace delay, even on an arc held since
// long before the key existed.
func TestRLUModeReinitializesEveryTime(t *testing.T) {
	const grace = 200 * time.Millisecond
	c := newCluster(t, 8, 8, Config{Mode: ModeDirect, RLU: true, GraceDelay: grace})
	c.settle(2 * time.Second)
	key := core.Key("rlu-key")
	client := dht.NewClient(c.nodes[0], "ums")
	var prev core.Timestamp
	c.do(func() {
		for i := 0; i < 4; i++ {
			start := c.k.Now()
			ts, err := c.svc().GenTS(context.Background(), key)
			if err != nil {
				t.Errorf("gen: %v", err)
				return
			}
			if took := c.k.Now() - start; took < grace {
				t.Errorf("RLU gen_ts #%d took %v, less than the %v grace", i+1, took, grace)
			}
			if i > 0 && !prev.Less(ts) {
				t.Errorf("RLU monotonicity violated: %v then %v", prev, ts)
			}
			prev = ts
			for _, h := range c.set.Hr {
				client.PutH(context.Background(), key, h, core.Value{Data: []byte("x"), TS: ts}, dht.PutIfNewer)
			}
		}
	})
	idx := c.responsibleFor(key)
	if n := c.services[idx].VCSLen(); n != 0 {
		t.Fatalf("RLU must drop counters after generation; VCS has %d", n)
	}
	_, inits, _ := c.services[idx].Stats()
	if inits < 4 {
		t.Fatalf("RLU should re-init per gen; inits = %d", inits)
	}
}

func TestRecoveryCorrectsLowCounters(t *testing.T) {
	c := newCluster(t, 9, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	key := core.Key("rec-key")
	idx := c.responsibleFor(key)
	svc := c.services[idx]

	// Simulate a failed former responsible that had issued ts(10): the
	// current responsible initialized low (no replicas → starts at 0).
	var repaired []string
	svc.SetRepair(func(k core.Key, oldTS, newTS core.Timestamp) {
		repaired = append(repaired, fmt.Sprintf("%s:%v->%v", k, oldTS, newTS))
	})
	c.do(func() {
		if ts, err := c.svc().GenTS(context.Background(), key); err != nil || ts != core.TS(1) {
			t.Errorf("initial gen = %v, %v", ts, err)
		}
	})
	req := RecoverReq{Entries: []CounterEntry{{Key: key, TS: core.TS(10)}}}
	resp, err := svc.handleRecover(req)
	if err != nil || resp.(RecoverResp).Corrected != 1 {
		t.Fatalf("recover: %+v, %v", resp, err)
	}
	// A peer that is not responsible for the key must refuse the
	// snapshot, not adopt a counter it has no business holding.
	bystander := c.services[(idx+1)%len(c.services)]
	if _, err := bystander.handleRecover(req); !errors.Is(err, core.ErrNotResponsible) {
		t.Fatalf("recover at a non-responsible peer: %v, want ErrNotResponsible", err)
	}
	if bystander.VCSLen() != 0 {
		t.Fatalf("non-responsible peer adopted %d counters", bystander.VCSLen())
	}
	c.do(func() {
		ts, err := c.svc().GenTS(context.Background(), key)
		if err != nil {
			t.Errorf("gen after recover: %v", err)
			return
		}
		if !core.TS(10).Less(ts) {
			t.Errorf("recovery did not raise the counter: %v", ts)
		}
	})
	if len(repaired) != 1 {
		t.Fatalf("repair callback fired %d times", len(repaired))
	}
}

func TestRecoverToRoutesCounters(t *testing.T) {
	c := newCluster(t, 10, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	key := core.Key("route-key")

	// A "restarted" peer holds a snapshot with a high counter and runs
	// the recovery strategy; the current responsible must adopt it.
	restarted := c.services[0]
	c.nodes[0].Store().Backing().PutCounter(key, core.TS(42))
	c.do(func() {
		corrected, err := restarted.RecoverTo(context.Background())
		if err != nil {
			t.Errorf("recover-to: %v", err)
		}
		if corrected == 0 {
			t.Error("recovery corrected nothing")
		}
	})
	c.do(func() {
		ts, err := c.svc().GenTS(context.Background(), key)
		if err != nil {
			t.Errorf("gen: %v", err)
			return
		}
		if !core.TS(42).Less(ts) {
			t.Errorf("counter not adopted: %v", ts)
		}
	})
}

func TestPeriodicInspectionRaisesCounter(t *testing.T) {
	c := newCluster(t, 11, 8, Config{Mode: ModeDirect, InspectEvery: time.Second})
	c.settle(2 * time.Second)
	key := core.Key("inspect-key")
	client := dht.NewClient(c.nodes[0], "ums")

	// Store replicas with ts(50) directly (as if a previous responsible
	// issued it), while the current responsible believes the counter is
	// low.
	c.do(func() {
		if _, err := c.svc().GenTS(context.Background(), key); err != nil {
			t.Errorf("gen: %v", err)
		}
		for _, h := range c.set.Hr {
			client.PutH(context.Background(), key, h, core.Value{Data: []byte("x"), TS: core.TS(50)}, dht.PutIfNewer)
		}
	})
	c.settle(5 * time.Second) // several inspection rounds
	c.do(func() {
		ts, err := c.svc().LastTS(context.Background(), key)
		if err != nil {
			t.Errorf("last: %v", err)
			return
		}
		if ts.Less(core.TS(50)) {
			t.Errorf("inspection did not raise counter: %v", ts)
		}
	})
}

func TestNotResponsibleRejected(t *testing.T) {
	c := newCluster(t, 12, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	key := core.Key("nr-key")
	idx := c.responsibleFor(key)
	var wrong *Service
	for i := range c.nodes {
		if i != idx {
			wrong = c.services[i]
			break
		}
	}
	c.do(func() {
		_, err := wrong.handleGenTS(GenTSReq{Key: key})
		if !errors.Is(err, core.ErrNotResponsible) {
			t.Errorf("wrong peer accepted a TSR: %v", err)
		}
	})
}

func TestGenTSCostAccounting(t *testing.T) {
	c := newCluster(t, 13, 10, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	c.do(func() {
		m := &network.Meter{}
		if _, err := c.svc().GenTS(network.WithMeter(context.Background(), m), "cost-key"); err != nil {
			t.Errorf("gen: %v", err)
			return
		}
		// At minimum: the indirect init for a fresh key reads |Hr|=5
		// positions. The meter must reflect server-side work.
		if m.Msgs < 5 {
			t.Errorf("meter = %d msgs; server-side init not accounted", m.Msgs)
		}
	})
}

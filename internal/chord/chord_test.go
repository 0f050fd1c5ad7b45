package chord

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// testCfg keeps protocol timers short so tests converge quickly.
func testCfg() Config {
	return Config{
		SuccessorListLen: 6,
		StabilizeEvery:   500 * time.Millisecond,
		FixFingersEvery:  300 * time.Millisecond,
		CheckPredEvery:   500 * time.Millisecond,
		RPCTimeout:       200 * time.Millisecond,
	}
}

// fastNet has deterministic 5 ms latency links.
func fastNet(k *simnet.Kernel) *simwire.Network {
	return simwire.New(k, simwire.Config{
		LatencyMS:      stats.Normal{Mean: 5, Variance: 0, Min: 5},
		BandwidthKbps:  stats.Normal{Mean: 1e6, Variance: 0, Min: 1e6},
		DefaultTimeout: 200 * time.Millisecond,
	})
}

type testRing struct {
	t     *testing.T
	k     *simnet.Kernel
	net   *simwire.Network
	nodes []*Node
}

func newTestRing(t *testing.T, seed int64) *testRing {
	k := simnet.New(seed)
	return &testRing{t: t, k: k, net: fastNet(k)}
}

// newNode creates a node with a name-derived ID, not yet joined.
func (tr *testRing) newNode(name string) *Node {
	ep := tr.net.NewEndpoint(name)
	return New(tr.net.Env(), ep, hashing.NodeID(name), testCfg())
}

// do runs fn as a simulation process and drives the kernel until it
// completes.
func (tr *testRing) do(fn func()) {
	tr.t.Helper()
	done := false
	tr.k.Go(func() {
		fn()
		done = true
	})
	for i := 0; i < 600 && !done; i++ {
		tr.k.Run(tr.k.Now() + 100*time.Millisecond)
	}
	if !done {
		tr.t.Fatal("simulated operation did not complete")
	}
}

// settle advances the simulation by d to let maintenance run.
func (tr *testRing) settle(d time.Duration) {
	tr.k.Run(tr.k.Now() + d)
}

// build creates n nodes: the first creates the ring, the rest join
// sequentially through it.
func (tr *testRing) build(n int, start bool) {
	first := tr.newNode("node0")
	first.CreateRing()
	tr.nodes = append(tr.nodes, first)
	for i := 1; i < n; i++ {
		nd := tr.newNode(fmt.Sprintf("node%d", i))
		tr.do(func() {
			if err := nd.Join(first.Self().Addr); err != nil {
				tr.t.Errorf("join node%d: %v", i, err)
			}
		})
		tr.nodes = append(tr.nodes, nd)
	}
	if start {
		for _, nd := range tr.nodes {
			nd.Start()
		}
	}
}

// aliveSorted returns the live nodes in ring order.
func (tr *testRing) aliveSorted() []*Node {
	var out []*Node
	for _, nd := range tr.nodes {
		if nd.Alive() {
			out = append(out, nd)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self().ID < out[j].Self().ID })
	return out
}

// wantResponsible returns the node that should own id: the first live
// node clockwise from id.
func (tr *testRing) wantResponsible(id core.ID) *Node {
	sorted := tr.aliveSorted()
	for _, nd := range sorted {
		if nd.Self().ID >= id {
			return nd
		}
	}
	return sorted[0]
}

// checkRing asserts that successors and predecessors form the sorted
// cycle of live nodes.
func (tr *testRing) checkRing() {
	tr.t.Helper()
	sorted := tr.aliveSorted()
	n := len(sorted)
	for i, nd := range sorted {
		wantSucc := sorted[(i+1)%n].Self().ID
		if got := nd.Successor().ID; got != wantSucc {
			tr.t.Errorf("node %s successor = %s, want %s", nd.Self().ID, got, wantSucc)
		}
		wantPred := sorted[(i-1+n)%n].Self().ID
		if got := nd.Predecessor(); got.IsZero() || got.ID != wantPred {
			tr.t.Errorf("node %s predecessor = %v, want %s", nd.Self().ID, got, wantPred)
		}
	}
}

func TestSingletonRing(t *testing.T) {
	tr := newTestRing(t, 1)
	tr.build(1, false)
	nd := tr.nodes[0]
	tr.do(func() {
		ref, hops, err := nd.Lookup(context.Background(), 12345)
		if err != nil {
			t.Errorf("lookup: %v", err)
		}
		if ref.ID != nd.Self().ID {
			t.Errorf("singleton lookup returned %v", ref)
		}
		if hops != 0 {
			t.Errorf("hops = %d, want 0", hops)
		}
	})
	if !nd.OwnsID(987654) {
		t.Fatal("singleton must own everything")
	}
}

func TestSequentialJoinsFormRing(t *testing.T) {
	tr := newTestRing(t, 2)
	tr.build(8, true)
	tr.settle(10 * time.Second)
	tr.checkRing()
}

func TestLookupFindsCorrectResponsible(t *testing.T) {
	tr := newTestRing(t, 3)
	tr.build(16, true)
	tr.settle(15 * time.Second)
	tr.checkRing()
	rng := tr.k.NewRand("targets")
	for i := 0; i < 40; i++ {
		target := core.ID(rng.Uint64())
		origin := tr.nodes[rng.Intn(len(tr.nodes))]
		want := tr.wantResponsible(target).Self().ID
		tr.do(func() {
			ref, _, err := origin.Lookup(context.Background(), target)
			if err != nil {
				t.Errorf("lookup %s: %v", target, err)
				return
			}
			if ref.ID != want {
				t.Errorf("lookup %s from %s = %s, want %s", target, origin.Self().ID, ref.ID, want)
			}
		})
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	tr := newTestRing(t, 4)
	tr.build(48, true)
	tr.settle(30 * time.Second) // enough rounds to fix most fingers
	rng := tr.k.NewRand("hops")
	total := 0
	const samples = 60
	for i := 0; i < samples; i++ {
		target := core.ID(rng.Uint64())
		origin := tr.nodes[rng.Intn(len(tr.nodes))]
		tr.do(func() {
			_, hops, err := origin.Lookup(context.Background(), target)
			if err != nil {
				t.Errorf("lookup: %v", err)
				return
			}
			total += hops
		})
	}
	avg := float64(total) / samples
	// log2(48) ≈ 5.6; allow generous slack but reject linear scans.
	if avg > 2.5*math.Log2(48) {
		t.Fatalf("average hops = %.1f, too high for 48 nodes", avg)
	}
}

func TestMeterCountsLookupMessages(t *testing.T) {
	tr := newTestRing(t, 5)
	tr.build(24, true)
	tr.settle(20 * time.Second)
	rng := tr.k.NewRand("meter")
	target := core.ID(rng.Uint64())
	origin := tr.nodes[5]
	tr.do(func() {
		m := &network.Meter{}
		_, hops, err := origin.Lookup(network.WithMeter(context.Background(), m), target)
		if err != nil {
			t.Errorf("lookup: %v", err)
			return
		}
		if m.Msgs != 2*hops {
			t.Errorf("meter = %d msgs for %d hops, want %d", m.Msgs, hops, 2*hops)
		}
	})
}

func TestPutGetAcrossRing(t *testing.T) {
	tr := newTestRing(t, 6)
	tr.build(12, true)
	tr.settle(10 * time.Second)
	client := dht.NewClient(tr.nodes[3], "test")
	h := hashing.Salted{Salt: "h0"}
	tr.do(func() {
		val := core.Value{Data: []byte("payload"), TS: core.TS(7)}
		if err := client.PutH(context.Background(), "some-key", h, val, dht.PutOverwrite); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		got, err := client.GetH(context.Background(), "some-key", h)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		if string(got.Data) != "payload" || got.TS != core.TS(7) {
			t.Errorf("got %+v", got)
		}
	})
	// The replica must live on the responsible node only.
	owner := tr.wantResponsible(h.ID("some-key"))
	if owner.Store().Len() != 1 {
		t.Fatalf("owner stores %d items, want 1", owner.Store().Len())
	}
}

func TestPutIfNewerRejectsStale(t *testing.T) {
	tr := newTestRing(t, 7)
	tr.build(6, true)
	tr.settle(5 * time.Second)
	client := dht.NewClient(tr.nodes[0], "test")
	h := hashing.Salted{Salt: "h0"}
	tr.do(func() {
		newer := core.Value{Data: []byte("new"), TS: core.TS(5)}
		older := core.Value{Data: []byte("old"), TS: core.TS(3)}
		if err := client.PutH(context.Background(), "k", h, newer, dht.PutIfNewer); err != nil {
			t.Errorf("put newer: %v", err)
		}
		if err := client.PutH(context.Background(), "k", h, older, dht.PutIfNewer); err != nil {
			t.Errorf("put older: %v", err)
		}
		got, err := client.GetH(context.Background(), "k", h)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		if string(got.Data) != "new" {
			t.Errorf("stale write overwrote newer replica: %q", got.Data)
		}
	})
}

func TestJoinTransfersKeys(t *testing.T) {
	tr := newTestRing(t, 8)
	tr.build(8, true)
	tr.settle(8 * time.Second)
	client := dht.NewClient(tr.nodes[0], "test")

	// Spread 50 keys across the ring.
	keys := make([]core.Key, 50)
	h := hashing.Salted{Salt: "h0"}
	tr.do(func() {
		for i := range keys {
			keys[i] = core.Key(fmt.Sprintf("key-%d", i))
			val := core.Value{Data: []byte(keys[i]), TS: core.TS(1)}
			if err := client.PutH(context.Background(), keys[i], h, val, dht.PutOverwrite); err != nil {
				t.Errorf("put %s: %v", keys[i], err)
			}
		}
	})

	// A new node joins; every key must remain reachable and the keys in
	// the joiner's arc must have moved to it.
	nd := tr.newNode("latecomer")
	tr.do(func() {
		if err := nd.Join(tr.nodes[0].Self().Addr); err != nil {
			t.Errorf("join: %v", err)
		}
	})
	nd.Start()
	tr.nodes = append(tr.nodes, nd)
	tr.settle(5 * time.Second)

	tr.do(func() {
		for _, k := range keys {
			got, err := client.GetH(context.Background(), k, h)
			if err != nil {
				t.Errorf("get %s after join: %v", k, err)
				continue
			}
			if string(got.Data) != string(k) {
				t.Errorf("get %s = %q", k, got.Data)
			}
		}
	})
	owned := 0
	for _, k := range keys {
		if nd.OwnsID(h.ID(k)) {
			owned++
			if _, ok := nd.Store().Get(h.ID(k), dht.Qualifier("test", k, h.Name())); !ok {
				t.Errorf("joiner owns %s but does not store it", k)
			}
		}
	}
	t.Logf("joiner took over %d/50 keys", owned)
}

func TestGracefulLeaveHandsOffKeys(t *testing.T) {
	tr := newTestRing(t, 9)
	tr.build(10, true)
	tr.settle(8 * time.Second)
	client := dht.NewClient(tr.nodes[0], "test")
	h := hashing.Salted{Salt: "h0"}

	keys := make([]core.Key, 40)
	tr.do(func() {
		for i := range keys {
			keys[i] = core.Key(fmt.Sprintf("lk-%d", i))
			val := core.Value{Data: []byte(keys[i]), TS: core.TS(1)}
			if err := client.PutH(context.Background(), keys[i], h, val, dht.PutOverwrite); err != nil {
				t.Errorf("put: %v", err)
			}
		}
	})

	// Pick a non-client node that owns at least one key and make it leave.
	leaver := tr.nodes[4]
	tr.do(func() {
		if err := leaver.Leave(); err != nil {
			t.Errorf("leave: %v", err)
		}
	})
	tr.net.Kill(leaver.Self().Addr)
	tr.settle(5 * time.Second)

	tr.do(func() {
		for _, k := range keys {
			got, err := client.GetH(context.Background(), k, h)
			if err != nil {
				t.Errorf("get %s after leave: %v", k, err)
				continue
			}
			if string(got.Data) != string(k) {
				t.Errorf("get %s = %q", k, got.Data)
			}
		}
	})
	tr.checkRing()
}

func TestCrashLosesDataButRingHeals(t *testing.T) {
	tr := newTestRing(t, 10)
	tr.build(12, true)
	tr.settle(10 * time.Second)
	client := dht.NewClient(tr.nodes[0], "test")
	h := hashing.Salted{Salt: "h0"}

	keys := make([]core.Key, 40)
	tr.do(func() {
		for i := range keys {
			keys[i] = core.Key(fmt.Sprintf("ck-%d", i))
			val := core.Value{Data: []byte(keys[i]), TS: core.TS(1)}
			if err := client.PutH(context.Background(), keys[i], h, val, dht.PutOverwrite); err != nil {
				t.Errorf("put: %v", err)
			}
		}
	})

	victim := tr.nodes[7]
	victimOwned := 0
	for _, k := range keys {
		if victim.OwnsID(h.ID(k)) {
			victimOwned++
		}
	}
	victim.Crash()
	tr.net.Kill(victim.Self().Addr)
	tr.settle(15 * time.Second) // several stabilize+checkPred rounds
	tr.checkRing()

	lost := 0
	tr.do(func() {
		for _, k := range keys {
			if _, err := client.GetH(context.Background(), k, h); err != nil {
				if errors.Is(err, core.ErrNotFound) {
					lost++
					continue
				}
				t.Errorf("get %s after crash: %v", k, err)
			}
		}
	})
	if lost != victimOwned {
		t.Errorf("lost %d keys, victim owned %d", lost, victimOwned)
	}
	t.Logf("crash lost %d/40 keys (victim's share)", lost)
}

func TestAssembleRingInvariants(t *testing.T) {
	tr := newTestRing(t, 11)
	for i := 0; i < 32; i++ {
		tr.nodes = append(tr.nodes, tr.newNode(fmt.Sprintf("node%d", i)))
	}
	AssembleRing(tr.nodes)
	tr.checkRing()

	// Lookups work immediately with assembled fingers.
	rng := tr.k.NewRand("asm")
	for i := 0; i < 30; i++ {
		target := core.ID(rng.Uint64())
		origin := tr.nodes[rng.Intn(len(tr.nodes))]
		want := tr.wantResponsible(target).Self().ID
		tr.do(func() {
			ref, hops, err := origin.Lookup(context.Background(), target)
			if err != nil {
				t.Errorf("lookup: %v", err)
				return
			}
			if ref.ID != want {
				t.Errorf("lookup %s = %s, want %s", target, ref.ID, want)
			}
			if hops > 2*int(math.Log2(32))+2 {
				t.Errorf("assembled ring lookup took %d hops", hops)
			}
		})
	}
}

// Handover hook recording calls, for transfer tests.
type recordingHook struct {
	name      string
	collected int
	accepted  int
	payload   string
}

type hookPayload struct{ Marker string }

func init() { network.RegisterMessage(hookPayload{}) }

func (r *recordingHook) Name() string { return r.name }
func (r *recordingHook) Collect(ceded func(core.ID) bool) network.Message {
	r.collected++
	return hookPayload{Marker: r.payload}
}
func (r *recordingHook) Accept(msg network.Message) {
	r.accepted++
	if msg.(hookPayload).Marker == "" {
		panic("empty handover payload")
	}
}

func TestHandoverHooksFireOnJoinAndLeave(t *testing.T) {
	tr := newTestRing(t, 12)
	tr.build(4, true)
	hooks := make([]*recordingHook, len(tr.nodes))
	for i, nd := range tr.nodes {
		hooks[i] = &recordingHook{name: "svc", payload: fmt.Sprintf("from-%d", i)}
		nd.RegisterHandover(hooks[i])
	}
	tr.settle(3 * time.Second)

	// Join: the joiner's successor must collect; the joiner must accept.
	nd := tr.newNode("hooked")
	joinHook := &recordingHook{name: "svc", payload: "joiner"}
	nd.RegisterHandover(joinHook)
	tr.do(func() {
		if err := nd.Join(tr.nodes[0].Self().Addr); err != nil {
			t.Errorf("join: %v", err)
		}
	})
	collected := 0
	for _, h := range hooks {
		collected += h.collected
	}
	if collected == 0 {
		t.Fatal("no hook collected on join")
	}
	if joinHook.accepted == 0 {
		t.Fatal("joiner accepted nothing")
	}

	// Leave: the leaver collects, its successor accepts.
	nd.Start()
	tr.nodes = append(tr.nodes, nd)
	tr.settle(3 * time.Second)
	before := 0
	for _, h := range hooks {
		before += h.accepted
	}
	tr.do(func() {
		if err := nd.Leave(); err != nil {
			t.Errorf("leave: %v", err)
		}
	})
	tr.net.Kill(nd.Self().Addr)
	if joinHook.collected == 0 {
		t.Fatal("leaver did not collect")
	}
	after := 0
	for _, h := range hooks {
		after += h.accepted
	}
	if after <= before {
		t.Fatal("successor did not accept the leaver's state")
	}
}

func TestChurnConvergence(t *testing.T) {
	tr := newTestRing(t, 13)
	tr.build(20, true)
	tr.settle(10 * time.Second)

	rng := tr.k.NewRand("churn")
	nextName := 100
	// 30 churn events: join, leave or crash.
	for i := 0; i < 30; i++ {
		tr.settle(time.Duration(rng.Intn(1500)) * time.Millisecond)
		alive := tr.aliveSorted()
		switch {
		case rng.Intn(3) == 0 && len(alive) > 8: // crash
			victim := alive[rng.Intn(len(alive))]
			victim.Crash()
			tr.net.Kill(victim.Self().Addr)
		case rng.Intn(2) == 0 && len(alive) > 8: // graceful leave
			leaver := alive[rng.Intn(len(alive))]
			tr.do(func() { leaver.Leave() })
			tr.net.Kill(leaver.Self().Addr)
		default: // join
			nd := tr.newNode(fmt.Sprintf("churn%d", nextName))
			nextName++
			boot := alive[rng.Intn(len(alive))]
			tr.do(func() {
				if err := nd.Join(boot.Self().Addr); err != nil {
					t.Logf("join during churn failed (tolerated): %v", err)
					nd.Crash()
					tr.net.Kill(nd.Self().Addr)
				}
			})
			if nd.Alive() {
				nd.Start()
				tr.nodes = append(tr.nodes, nd)
			}
		}
	}
	// Let the ring converge, then verify invariants and lookups.
	tr.settle(30 * time.Second)
	tr.checkRing()
	for i := 0; i < 20; i++ {
		target := core.ID(rng.Uint64())
		alive := tr.aliveSorted()
		origin := alive[rng.Intn(len(alive))]
		want := tr.wantResponsible(target).Self().ID
		tr.do(func() {
			ref, _, err := origin.Lookup(context.Background(), target)
			if err != nil {
				t.Errorf("post-churn lookup: %v", err)
				return
			}
			if ref.ID != want {
				t.Errorf("post-churn lookup %s = %s, want %s", target, ref.ID, want)
			}
		})
	}
}

func TestOwnsIDRanges(t *testing.T) {
	tr := newTestRing(t, 14)
	tr.build(5, true)
	tr.settle(5 * time.Second)
	sorted := tr.aliveSorted()
	for i, nd := range sorted {
		pred := sorted[(i-1+len(sorted))%len(sorted)]
		inside := pred.Self().ID + 1
		if !nd.OwnsID(inside) {
			t.Errorf("node %s must own %s", nd.Self().ID, core.ID(inside))
		}
		if nd.OwnsID(pred.Self().ID) {
			t.Errorf("node %s must not own its predecessor's ID", nd.Self().ID)
		}
		if !nd.OwnsID(nd.Self().ID) {
			t.Errorf("node %s must own its own ID", nd.Self().ID)
		}
	}
}

func TestCrashedNodeRefusesOperations(t *testing.T) {
	tr := newTestRing(t, 15)
	tr.build(3, false)
	nd := tr.nodes[1]
	nd.Crash()
	tr.do(func() {
		if _, _, err := nd.Lookup(context.Background(), 1); !errors.Is(err, core.ErrStopped) {
			t.Errorf("lookup from crashed node: %v", err)
		}
		if err := nd.Leave(); !errors.Is(err, core.ErrStopped) {
			t.Errorf("leave of crashed node: %v", err)
		}
	})
	if nd.OwnsID(1) {
		t.Fatal("crashed node must not own anything")
	}
	if nd.Store().Len() != 0 {
		t.Fatal("crash must clear the store")
	}
}

// TestLookupFailureIsCounted: a lookup whose every candidate is dead
// excludes one per attempt, exhausts its retries and fails, and
// dcdht_chord_lookup_failures_total counts that one failure.
func TestLookupFailureIsCounted(t *testing.T) {
	tr := newTestRing(t, 17)
	reg := obs.NewRegistry()
	for i := 0; i < 8; i++ {
		cfg := testCfg()
		cfg.Obs = reg
		name := fmt.Sprintf("node%d", i)
		tr.nodes = append(tr.nodes, New(tr.net.Env(), tr.net.NewEndpoint(name), hashing.NodeID(name), cfg))
	}
	AssembleRing(tr.nodes)
	issuer := tr.nodes[0]
	for _, nd := range tr.nodes[1:] {
		nd.Crash()
	}
	// Just short of the issuer's own ID: every other peer precedes it,
	// so each attempt has a dead candidate left to try.
	target := issuer.Self().ID - 1
	tr.do(func() {
		_, hops, err := issuer.Lookup(context.Background(), target)
		if err == nil {
			t.Errorf("lookup through dead peers resolved")
		}
		if hops != lookupRetries+1 {
			t.Errorf("lookup made %d hops, want one per attempt (%d)", hops, lookupRetries+1)
		}
	})
	if got := reg.Snapshot().Get("dcdht_chord_lookup_failures_total").Total(); got != 1 {
		t.Fatalf("dcdht_chord_lookup_failures_total = %v after one failed lookup, want 1", got)
	}
}

// TestGuessNeedsKnownPredecessor: with no known predecessor OwnsID falls
// back to "everything is mine", which is a default, not knowledge — Guess
// must not repeat it. The successor-list arcs stay answerable, and the
// own arc comes back once the predecessor is known again.
func TestGuessNeedsKnownPredecessor(t *testing.T) {
	tr := newTestRing(t, 16)
	tr.build(5, true)
	tr.settle(5 * time.Second)
	sorted := tr.aliveSorted()
	nd, pred, succ := sorted[1], sorted[0], sorted[2]
	own, next := nd.Self().ID, succ.Self().ID

	if g, src := nd.Guess(own); src != dht.GuessRouting || g.ID != own {
		t.Fatalf("converged: Guess(own id) = %v, %v, want self", g, src)
	}
	nd.mu.Lock()
	nd.pred = dht.NodeRef{}
	nd.mu.Unlock()
	if !nd.OwnsID(pred.Self().ID) {
		t.Fatal("precondition: without a predecessor OwnsID claims the whole ring")
	}
	if g, src := nd.Guess(own); src != dht.NoGuess {
		t.Errorf("unknown predecessor: Guess(own id) = %v, want it declined", g)
	}
	if g, src := nd.Guess(pred.Self().ID + 1); src != dht.NoGuess {
		t.Errorf("unknown predecessor: Guess(first id of the own arc) = %v, want it declined", g)
	}
	if g, src := nd.Guess(next); src != dht.GuessRouting || g.ID != next {
		t.Errorf("unknown predecessor: Guess(successor's id) = %v, %v, want the successor", g, src)
	}

	single := tr.newNode("alone")
	single.CreateRing()
	if g, src := single.Guess(own); src != dht.NoGuess {
		t.Errorf("singleton ring: Guess = %v, want it declined", g)
	}
}

// TestRogueRepliesAreErrors: a peer that answers a routing step with
// another method's body, or with nothing, fails the walk with
// ErrUnreachable instead of crashing the node that asked.
func TestRogueRepliesAreErrors(t *testing.T) {
	for _, reply := range []network.Message{StateResp{}, nil} {
		tr := newTestRing(t, 1)
		rogue := tr.net.NewEndpoint("rogue")
		rogue.Handle(methodFindStep, func(network.Addr, network.Message) (network.Message, error) {
			return reply, nil
		})
		joiner, member := tr.newNode("joiner"), tr.newNode("member")
		member.CreateRing()
		var joinErr, nudgeErr error
		tr.do(func() {
			joinErr = joiner.Join("rogue")
			nudgeErr = member.Nudge("rogue")
		})
		for name, err := range map[string]error{"join": joinErr, "nudge": nudgeErr} {
			if !errors.Is(err, core.ErrUnreachable) {
				t.Errorf("%s via a peer replying %T: %v, want an error wrapping ErrUnreachable", name, reply, err)
			}
		}
	}
}

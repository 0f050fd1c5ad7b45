// Package ringtest is the cross-implementation conformance suite for
// dht.RingNode substrates. Any ring — chord's O(log n) finger routing,
// can's d-dimensional zones, onehop's full-table event propagation, or
// a future substrate — plugs in through a Factory and gets the same
// sweep: ownership correctness against ground truth, hop-count bounds,
// lookup liveness under churn, service state following the arc across
// joins and leaves, stopped peers refusing traffic, and post-heal
// re-merge via Nudge. The
// suite runs on the deterministic simulation kernel, so a failure
// replays bit-identically from its seed.
package ringtest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Factory describes one ring implementation to the suite.
type Factory struct {
	// Name labels the sub-tests.
	Name string
	// New creates an unjoined node with the given identity. The factory
	// chooses its own protocol timers; they should be test-brisk
	// (hundreds of milliseconds, not the production tens of seconds).
	New func(env network.Env, ep network.Endpoint, id core.ID) dht.RingNode
	// Assemble wires freshly created nodes into a converged overlay
	// administratively, the way large simulations bootstrap.
	Assemble func(nodes []dht.RingNode)
	// MaxMeanHops bounds the acceptable mean lookup hop count on a
	// converged overlay of n nodes — the substrate's routing promise
	// (≤ 1.1 for a one-hop table, c·log n for chord, c·√n for 2-d CAN).
	MaxMeanHops func(n int) float64
	// SupportsNudgeMerge gates the post-heal re-merge test: true when
	// Nudge re-merges a healed partition (chord, onehop). CAN's zone
	// geometry has no cheap cross-partition arbitration, so it opts out.
	SupportsNudgeMerge bool
	// LearnsArcs gates the learned-arc tests: true when Guess also
	// answers from arcs the node's own lookups proved and Lookup routes
	// through their ends (chord). Rings whose Guess is live routing
	// state only opt out.
	LearnsArcs bool
}

// Run executes the conformance sweep against one factory.
func Run(t *testing.T, f Factory) {
	t.Run("Ownership", func(t *testing.T) { testOwnership(t, f) })
	t.Run("HopBound", func(t *testing.T) { testHopBound(t, f) })
	t.Run("LookupUnderChurn", func(t *testing.T) { testLookupUnderChurn(t, f) })
	t.Run("GuessAgreesWithLookup", func(t *testing.T) { testGuessAgreesWithLookup(t, f, dht.GuessRouting) })
	for _, ev := range []string{"join", "leave", "crash"} {
		t.Run("StaleGuessFallsBack/"+ev, func(t *testing.T) { testStaleGuessFallsBack(t, f, ev, dht.GuessRouting) })
	}
	t.Run("HeldSinceOnDefault", func(t *testing.T) { testHeldSinceOnDefault(t, f) })
	for _, ev := range []string{"join", "leave", "crash"} {
		t.Run("HeldSinceMoves/"+ev, func(t *testing.T) { testHeldSinceMoves(t, f, ev) })
	}
	for _, ev := range []string{"join", "leave"} {
		t.Run("HandoverFollowsArc/"+ev, func(t *testing.T) { testHandoverFollowsArc(t, f, ev) })
	}
	for _, ev := range []string{"leave", "crash"} {
		t.Run("StoppedPeerRefuses/"+ev, func(t *testing.T) { testStoppedPeerRefuses(t, f, ev) })
	}
	if f.LearnsArcs {
		t.Run("LearnedGuessAgreesWithLookup", func(t *testing.T) { testGuessAgreesWithLookup(t, f, dht.GuessLearned) })
		for _, ev := range []string{"join", "leave", "crash"} {
			t.Run("StaleLearnedArcFallsBack/"+ev, func(t *testing.T) { testStaleGuessFallsBack(t, f, ev, dht.GuessLearned) })
		}
		for _, ev := range []string{"join", "leave", "crash"} {
			t.Run("LookupThroughStaleLearnedPeer/"+ev, func(t *testing.T) { testLookupThroughStaleLearnedPeer(t, f, ev) })
		}
	}
	if f.SupportsNudgeMerge {
		t.Run("HealMerge", func(t *testing.T) { testHealMerge(t, f) })
	}
}

// cluster is the suite's miniature deployment: a simulated network and
// a set of ring nodes, with helpers to drive the kernel.
type cluster struct {
	t     *testing.T
	k     *simnet.Kernel
	net   *simwire.Network
	f     Factory
	nodes []dht.RingNode
	next  int
}

func newCluster(t *testing.T, f Factory, seed int64, n int) *cluster {
	k := simnet.New(seed)
	net := simwire.New(k, simwire.Config{
		LatencyMS:      stats.Normal{Mean: 5, Variance: 0, Min: 5},
		BandwidthKbps:  stats.Normal{Mean: 1e6, Variance: 0, Min: 1e6},
		DefaultTimeout: 200 * time.Millisecond,
	})
	c := &cluster{t: t, k: k, net: net, f: f}
	nodes := make([]dht.RingNode, n)
	for i := range nodes {
		nodes[i] = c.newNode()
	}
	f.Assemble(nodes)
	c.nodes = nodes
	return c
}

// newNode creates an unjoined node with a fresh name-derived identity.
func (c *cluster) newNode() dht.RingNode {
	name := fmt.Sprintf("ring-%s-%03d", c.f.Name, c.next)
	c.next++
	ep := c.net.NewEndpoint(name)
	return c.f.New(c.net.Env(), ep, hashing.NodeID(name))
}

// startAll launches every node's maintenance.
func (c *cluster) startAll() {
	for _, n := range c.nodes {
		n.Start()
	}
}

// do runs fn as a simulation activity and drives the kernel until it
// completes.
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
		c.t.Fatal("ringtest: simulated operation did not complete")
	}
}

// settle advances virtual time by d so maintenance can run.
func (c *cluster) settle(d time.Duration) {
	c.k.Run(c.k.Now() + d)
}

// alive returns the live members.
func (c *cluster) alive() []dht.RingNode {
	var out []dht.RingNode
	for _, n := range c.nodes {
		if n.Alive() {
			out = append(out, n)
		}
	}
	return out
}

// byID returns the live node with the given identity, or nil.
func (c *cluster) byID(id core.ID) dht.RingNode {
	for _, n := range c.alive() {
		if n.Self().ID == id {
			return n
		}
	}
	return nil
}

// owner returns the unique live node claiming id, failing the test when
// ownership is not exactly-one. This is the suite's ground truth: the
// overlay's own OwnsID predicates, evaluated across the whole live
// population, must tile the ID space.
func (c *cluster) owner(id core.ID) dht.RingNode {
	c.t.Helper()
	var own dht.RingNode
	for _, n := range c.alive() {
		if !n.OwnsID(id) {
			continue
		}
		if own != nil {
			c.t.Fatalf("id %s claimed by both %s and %s", id, own.Self().ID, n.Self().ID)
		}
		own = n
	}
	if own == nil {
		c.t.Fatalf("id %s claimed by no live node", id)
	}
	return own
}

// testOwnership checks that on a converged overlay, Lookup agrees with
// the ground-truth owner for a large sample of random positions, from
// rotating issuers.
func testOwnership(t *testing.T, f Factory) {
	const peers = 24
	c := newCluster(t, f, 101, peers)
	rng := c.k.NewRand("ownership")
	const samples = 1000
	c.do(func() {
		for i := 0; i < samples; i++ {
			id := core.ID(rng.Uint64())
			want := c.owner(id).Self()
			issuer := c.nodes[i%len(c.nodes)]
			got, _, err := issuer.Lookup(context.Background(), id)
			if err != nil {
				t.Fatalf("lookup %s from %s: %v", id, issuer.Self().ID, err)
			}
			if got.ID != want.ID {
				t.Fatalf("lookup %s from %s resolved %s, ground truth %s",
					id, issuer.Self().ID, got.ID, want.ID)
			}
		}
	})
}

// testHopBound checks the substrate's routing promise: mean hops over a
// converged overlay stays within MaxMeanHops.
func testHopBound(t *testing.T, f Factory) {
	const peers = 32
	c := newCluster(t, f, 202, peers)
	rng := c.k.NewRand("hopbound")
	const samples = 200
	total := 0
	c.do(func() {
		for i := 0; i < samples; i++ {
			id := core.ID(rng.Uint64())
			issuer := c.nodes[rng.Intn(len(c.nodes))]
			_, hops, err := issuer.Lookup(context.Background(), id)
			if err != nil {
				t.Fatalf("lookup %s: %v", id, err)
			}
			total += hops
		}
	})
	mean := float64(total) / samples
	if limit := f.MaxMeanHops(peers); mean > limit {
		t.Fatalf("mean hops %.2f over %d peers exceeds the %s bound %.2f",
			mean, peers, f.Name, limit)
	}
}

// testLookupUnderChurn drives graceful leaves, crashes and joins
// through the overlay's real protocol paths and checks lookup liveness:
// every lookup must still resolve, and must land on a live node that
// itself claims the position. Strict exactly-one ownership is the
// converged-overlay property (testOwnership); mid-churn, substrates may
// transiently double-claim an arc while repair converges (CAN's crash
// takeover, chord mid-stabilization), and the store layer's own
// owns-check plus timestamp discipline carry correctness through that
// window.
func testLookupUnderChurn(t *testing.T, f Factory) {
	const peers = 16
	c := newCluster(t, f, 303, peers)
	c.startAll()
	c.settle(3 * time.Second)
	rng := c.k.NewRand("churn")

	for round := 0; round < 3; round++ {
		// One graceful leave and one crash per round.
		live := c.alive()
		leaver := live[rng.Intn(len(live))]
		c.do(func() {
			if err := leaver.Leave(); err != nil {
				t.Logf("leave: %v", err)
			}
		})
		live = c.alive()
		victim := live[rng.Intn(len(live))]
		victim.Crash()
		c.net.Kill(victim.Self().Addr)

		// One join through a live bootstrap.
		joiner := c.newNode()
		boot := c.alive()[0]
		c.do(func() {
			if err := joiner.Join(boot.Self().Addr); err != nil {
				t.Fatalf("join: %v", err)
			}
		})
		joiner.Start()
		c.nodes = append(c.nodes, joiner)

		// Let failure detectors and repair run, then verify. Liveness is
		// an *eventual* property: repair may need several detector
		// periods after a crash (CAN's takeover in particular), so a
		// failed sweep earns more settling before it counts against the
		// substrate.
		c.settle(5 * time.Second)
		var lastFail string
		for attempt := 0; ; attempt++ {
			lastFail = ""
			c.do(func() {
				for i := 0; i < 30 && lastFail == ""; i++ {
					id := core.ID(rng.Uint64())
					issuers := c.alive()
					issuer := issuers[rng.Intn(len(issuers))]
					got, _, err := issuer.Lookup(context.Background(), id)
					if err != nil {
						lastFail = fmt.Sprintf("lookup %s from %s: %v", id, issuer.Self().ID, err)
						return
					}
					resolved := c.byID(got.ID)
					if resolved == nil {
						lastFail = fmt.Sprintf("lookup %s resolved %s, not a live member", id, got.ID)
						return
					}
					if !resolved.OwnsID(id) {
						lastFail = fmt.Sprintf("lookup %s resolved %s, which does not claim it", id, got.ID)
					}
				}
			})
			if lastFail == "" {
				break
			}
			if attempt >= 4 {
				t.Fatalf("round %d: overlay never converged: %s", round, lastFail)
			}
			c.settle(10 * time.Second)
		}
	}
}

// testHealMerge splits the overlay into two partitions, lets each side
// converge alone, heals the network and nudges every node through a
// bootstrap on the first side — the deployment layer's rendezvous —
// then checks the merged overlay agrees on ownership again.
func testHealMerge(t *testing.T, f Factory) {
	const peers = 12
	c := newCluster(t, f, 404, peers)
	c.startAll()
	c.settle(3 * time.Second)

	var sideA, sideB []network.Addr
	for i, n := range c.nodes {
		if i < peers/2 {
			sideA = append(sideA, n.Self().Addr)
		} else {
			sideB = append(sideB, n.Self().Addr)
		}
	}
	c.net.Partition(sideA, sideB)
	// Long enough for every substrate's failure detector to route
	// around the unreachable half.
	c.settle(20 * time.Second)

	c.net.Heal()
	boot := c.nodes[0].Self().Addr
	c.do(func() {
		for _, n := range c.nodes[1:] {
			if !n.Alive() {
				continue
			}
			if err := n.Nudge(boot); err != nil {
				t.Logf("nudge %s: %v", n.Self().ID, err)
			}
		}
	})
	c.settle(20 * time.Second)

	rng := c.k.NewRand("healmerge")
	c.do(func() {
		for i := 0; i < 50; i++ {
			id := core.ID(rng.Uint64())
			want := c.owner(id).Self()
			issuer := c.nodes[i%len(c.nodes)]
			got, _, err := issuer.Lookup(context.Background(), id)
			if err != nil {
				t.Fatalf("post-heal lookup %s from %s: %v", id, issuer.Self().ID, err)
			}
			if got.ID != want.ID {
				t.Fatalf("post-heal lookup %s from %s resolved %s, ground truth %s",
					id, issuer.Self().ID, got.ID, want.ID)
			}
		}
	})
}

// testHeldSinceOnDefault: a node whose ownership rests on the default —
// alone in its overlay, before and after it creates it and while its
// maintenance runs — has no steady arc, so HeldSince reports the
// current time whenever it is asked.
func testHeldSinceOnDefault(t *testing.T, f Factory) {
	c := newCluster(t, f, 707, 0)
	n := c.newNode()
	check := func(when string) {
		t.Helper()
		if got, now := n.HeldSince(), c.k.Now(); got != now {
			t.Errorf("%s: HeldSince = %v at %v, want the current time", when, got, now)
		}
	}
	check("unjoined")
	c.settle(time.Second)
	check("unjoined, a second later")
	c.do(n.CreateRing)
	n.Start()
	check("alone in a new overlay")
	c.settle(5 * time.Second)
	check("alone, after five seconds of maintenance")
}

// testHeldSinceMoves plays one membership event on a converged overlay
// and checks HeldSince peer by peer. The peers whose arc the event
// changes — the owner a joiner splits, or whoever claims the departed
// peer's positions once its leave has landed or its crash has been
// detected — report a time at or after the event. Every other peer,
// which may have rewritten its routing state but not its arc, reports
// exactly what it did before.
func testHeldSinceMoves(t *testing.T, f Factory, event string) {
	const peers = 12
	c := newCluster(t, f, 808, peers)
	c.startAll()
	c.settle(3 * time.Second)
	before := map[core.ID]time.Duration{}
	for _, n := range c.nodes {
		before[n.Self().ID] = n.HeldSince()
		if before[n.Self().ID] >= c.k.Now() {
			t.Fatalf("%s reports no steady arc on a converged overlay", n.Self().ID)
		}
	}
	rng := c.k.NewRand("held-" + event)
	subject := c.nodes[1+rng.Intn(peers-1)] // the join's bootstrap stays up
	// Positions the subject owns now (for a join: the joiner's own).
	var arc []core.ID
	for i := 0; i < 5000 && len(arc) < 50; i++ {
		if id := core.ID(rng.Uint64()); subject.OwnsID(id) {
			arc = append(arc, id)
		}
	}
	if len(arc) == 0 {
		t.Fatalf("no sampled position falls in %s's arc", subject.Self().ID)
	}
	at := c.k.Now()
	touched := map[core.ID]bool{}
	switch event {
	case "join":
		joiner := c.newNode()
		touched[c.owner(joiner.Self().ID).Self().ID] = true
		c.do(func() {
			if err := joiner.Join(c.nodes[0].Self().Addr); err != nil {
				t.Fatalf("join: %v", err)
			}
		})
		joiner.Start()
		subject = joiner
	case "leave":
		c.do(func() {
			if err := subject.Leave(); err != nil {
				t.Logf("leave: %v", err)
			}
		})
		c.net.Kill(subject.Self().Addr)
	case "crash":
		subject.Crash()
		c.net.Kill(subject.Self().Addr)
	}
	c.settle(5 * time.Second)
	if event != "join" {
		for _, n := range c.alive() {
			for _, id := range arc {
				if n.OwnsID(id) {
					touched[n.Self().ID] = true
				}
			}
		}
		if len(touched) == 0 {
			t.Fatalf("nobody took over %s's arc", subject.Self().ID)
		}
	}
	for _, n := range c.alive() {
		id := n.Self().ID
		if id == subject.Self().ID {
			continue
		}
		got := n.HeldSince()
		switch {
		case touched[id] && (got < at || got >= c.k.Now()):
			t.Errorf("%s took part of the arc: HeldSince = %v, want a steady time at or after the %s at %v", id, got, event, at)
		case !touched[id] && got != before[id]:
			t.Errorf("%s's arc did not change, but HeldSince moved from %v to %v", id, before[id], got)
		}
	}
}

// arcState is a service's state as a dht.Handover sees it: the ring
// positions it holds, how many payloads it has accepted, and the
// payloads it has collected.
type arcState struct {
	held      map[core.ID]bool
	accepts   int
	collected []arcPayload
}

// arcPayload is arcState's handover payload: the positions ceded.
type arcPayload struct {
	IDs []core.ID
}

func init() { network.RegisterMessage(arcPayload{}) }

func (s *arcState) Name() string { return "ringtest" }

func (s *arcState) Collect(ceded func(core.ID) bool) network.Message {
	var out arcPayload
	for id := range s.held {
		if ceded(id) {
			out.IDs = append(out.IDs, id)
			delete(s.held, id)
		}
	}
	if len(out.IDs) == 0 {
		return nil
	}
	s.collected = append(s.collected, out)
	return out
}

func (s *arcState) Accept(msg network.Message) {
	p, ok := msg.(arcPayload)
	if !ok {
		return
	}
	s.accepts++
	for _, id := range p.IDs {
		s.held[id] = true
	}
}

// testHandoverFollowsArc gives every node of a converged overlay a
// service holding state for 2000 positions, each on its owner, plays a
// join or a graceful leave, and checks that the state followed the arc:
// a joiner accepts the positions it took over in exactly one payload and
// the peer that ceded them keeps none; the heir of a leaver accepts all
// the leaver held. Afterwards every position is held by exactly its
// owner.
func testHandoverFollowsArc(t *testing.T, f Factory, event string) {
	const peers = 12
	c := newCluster(t, f, 909, peers)
	states := map[core.ID]*arcState{}
	attach := func(n dht.RingNode) *arcState {
		s := &arcState{held: map[core.ID]bool{}}
		n.RegisterHandover(s)
		states[n.Self().ID] = s
		return s
	}
	for _, n := range c.nodes {
		attach(n)
	}
	c.startAll()
	c.settle(time.Second)
	rng := c.k.NewRand("handover-" + event)
	positions := make([]core.ID, 2000)
	for i := range positions {
		positions[i] = core.ID(rng.Uint64())
		states[c.owner(positions[i]).Self().ID].held[positions[i]] = true
	}
	switch event {
	case "join":
		joiner := c.newNode()
		mine := attach(joiner)
		ceder := states[c.owner(joiner.Self().ID).Self().ID]
		c.do(func() {
			if err := joiner.Join(c.nodes[0].Self().Addr); err != nil {
				t.Fatalf("join: %v", err)
			}
		})
		joiner.Start()
		c.nodes = append(c.nodes, joiner)
		c.settle(3 * time.Second)
		if len(mine.held) == 0 {
			t.Fatalf("the joiner took over none of %d held positions", len(positions))
		}
		if mine.accepts != 1 {
			t.Errorf("the joiner accepted %d payloads, want exactly 1", mine.accepts)
		}
		for id := range mine.held {
			if ceder.held[id] {
				t.Errorf("position %s went to the joiner but the ceder still holds it", id)
			}
		}
	case "leave":
		leaver := c.nodes[1+rng.Intn(peers-1)]
		gone := states[leaver.Self().ID]
		owned := len(gone.held)
		if owned == 0 {
			t.Fatalf("the leaver holds none of %d positions", len(positions))
		}
		c.do(func() {
			if err := leaver.Leave(); err != nil {
				t.Errorf("leave: %v", err)
			}
		})
		c.net.Kill(leaver.Self().Addr)
		c.settle(3 * time.Second)
		if len(gone.held) != 0 {
			t.Errorf("the leaver still holds %d positions", len(gone.held))
		}
		heirs := 0
		for _, n := range c.alive() {
			if s := states[n.Self().ID]; s.accepts > 0 {
				heirs++
				if s.accepts != 1 || len(s.held) < owned {
					t.Errorf("heir %s accepted %d payloads and holds %d positions, want 1 payload and all %d of the leaver's",
						n.Self().ID, s.accepts, len(s.held), owned)
				}
			}
		}
		if heirs != 1 {
			t.Errorf("%d peers accepted the leaver's state, want one heir", heirs)
		}
	}
	for _, id := range positions {
		own := c.owner(id)
		for _, n := range c.alive() {
			if held := states[n.Self().ID].held[id]; held != (n == own) {
				t.Fatalf("position %s: held by %s = %v, but %s owns it", id, n.Self().ID, held, own.Self().ID)
			}
		}
	}
	// A TCP ring carries the payload through the wire codec.
	payloads := 0
	for _, s := range states {
		for _, p := range s.collected {
			payloads++
			b, err := network.AppendMessage(nil, p)
			if err != nil {
				t.Fatalf("encode a payload of %d positions: %v", len(p.IDs), err)
			}
			if back, err := network.DecodeMessage(b); err != nil || !reflect.DeepEqual(back, network.Message(p)) {
				t.Fatalf("a payload of %d positions decodes as %v, %v", len(p.IDs), back, err)
			}
		}
	}
	if payloads == 0 {
		t.Fatal("no payload was collected")
	}
}

// testStoppedPeerRefuses stops one peer of a converged overlay, by a
// graceful leave or a crash, and leaves its endpoint up, so whatever
// refuses is the node and not the network: its own Lookup returns
// core.ErrStopped, a peer's Get for a position it held is answered with
// a refusal, and so is a Ping.
func testStoppedPeerRefuses(t *testing.T, f Factory, event string) {
	const peers = 8
	c := newCluster(t, f, 1010, peers)
	c.startAll()
	c.settle(time.Second)
	rng := c.k.NewRand("stopped-" + event)
	subject, asker := c.nodes[3], c.nodes[0]
	var pos core.ID
	for pos = core.ID(rng.Uint64()); !subject.OwnsID(pos); pos = core.ID(rng.Uint64()) {
	}
	subject.Store().Put(pos, "q", core.Value{Data: []byte("v"), TS: core.TS(1)}, dht.PutOverwrite)
	switch event {
	case "leave":
		c.do(func() {
			if err := subject.Leave(); err != nil {
				t.Errorf("leave: %v", err)
			}
		})
	case "crash":
		subject.Crash()
	}
	if subject.Alive() {
		t.Fatalf("the peer is alive after its %s", event)
	}
	to := subject.Self().Addr
	c.do(func() {
		ctx := context.Background()
		if _, _, err := subject.Lookup(ctx, pos); !errors.Is(err, core.ErrStopped) {
			t.Errorf("the stopped peer's own lookup: %v, want %v", err, core.ErrStopped)
		}
		_, err := asker.Endpoint().Invoke(ctx, to, dht.MethodGet, dht.GetReq{RingID: pos, Qual: "q"}, network.Call{Timeout: rpcTimeout})
		if err == nil || errors.Is(err, core.ErrTimeout) {
			t.Errorf("a get sent to the stopped peer: %v, want a refusal", err)
		}
		if _, err := asker.Endpoint().Invoke(ctx, to, dht.MethodPing, dht.PingReq{}, network.Call{Timeout: rpcTimeout}); !errors.Is(err, core.ErrStopped) {
			t.Errorf("a ping sent to the stopped peer: %v, want %v", err, core.ErrStopped)
		}
	})
}

// testGuessAgreesWithLookup checks the zero-message guess on a converged
// overlay: for every sampled position a node either declines or names
// the same peer the authoritative Lookup resolves — what a node knows is
// never wrong while nothing has moved. src picks the knowledge under
// test: live routing state, or (after 200 lookups from four issuers)
// the arcs those lookups proved.
func testGuessAgreesWithLookup(t *testing.T, f Factory, src dht.GuessSource) {
	const peers = 24
	c := newCluster(t, f, 505, peers)
	rng := c.k.NewRand("guess")
	issuers, warm := c.nodes, 0
	if src == dht.GuessLearned {
		issuers, warm = c.nodes[:4], 200
	}
	const samples = 1000
	offered := 0
	c.do(func() {
		for i := 0; i < warm+samples; i++ {
			id := core.ID(rng.Uint64())
			issuer := issuers[i%len(issuers)]
			got, from := issuer.Guess(id)
			if i >= warm && from == dht.NoGuess {
				continue
			}
			want, _, err := issuer.Lookup(context.Background(), id)
			if err != nil {
				t.Fatalf("lookup %s from %s: %v", id, issuer.Self().ID, err)
			}
			if i < warm {
				continue
			}
			if from == src {
				offered++
			}
			if got.ID != want.ID {
				t.Fatalf("%s guessed %s (%s) for %s, lookup resolved %s", issuer.Self().ID, got.ID, from, id, want.ID)
			}
		}
	})
	if offered == 0 {
		t.Fatalf("no node offered a %s guess for any of %d positions", src, samples)
	}
}

// fixedHash is a replication function that sends every key to one
// chosen ring position, so a test can aim a replica at a specific arc.
type fixedHash struct {
	id   core.ID
	name string
}

func (h fixedHash) ID(core.Key) core.ID { return h.id }
func (h fixedHash) Name() string        { return h.name }

// The patience of one simulated RPC in this suite (the transport default
// and every factory's RPCTimeout) and dht.Client's back-off.
const (
	rpcTimeout    = 200 * time.Millisecond
	clientBackoff = 100 * time.Millisecond
)

// staleView is a cluster whose issuer's knowledge went stale across one
// membership event: the issuer runs no maintenance and hears nothing of
// the event, which happens at a peer the issuer can name from src.
type staleView struct {
	*cluster
	issuer, named dht.RingNode
	src           dht.GuessSource
	rng           *rand.Rand
}

// newStaleView builds the cluster, warms the issuer's learned arcs with
// 100 lookups when src asks for them, and plays event ("join", "leave"
// or "crash") at a peer the issuer names from src — not itself, so its
// knowledge is what goes stale, not its predecessor, whose arc would
// fall to the cut-off issuer, and not the bootstrap a joiner goes
// through. A joiner's identity falls where the issuer names that peer.
// The issuer is cut off from the event and healed five seconds later.
func newStaleView(t *testing.T, f Factory, event string, src dht.GuessSource, label string) *staleView {
	const peers = 16
	v := &staleView{cluster: newCluster(t, f, 606, peers), src: src}
	c := v.cluster
	v.issuer = c.nodes[0]
	for _, n := range c.nodes[1:] {
		n.Start() // the issuer runs no maintenance: its view only ages
	}
	c.settle(time.Second)
	v.rng = c.k.NewRand(label)
	if src == dht.GuessLearned {
		c.do(func() {
			for i := 0; i < 100; i++ {
				if _, _, err := v.issuer.Lookup(context.Background(), core.ID(v.rng.Uint64())); err != nil {
					t.Fatalf("warm lookup: %v", err)
				}
			}
		})
	}
	for v.named == nil {
		g, ok := v.names(core.ID(v.rng.Uint64()))
		if ok && g.ID != v.issuer.Self().ID && !v.issuer.OwnsID(g.ID+1) && g.ID != c.nodes[1].Self().ID {
			v.named = c.byID(g.ID)
		}
	}
	var joiner dht.RingNode
	for event == "join" && joiner == nil {
		cand := c.newNode()
		if g, ok := v.names(cand.Self().ID); ok && g.ID == v.named.Self().ID {
			joiner = cand
			c.nodes = append(c.nodes, joiner)
		}
	}

	// The issuer hears nothing of the event: eager substrates would
	// otherwise update it in the same round trip.
	var rest []network.Addr
	for _, n := range c.nodes[1:] {
		rest = append(rest, n.Self().Addr)
	}
	c.net.Partition([]network.Addr{v.issuer.Self().Addr}, rest)
	switch event {
	case "join":
		var err error
		c.do(func() { err = joiner.Join(c.nodes[1].Self().Addr) })
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		joiner.Start()
	case "leave":
		// The leaver's farewell to the cut-off issuer fails; that is the
		// point.
		c.do(func() {
			if err := v.named.Leave(); err != nil {
				t.Logf("leave: %v", err)
			}
		})
	case "crash":
		v.named.Crash()
		c.net.Kill(v.named.Self().Addr)
	}
	c.settle(5 * time.Second)
	c.net.Heal()
	return v
}

// names reports the peer the issuer guesses for id when that guess
// rests on the view's source.
func (v *staleView) names(id core.ID) (dht.NodeRef, bool) {
	g, from := v.issuer.Guess(id)
	return g, from == v.src
}

// truth is the live overlay's owner of id, excluding the issuer (cut
// off for five seconds, the others have written it out of the ring).
func (v *staleView) truth(id core.ID) dht.RingNode {
	var own dht.RingNode
	for _, n := range v.alive() {
		if n == v.issuer || !n.OwnsID(id) {
			continue
		}
		if own != nil {
			return nil
		}
		own = n
	}
	return own
}

// stalePositions draws up to want positions whose guess went stale: the
// issuer names the event's peer, which is no longer the owner.
func (v *staleView) stalePositions(want int) []core.ID {
	var out []core.ID
	for i := 0; i < 5000 && len(out) < want; i++ {
		id := core.ID(v.rng.Uint64())
		g, ok := v.names(id)
		if own := v.truth(id); ok && own != nil && g.ID == v.named.Self().ID && g.ID != own.Self().ID {
			out = append(out, id)
		}
	}
	if len(out) < want {
		v.t.Fatalf("%s names %s for %d stale positions, want %d", v.issuer.Self().ID, v.named.Self().ID, len(out), want)
	}
	return out
}

// put issues one put from the issuer replicated under hr, and checks
// that every replica lands on its true owner with no back-off sleep on
// the way. It returns the client for its router's counters.
func (v *staleView) put(hr []fixedHash) *dht.Client {
	t := v.t
	cl := dht.NewClient(v.issuer, "ringtest")
	val := core.Value{Data: []byte("v"), TS: core.TS(1)}
	stored := 0
	v.do(func() {
		for _, h := range hr {
			start := v.k.Now()
			ok, err := cl.PutHStored(context.Background(), "k", h, val, dht.PutIfNewer)
			if err != nil {
				t.Fatalf("puth via %s: %v", h.Name(), err)
			}
			if ok {
				stored++
			}
			v.noBackoff("puth via "+h.Name(), start)
		}
	})
	if stored != len(hr) {
		t.Fatalf("Stored = %d, want |Hr| = %d", stored, len(hr))
	}
	for _, h := range hr {
		own := v.truth(h.id)
		if _, ok := own.Store().Get(h.id, dht.Qualifier("ringtest", "k", h.Name())); !ok {
			t.Errorf("replica %s did not land on its owner %s", h.Name(), own.Self().ID)
		}
	}
	return cl
}

// noBackoff fails the test when what ran since start slept a back-off.
// A timed-out call costs exactly rpcTimeout of virtual time and the
// round trips around it a few milliseconds each, so what is left after
// whole timeouts is where a back-off sleep would show.
func (v *staleView) noBackoff(what string, start time.Duration) {
	if took := v.k.Now() - start; took%rpcTimeout >= clientBackoff {
		v.t.Errorf("%s took %v: %v beyond whole timeouts, a back-off was slept", what, took, took%rpcTimeout)
	}
}

// testStaleGuessFallsBack freezes what one node knows across a
// membership event, then issues a replicated put from it. The frozen
// node still names the old owner — from its routing state, or from an
// arc a lookup of its own proved before the event, whichever src asks
// for; that peer's own responsibility check (or its silence, after a
// crash) must send the operation to the authoritative lookup at once,
// and every replica must land on its true owner — with no back-off
// sleep on the way. A peer named from a learned arc is given up after
// its first miss: two replicas aimed at the same stale arc cost one
// wasted round trip, and nothing learned names that peer for a position
// it does not own afterwards.
func testStaleGuessFallsBack(t *testing.T, f Factory, event string, src dht.GuessSource) {
	v := newStaleView(t, f, event, src, "stale-"+event)
	issuer, named := v.issuer, v.named
	var hr []fixedHash
	for _, id := range v.stalePositions(2) {
		hr = append(hr, fixedHash{id, fmt.Sprintf("h%d", len(hr))})
	}
	// One put replicated under |Hr| = 3 functions, the first two aimed
	// at the stale arc, each on a position the issuer does not claim.
	for len(hr) < 3 {
		id := core.ID(v.rng.Uint64())
		if g, _ := issuer.Guess(id); v.truth(id) != nil && !issuer.OwnsID(id) && g.ID != named.Self().ID {
			hr = append(hr, fixedHash{id, fmt.Sprintf("h%d", len(hr))})
		}
	}
	cl := v.put(hr)
	if _, misses := cl.Router().GuessStats(); misses == 0 {
		t.Errorf("the stale guess was never refused: no miss counted")
	}
	if src != dht.GuessLearned {
		return
	}
	if _, misses := cl.Router().LearnedStats(); misses != 1 {
		t.Errorf("learned misses = %d, want exactly 1: the first refusal gives %s up", misses, named.Self().ID)
	}
	for i := 0; i < 2000; i++ {
		id := core.ID(v.rng.Uint64())
		if g, ok := v.names(id); ok && g.ID == named.Self().ID && (!named.Alive() || !named.OwnsID(id)) {
			t.Fatalf("a learned arc still names %s for %s, which it does not own", g.ID, id)
		}
	}
}

// testLookupThroughStaleLearnedPeer is the routing side of the same
// event: the issuer's learned arcs are routing state too, so its lookups
// start by asking a peer they name. A learned peer is only ever asked
// next, never answered from, so Lookup still resolves the true owner —
// of positions the issuer's table names the event's peer for, and of
// the position just past that peer, whose walk asks it first — with no
// back-off sleep; a peer that left or crashed is dropped from the table
// at either end on the way. A put through the same issuer then stores
// |Hr| replicas on their true owners.
func testLookupThroughStaleLearnedPeer(t *testing.T, f Factory, event string) {
	v := newStaleView(t, f, event, dht.GuessLearned, "stale-lookup-"+event)
	named := v.named
	// The position just past the peer goes first: a lookup of a stale
	// position proves an arc that overlaps, and so replaces, the ones
	// naming the peer.
	ids := append([]core.ID{named.Self().ID + 1}, v.stalePositions(2)...)
	v.do(func() {
		for _, id := range ids {
			want := v.truth(id)
			if want == nil {
				t.Fatalf("no unique live owner of %s", id)
			}
			start := v.k.Now()
			got, _, err := v.issuer.Lookup(context.Background(), id)
			if err != nil {
				t.Fatalf("lookup %s: %v", id, err)
			}
			if got.ID != want.Self().ID {
				t.Errorf("lookup %s resolved %s, ground truth %s (the learned arc named %s)",
					id, got.ID, want.Self().ID, named.Self().ID)
			}
			v.noBackoff(fmt.Sprintf("lookup %s", id), start)
		}
	})
	if event != "join" {
		for i := 0; i < 2000; i++ {
			if g, ok := v.names(core.ID(v.rng.Uint64())); ok && g.ID == named.Self().ID {
				t.Fatalf("a learned arc still names %s, which is gone", g.ID)
			}
		}
	}
	var hr []fixedHash
	for _, id := range ids {
		hr = append(hr, fixedHash{id, fmt.Sprintf("h%d", len(hr))})
	}
	v.put(hr)
}

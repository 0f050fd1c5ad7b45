// Package ringtest is the cross-implementation conformance suite for
// dht.RingNode substrates. Any ring — chord's O(log n) finger routing,
// can's d-dimensional zones, onehop's full-table event propagation, or
// a future substrate — plugs in through a Factory and gets the same
// sweep: ownership correctness against ground truth, hop-count bounds,
// lookup liveness under churn, and post-heal re-merge via Nudge. The
// suite runs on the deterministic simulation kernel, so a failure
// replays bit-identically from its seed.
package ringtest

import (
	"context"
	"fmt"
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
	// LearnsArcs gates the learned-guess tests: true when Guess also
	// answers from arcs the node's own lookups proved (chord). Rings
	// whose Guess is live routing state only opt out.
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
	if f.LearnsArcs {
		t.Run("LearnedGuessAgreesWithLookup", func(t *testing.T) { testGuessAgreesWithLookup(t, f, dht.GuessLearned) })
		for _, ev := range []string{"join", "leave", "crash"} {
			t.Run("StaleLearnedArcFallsBack/"+ev, func(t *testing.T) { testStaleGuessFallsBack(t, f, ev, dht.GuessLearned) })
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
	const peers = 16
	c := newCluster(t, f, 606, peers)
	issuer := c.nodes[0]
	for _, n := range c.nodes[1:] {
		n.Start() // the issuer runs no maintenance: its view only ages
	}
	c.settle(time.Second)
	rng := c.k.NewRand("stale-" + event)
	if src == dht.GuessLearned {
		c.do(func() {
			for i := 0; i < 100; i++ {
				if _, _, err := issuer.Lookup(context.Background(), core.ID(rng.Uint64())); err != nil {
					t.Fatalf("warm lookup: %v", err)
				}
			}
		})
	}
	// names reports the peer the issuer guesses for id when that guess
	// rests on src.
	names := func(id core.ID) (dht.NodeRef, bool) {
		g, from := issuer.Guess(id)
		return g, from == src
	}
	// Pick where the event happens: at a peer the issuer can name — not
	// itself, so its knowledge is what goes stale, not its predecessor,
	// whose arc would fall to the cut-off issuer, and not the bootstrap
	// a joiner goes through.
	var named dht.RingNode
	for named == nil {
		g, ok := names(core.ID(rng.Uint64()))
		if ok && g.ID != issuer.Self().ID && !issuer.OwnsID(g.ID+1) && g.ID != c.nodes[1].Self().ID {
			named = c.byID(g.ID)
		}
	}

	// For a join: a joiner whose identity falls where the issuer names
	// `named`.
	var joiner dht.RingNode
	for event == "join" && joiner == nil {
		cand := c.newNode()
		if g, ok := names(cand.Self().ID); ok && g.ID == named.Self().ID {
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
	c.net.Partition([]network.Addr{issuer.Self().Addr}, rest)
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
			if err := named.Leave(); err != nil {
				t.Logf("leave: %v", err)
			}
		})
	case "crash":
		named.Crash()
		c.net.Kill(named.Self().Addr)
	}
	c.settle(5 * time.Second)
	c.net.Heal()

	// The live overlay's owner of id, excluding the issuer (cut off for
	// five seconds, the others have written it out of the ring).
	truth := func(id core.ID) dht.RingNode {
		var own dht.RingNode
		for _, n := range c.alive() {
			if n == issuer || !n.OwnsID(id) {
				continue
			}
			if own != nil {
				return nil
			}
			own = n
		}
		return own
	}
	// Find two positions whose guess went stale: the issuer names
	// `named`, which is no longer the owner.
	var hr []fixedHash
	for i := 0; i < 5000 && len(hr) < 2; i++ {
		id := core.ID(rng.Uint64())
		g, ok := names(id)
		if own := truth(id); ok && own != nil && g.ID == named.Self().ID && g.ID != own.Self().ID {
			hr = append(hr, fixedHash{id, fmt.Sprintf("h%d", len(hr))})
		}
	}
	if len(hr) < 2 {
		t.Fatalf("after the %s %s names %s for %d stale positions, want 2", event, issuer.Self().ID, named.Self().ID, len(hr))
	}

	// One put replicated under |Hr| = 3 functions, the first two aimed
	// at the stale arc, each on a position the issuer does not claim.
	for len(hr) < 3 {
		id := core.ID(rng.Uint64())
		if g, _ := issuer.Guess(id); truth(id) != nil && !issuer.OwnsID(id) && g.ID != named.Self().ID {
			hr = append(hr, fixedHash{id, fmt.Sprintf("h%d", len(hr))})
		}
	}
	cl := dht.NewClient(issuer, "ringtest")
	val := core.Value{Data: []byte("v"), TS: core.TS(1)}
	stored := 0
	c.do(func() {
		for _, h := range hr {
			start := c.k.Now()
			ok, err := cl.PutHStored(context.Background(), "k", h, val, dht.PutIfNewer)
			if err != nil {
				t.Fatalf("puth via %s: %v", h.Name(), err)
			}
			if ok {
				stored++
			}
			// A timed-out call costs exactly rpcTimeout of virtual time
			// and the round trips around it a few milliseconds each, so
			// what is left after whole timeouts is where a back-off
			// sleep would show.
			if rest := (c.k.Now() - start) % rpcTimeout; rest >= clientBackoff {
				t.Errorf("puth via %s took %v: %v beyond whole timeouts, a back-off was slept",
					h.Name(), c.k.Now()-start, rest)
			}
		}
	})
	if stored != len(hr) {
		t.Fatalf("Stored = %d, want |Hr| = %d", stored, len(hr))
	}
	for _, h := range hr {
		own := truth(h.id)
		if _, ok := own.Store().Get(h.id, dht.Qualifier("ringtest", "k", h.Name())); !ok {
			t.Errorf("replica %s did not land on its owner %s", h.Name(), own.Self().ID)
		}
	}
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
		id := core.ID(rng.Uint64())
		if g, ok := names(id); ok && g.ID == named.Self().ID && (!named.Alive() || !named.OwnsID(id)) {
			t.Fatalf("a learned arc still names %s for %s, which it does not own", g.ID, id)
		}
	}
}

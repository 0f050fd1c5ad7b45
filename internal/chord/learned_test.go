package chord

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
)

func ref(id core.ID) dht.NodeRef {
	return dht.NodeRef{ID: id, Addr: network.Addr(fmt.Sprintf("n%d", id))}
}

// TestLearnedArcsTable pins the table's three rules: an arc answers for
// exactly (from, owner], a newer proof replaces whatever it overlaps
// (wrap-around included), and at capacity the least recently used arc
// goes.
func TestLearnedArcsTable(t *testing.T) {
	var tab learnedArcs
	tab.learn(ref(10), ref(20))
	tab.learn(ref(20), ref(30))
	for id, want := range map[core.ID]core.ID{11: 20, 20: 20, 21: 30, 30: 30} {
		if got, ok := tab.find(id); !ok || got.ID != want {
			t.Errorf("find(%d) = %v, %v, want %d", id, got, ok, want)
		}
	}
	for _, id := range []core.ID{10, 31, 5} {
		if got, ok := tab.find(id); ok {
			t.Errorf("find(%d) = %v, want nothing: no arc covers it", id, got)
		}
	}

	// A joiner at 15 splits (10, 20]: the proof of its arc kills the old
	// one, and the rest of the old arc must be proved again.
	tab.learn(ref(10), ref(15))
	if got, ok := tab.find(12); !ok || got.ID != 15 {
		t.Errorf("after the split find(12) = %v, %v, want 15", got, ok)
	}
	if got, ok := tab.find(18); ok {
		t.Errorf("after the split find(18) = %v, want nothing", got)
	}
	// 20 left: (15, 30] → 30 covers the arc still recorded for 30.
	tab.learn(ref(15), ref(30))
	if got, ok := tab.find(25); !ok || got.ID != 30 || len(tab.arcs) != 2 {
		t.Errorf("after the merge find(25) = %v, %v with %d arcs, want 30 with 2", got, ok, len(tab.arcs))
	}
	// An arc across zero overlaps by either end.
	tab.learn(ref(^core.ID(0)-5), ref(3))
	tab.learn(ref(1), ref(4))
	if got, ok := tab.find(^core.ID(0)); ok {
		t.Errorf("find(max) = %v, want nothing: (1, 4] replaced the wrapping arc", got)
	}

	tab.forget(30)
	if got, ok := tab.find(25); ok {
		t.Errorf("after forget(30) find(25) = %v, want nothing", got)
	}
	// forget matches either end: a peer that stopped answering is no
	// use as the start of an arc either, since routing would ask it.
	tab.learn(ref(40), ref(50))
	tab.learn(ref(50), ref(60))
	tab.learn(ref(60), ref(70))
	tab.forget(50)
	for id, want := range map[core.ID]bool{45: false, 55: false, 65: true} {
		if _, ok := tab.find(id); ok != want {
			t.Errorf("after forget(50) find(%d) found = %v, want %v", id, ok, want)
		}
	}

	tab = learnedArcs{}
	for i := 0; i < learnedCap; i++ {
		tab.learn(ref(core.ID(10*i)), ref(core.ID(10*i+5)))
	}
	tab.find(3) // arc 0 is now the most recently used; arc 1 the least
	tab.learn(ref(core.ID(10*learnedCap)), ref(core.ID(10*learnedCap+5)))
	if len(tab.arcs) != learnedCap {
		t.Fatalf("table holds %d arcs, capacity %d", len(tab.arcs), learnedCap)
	}
	if _, ok := tab.find(3); !ok {
		t.Error("the most recently used arc was evicted")
	}
	if _, ok := tab.find(13); ok {
		t.Error("the least recently used arc survived at capacity")
	}
}

// TestLookupTeachesGuess: every remote hop of a walk names its own arc,
// (pred, hop], and a walk that ends at a remote peer naming its
// successor also proves that arc, so an h-hop walk teaches up to h+1
// arcs, each answering Guess with its true owner. A walk answered at
// step zero teaches nothing and no walk teaches this node's own arc; a
// reported miss and a peer written out of the successor list both drop
// what was learned.
func TestLookupTeachesGuess(t *testing.T) {
	tr := newTestRing(t, 21)
	tr.build(14, false)
	for _, nd := range tr.nodes[1:] {
		nd.Start() // node0 runs no maintenance: only its lookups teach it
	}
	tr.settle(10 * time.Second)
	nd := tr.nodes[0]

	// A position nobody in nd's routing state accounts for.
	var far core.ID
	for id := core.ID(1); ; id += 0x0123456789abcdef {
		if _, src := nd.Guess(id); src == dht.NoGuess {
			far = id
			break
		}
	}
	if got := nd.LearnedArcs(); got != 0 {
		t.Fatalf("a node that looked nothing up holds %d learned arcs", got)
	}
	var owner dht.NodeRef
	var hops int
	tr.do(func() {
		var err error
		if owner, hops, err = nd.Lookup(context.Background(), far); err != nil {
			t.Fatalf("lookup: %v", err)
		}
	})
	if want := tr.wantResponsible(far).Self().ID; owner.ID != want {
		t.Fatalf("lookup resolved %s, want %s", owner.ID, want)
	}
	// On a converged ring every hop knows its predecessor and no two
	// arcs of one walk overlap: the bound is met exactly.
	if got := nd.LearnedArcs(); hops < 1 || got != hops+1 {
		t.Fatalf("%d learned arcs after a %d-hop walk, want %d", got, hops, hops+1)
	}
	if g, src := nd.Guess(far); src != dht.GuessLearned || g.ID != owner.ID {
		t.Fatalf("Guess(far) = %v, %q, want %s from a learned arc", g, src, owner.ID)
	}
	for _, a := range nd.learned.arcs {
		for _, id := range []core.ID{a.from.ID + 1, a.owner.ID} {
			want := tr.wantResponsible(id).Self().ID
			if g, src := nd.Guess(id); src == dht.NoGuess || g.ID != want {
				t.Errorf("Guess(%s) = %v, %q, want %s: arc (%s, %s] is closed at its end",
					id, g, src, want, a.from.ID, a.owner.ID)
			}
		}
	}

	// The successor's arc is answered at step zero: no hop, nothing
	// learned. The own arc is left to the live predecessor pointer: a
	// walk for it teaches its hops' arcs but never one this node owns.
	taught := nd.LearnedArcs()
	tr.do(func() {
		if _, h, _ := nd.Lookup(context.Background(), nd.Successor().ID); h != 0 {
			t.Errorf("lookup of the successor's id took %d hops, want 0", h)
		}
	})
	if got := nd.LearnedArcs(); got != taught {
		t.Errorf("%d learned arcs after a local walk, want still %d", got, taught)
	}
	tr.do(func() {
		if got, _, err := nd.Lookup(context.Background(), nd.Self().ID); err != nil || got.ID != nd.Self().ID {
			t.Errorf("lookup of the own id = %v, %v, want self", got, err)
		}
	})
	for _, a := range nd.learned.arcs {
		if a.owner.ID == nd.Self().ID {
			t.Errorf("learned arc (%s, %s] is this node's own", a.from.ID, a.owner.ID)
		}
	}

	nd.GuessMissed(owner)
	if g, src := nd.Guess(far); src != dht.NoGuess {
		t.Errorf("after the miss Guess(far) = %v, %q, want it declined", g, src)
	}

	// Maintenance writing a peer out of the successor list forgets it.
	succs := nd.SuccessorList()
	last := succs[len(succs)-1]
	nd.mu.Lock()
	nd.learned.learn(succs[len(succs)-2], last)
	nd.learned.learn(last, owner)
	nd.mu.Unlock()
	nd.setSuccessors(succs[:len(succs)-1])
	if names(nd, last.ID) {
		t.Errorf("a learned arc names %s, which the successor list dropped", last.ID)
	}
}

// names reports whether any learned arc of nd names peer at either end.
func names(nd *Node, peer core.ID) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for _, a := range nd.learned.arcs {
		if a.from.ID == peer || a.owner.ID == peer {
			return true
		}
	}
	return false
}

// hundreds builds a ring of twelve peers at 100, 200, ..., 1200 with
// exact routing state and no maintenance running, so every hop of a
// walk is known in advance. From 100 the fingers reach 200, 300, 400,
// 700 and 1200 and the successor list 200..700; from 700 they reach
// 800, 900 and 1000.
func hundreds(tr *testRing) []*Node {
	nodes := make([]*Node, 12)
	for i := range nodes {
		id := core.ID(100 * (i + 1))
		nodes[i] = New(tr.net.Env(), tr.net.NewEndpoint(fmt.Sprintf("h%d", id)), id, testCfg())
	}
	AssembleRing(nodes)
	tr.nodes = nodes
	return nodes
}

// TestLookupRoutesThroughLearnedPeers: a peer the issuer learned just
// before the target is asked first, so the walk takes one remote hop
// where fingers alone take two, and resolves the same owner as a
// same-seed twin with an empty table. An arc that has gone wrong is
// asked, never answered from: the walk ends on its start's own
// successor pointer.
func TestLookupRoutesThroughLearnedPeers(t *testing.T) {
	const target = core.ID(1050) // owned by 1100
	lookup := func(tr *testRing, issuer *Node, id core.ID) (ref dht.NodeRef, hops int) {
		t.Helper()
		tr.do(func() {
			var err error
			if ref, hops, err = issuer.Lookup(context.Background(), id); err != nil {
				t.Fatalf("lookup %s: %v", id, err)
			}
		})
		return ref, hops
	}

	twin := newTestRing(t, 31)
	plain, plainHops := lookup(twin, hundreds(twin)[0], target)
	if plain.ID != 1100 || plainHops != 2 {
		t.Fatalf("empty table: lookup resolved %s in %d hops, want 1100 in 2 (700, then 1000)", plain.ID, plainHops)
	}

	tr := newTestRing(t, 31)
	nodes := hundreds(tr)
	issuer := nodes[0]
	issuer.mu.Lock()
	issuer.learned.learn(nodes[8].Self(), nodes[9].Self()) // (900, 1000]
	issuer.mu.Unlock()
	got, hops := lookup(tr, issuer, target)
	if got != plain || hops != 1 {
		t.Errorf("learned (900, 1000]: lookup resolved %v in %d hops, want %v in 1", got, hops, plain)
	}

	// (800, 1000] → 1000 left out 900: the walk asks 800, whose own
	// successor names 900.
	issuer.mu.Lock()
	issuer.learned = learnedArcs{}
	issuer.learned.learn(nodes[7].Self(), nodes[9].Self())
	issuer.mu.Unlock()
	if got, _ := lookup(tr, issuer, 850); got.ID != 900 {
		t.Errorf("a wrong learned arc answered: lookup(850) = %s, want 900", got.ID)
	}
}

// TestDeadLearnedHopIsForgotten: a crashed peer the issuer knows only
// from a learned arc costs one RPC timeout. The lookup that meets it
// still resolves the true owner and drops the arc, so the next lookup
// does not ask the peer again. The issuer, 1100, looks up a position of
// its own arc: the retry ends on 900's successor pointer naming the
// issuer itself, which proves nothing new, so only forgetting can clear
// the dead peer out of the table.
func TestDeadLearnedHopIsForgotten(t *testing.T) {
	tr := newTestRing(t, 32)
	nodes := hundreds(tr)
	issuer, dead := nodes[10], nodes[9]
	for _, nd := range nodes {
		if nd != issuer {
			nd.Start() // the issuer's view only ages
		}
	}
	// Its fingers and successors reach 1200 and 100..500: it knows 1000
	// from the learned arc (900, 1000] alone.
	issuer.mu.Lock()
	issuer.learned.learn(nodes[8].Self(), dead.Self())
	issuer.mu.Unlock()
	dead.Crash()
	tr.net.Kill(dead.Self().Addr)
	tr.settle(5 * time.Second)

	const target = core.ID(1050)
	want := tr.wantResponsible(target).Self().ID
	timeout := testCfg().RPCTimeout
	for i, timeouts := range []time.Duration{1, 0} {
		tr.do(func() {
			start := tr.k.Now()
			ref, _, err := issuer.Lookup(context.Background(), target)
			if err != nil {
				t.Fatalf("lookup %d: %v", i, err)
			}
			if ref.ID != want {
				t.Errorf("lookup %d resolved %s, want %s", i, ref.ID, want)
			}
			if took := tr.k.Now() - start; took/timeout != timeouts {
				t.Errorf("lookup %d took %v, want %d whole RPC timeouts of %v", i, took, timeouts, timeout)
			}
		})
		if names(issuer, dead.Self().ID) {
			t.Fatalf("after lookup %d a learned arc still names the dead %s", i, dead.Self().ID)
		}
	}
}

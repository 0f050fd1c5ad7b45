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
	tab.learn(10, ref(20))
	tab.learn(20, ref(30))
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
	tab.learn(10, ref(15))
	if got, ok := tab.find(12); !ok || got.ID != 15 {
		t.Errorf("after the split find(12) = %v, %v, want 15", got, ok)
	}
	if got, ok := tab.find(18); ok {
		t.Errorf("after the split find(18) = %v, want nothing", got)
	}
	// 20 left: (15, 30] → 30 covers the arc still recorded for 30.
	tab.learn(15, ref(30))
	if got, ok := tab.find(25); !ok || got.ID != 30 || len(tab.arcs) != 2 {
		t.Errorf("after the merge find(25) = %v, %v with %d arcs, want 30 with 2", got, ok, len(tab.arcs))
	}
	// An arc across zero overlaps by either end.
	tab.learn(^core.ID(0)-5, ref(3))
	tab.learn(1, ref(4))
	if got, ok := tab.find(^core.ID(0)); ok {
		t.Errorf("find(max) = %v, want nothing: (1, 4] replaced the wrapping arc", got)
	}

	tab.forget(30)
	if got, ok := tab.find(25); ok {
		t.Errorf("after forget(30) find(25) = %v, want nothing", got)
	}

	tab = learnedArcs{}
	for i := 0; i < learnedCap; i++ {
		tab.learn(core.ID(10*i), ref(core.ID(10*i+5)))
	}
	tab.find(3) // arc 0 is now the most recently used; arc 1 the least
	tab.learn(core.ID(10*learnedCap), ref(core.ID(10*learnedCap+5)))
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

// TestLookupTeachesGuess: a walk that ends at a remote peer naming its
// successor leaves an arc Guess answers from; walks that end in this
// node's own routing state teach nothing; a reported miss and a peer
// written out of the successor list both drop what was learned.
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
	tr.do(func() {
		var err error
		if owner, _, err = nd.Lookup(context.Background(), far); err != nil {
			t.Fatalf("lookup: %v", err)
		}
		// Own arc and successor list: answered locally, nothing proved
		// by a remote peer.
		nd.Lookup(context.Background(), nd.Self().ID)
		nd.Lookup(context.Background(), nd.Successor().ID)
	})
	if want := tr.wantResponsible(far).Self().ID; owner.ID != want {
		t.Fatalf("lookup resolved %s, want %s", owner.ID, want)
	}
	if got := nd.LearnedArcs(); got != 1 {
		t.Fatalf("%d learned arcs after one remote resolution, want 1", got)
	}
	if g, src := nd.Guess(far); src != dht.GuessLearned || g.ID != owner.ID {
		t.Fatalf("Guess(far) = %v, %q, want %s from a learned arc", g, src, owner.ID)
	}
	if g, src := nd.Guess(owner.ID); src != dht.GuessLearned || g.ID != owner.ID {
		t.Errorf("Guess(owner's id) = %v, %q, want the owner: the arc is closed at its end", g, src)
	}

	nd.GuessMissed(owner)
	if g, src := nd.Guess(far); src != dht.NoGuess {
		t.Errorf("after the miss Guess(far) = %v, %q, want it declined", g, src)
	}

	// Maintenance writing a peer out of the successor list forgets it.
	succs := nd.SuccessorList()
	last := succs[len(succs)-1]
	nd.mu.Lock()
	nd.learned.learn(last.ID-1, last)
	nd.mu.Unlock()
	nd.setSuccessors(succs[:len(succs)-1])
	if got := nd.LearnedArcs(); got != 0 {
		t.Errorf("%d learned arcs name a peer the successor list dropped", got)
	}
}

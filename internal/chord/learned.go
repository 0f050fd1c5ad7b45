package chord

import (
	"repro/internal/core"
	"repro/internal/dht"
)

// learnedCap bounds a node's learned-arc table.
const learnedCap = 128

// learnedArc is one exact arc a lookup walk of this node's own proved,
// first-hand from the peer at one of its ends: either the peer at from
// answered "the responsible is my successor, owner" and the target lay
// in (from, owner.ID] by the issuer's own check, or the routing hop at
// owner named from as its predecessor.
type learnedArc struct {
	from, owner dht.NodeRef
}

func (a *learnedArc) covers(id core.ID) bool { return id.Between(a.from.ID, a.owner.ID) }

// learnedArcs remembers what this node's lookups proved so that Guess
// can name owners beyond the successor list and routing can ask a peer
// closer to the target than any finger. It is a hint table, never an
// authority: a lookup may ask either end of an arc next but never
// answers from one, and an operation sent to a learned owner is
// confirmed by that peer's own responsibility check like any other
// guess. The arcs are pairwise disjoint — a newer proof replaces
// whatever it overlaps — held in a slice ordered most recently used
// first and scanned in that order, so the table consumes no randomness
// and replays exactly. Guarded by the node's mutex.
type learnedArcs struct {
	arcs []learnedArc
}

// find names the owner of the arc covering id and marks it used.
func (t *learnedArcs) find(id core.ID) (dht.NodeRef, bool) {
	for i, a := range t.arcs {
		if a.covers(id) {
			copy(t.arcs[1:i+1], t.arcs[:i])
			t.arcs[0] = a
			return a.owner, true
		}
	}
	return dht.NodeRef{}, false
}

// learn records the arc (from.ID, owner.ID] → owner. Every arc it
// overlaps is older knowledge about the same positions and goes; at
// capacity the least recently used arc makes room.
func (t *learnedArcs) learn(from, owner dht.NodeRef) {
	fresh := learnedArc{from: from, owner: owner}
	// Two half-open ring arcs intersect exactly when one contains the
	// other's end point.
	t.drop(func(a *learnedArc) bool { return a.covers(owner.ID) || fresh.covers(a.owner.ID) })
	if len(t.arcs) < learnedCap {
		t.arcs = append(t.arcs, learnedArc{})
	}
	copy(t.arcs[1:], t.arcs) // at capacity the last arc falls off
	t.arcs[0] = fresh
}

// forget drops every arc naming peer at either end.
func (t *learnedArcs) forget(peer core.ID) {
	t.drop(func(a *learnedArc) bool { return a.from.ID == peer || a.owner.ID == peer })
}

func (t *learnedArcs) drop(gone func(*learnedArc) bool) {
	kept := t.arcs[:0]
	for i := range t.arcs {
		if !gone(&t.arcs[i]) {
			kept = append(kept, t.arcs[i])
		}
	}
	t.arcs = kept
}

// GuessMissed implements dht.GuessForgetter: the peer a guess named
// refused the operation or could not be reached, so nothing learned
// about it is worth a second wasted round trip.
func (n *Node) GuessMissed(ref dht.NodeRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.learned.forget(ref.ID)
}

// LearnedArcs reports how many learned arcs the node currently holds.
func (n *Node) LearnedArcs() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.learned.arcs)
}

package onehop

import (
	"context"
	"fmt"
	"sort"
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

// tableRing is six assembled one-hop nodes, sorted by ID, with no
// maintenance running: the table changes only through what a test sends
// it, and an endpoint of its own to send it from.
type tableRing struct {
	t      *testing.T
	k      *simnet.Kernel
	net    *simwire.Network
	nodes  []*Node
	sender network.Endpoint
}

func newTableRing(t *testing.T) *tableRing {
	k := simnet.New(1)
	t.Cleanup(k.Stop)
	net := simwire.New(k, simwire.Config{
		LatencyMS:      stats.Normal{Mean: 5, Variance: 0, Min: 5},
		BandwidthKbps:  stats.Normal{Mean: 1e6, Variance: 0, Min: 1e6},
		DefaultTimeout: 200 * time.Millisecond,
	})
	r := &tableRing{t: t, k: k, net: net, sender: net.NewEndpoint("sender")}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("table-%d", i)
		r.nodes = append(r.nodes, New(net.Env(), net.NewEndpoint(name), hashing.NodeID(name), Config{
			PingEvery:  500 * time.Millisecond,
			RPCTimeout: 200 * time.Millisecond,
		}))
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].Self().ID < r.nodes[j].Self().ID })
	AssembleRing(r.nodes)
	return r
}

// at returns the node i places clockwise of nodes[0], wrapping.
func (r *tableRing) at(i int) *Node { return r.nodes[(i+len(r.nodes))%len(r.nodes)] }

// do runs fn as a simulation activity to completion.
func (r *tableRing) do(fn func()) {
	r.t.Helper()
	done := false
	r.k.Go(func() {
		fn()
		done = true
	})
	r.k.Run(r.k.Now() + time.Minute)
	if !done {
		r.t.Fatal("simulated operation did not complete")
	}
}

// event delivers a membership event to n as a peer's broadcast would.
func (r *tableRing) event(n *Node, ev EventReq) {
	r.do(func() {
		if _, err := r.sender.Invoke(context.Background(), n.Self().Addr, methodEvent, ev, network.Call{}); err != nil {
			r.t.Fatalf("event: %v", err)
		}
	})
}

// TestHeldSinceFollowsTablePredecessor edits one node's table by each
// path that changes it — an event's insert or remove, a lookup's
// eviction of a peer it found dead, a caller's death observation — once
// for the table predecessor and once for another member. Only an edit
// that moves the predecessor, and with it the arc the node owns,
// restarts HeldSince; re-learning the predecessor's address does not.
func TestHeldSinceFollowsTablePredecessor(t *testing.T) {
	// The node under test is nodes[0]; its predecessor is at(-1), its
	// successor at(1).
	mid := func(a, b core.ID) core.ID { return a + (b-a)/2 }
	for _, c := range []struct {
		name  string
		moves bool
		edit  func(r *tableRing, n *Node)
	}{
		{"insert the predecessor", true, func(r *tableRing, n *Node) {
			r.event(n, EventReq{Joins: []dht.NodeRef{{ID: mid(r.at(-1).Self().ID, n.Self().ID), Addr: "newcomer"}}})
		}},
		{"insert a non-predecessor", false, func(r *tableRing, n *Node) {
			r.event(n, EventReq{Joins: []dht.NodeRef{{ID: mid(n.Self().ID, r.at(1).Self().ID), Addr: "newcomer"}}})
		}},
		{"re-address the predecessor", false, func(r *tableRing, n *Node) {
			r.event(n, EventReq{Joins: []dht.NodeRef{{ID: r.at(-1).Self().ID, Addr: "moved"}}})
		}},
		{"remove the predecessor", true, func(r *tableRing, n *Node) {
			r.event(n, EventReq{Leaves: []core.ID{r.at(-1).Self().ID}})
		}},
		{"remove a non-predecessor", false, func(r *tableRing, n *Node) {
			r.event(n, EventReq{Leaves: []core.ID{r.at(1).Self().ID}})
		}},
		{"evict the predecessor", true, func(r *tableRing, n *Node) {
			dead := r.at(-1)
			r.net.Kill(dead.Self().Addr)
			r.do(func() { n.Lookup(context.Background(), dead.Self().ID) })
		}},
		{"evict a non-predecessor", false, func(r *tableRing, n *Node) {
			dead := r.at(2)
			r.net.Kill(dead.Self().Addr)
			r.do(func() {
				if _, _, err := n.Lookup(context.Background(), dead.Self().ID); err != nil {
					r.t.Errorf("lookup past a dead member: %v", err)
				}
			})
		}},
		{"a caller saw the predecessor dead", true, func(r *tableRing, n *Node) {
			r.do(func() {
				r.sender.Invoke(context.Background(), n.Self().Addr, methodOwner,
					OwnerReq{Target: n.Self().ID, Exclude: []core.ID{r.at(-1).Self().ID}}, network.Call{})
			})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newTableRing(t)
			n := r.nodes[0]
			r.k.Run(time.Second)
			held, pred := n.HeldSince(), n.Predecessor().ID
			if held != 0 {
				t.Fatalf("HeldSince = %v on an overlay assembled at 0", held)
			}
			start := r.k.Now()
			c.edit(r, n)
			got, moved := n.HeldSince(), n.Predecessor().ID != pred
			if moved != c.moves {
				t.Fatalf("predecessor moved = %v, want %v", moved, c.moves)
			}
			switch {
			case c.moves && (got < start || got >= r.k.Now()):
				t.Errorf("HeldSince = %v, want the time of the edit, in [%v, %v)", got, start, r.k.Now())
			case !c.moves && got != held:
				t.Errorf("HeldSince moved from %v to %v, but the arc did not change", held, got)
			}
		})
	}
}

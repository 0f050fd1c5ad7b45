package chord

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
)

// TestAssembledFingersExact verifies the administrative ring constructor
// computes the textbook finger table: finger[i] = successor(self + 2^i).
func TestAssembledFingersExact(t *testing.T) {
	tr := newTestRing(t, 21)
	for i := 0; i < 24; i++ {
		tr.nodes = append(tr.nodes, tr.newNode(fmt.Sprintf("node%d", i)))
	}
	AssembleRing(tr.nodes)
	sorted := tr.aliveSorted()
	succOf := func(id core.ID) core.ID {
		for _, nd := range sorted {
			if nd.Self().ID >= id {
				return nd.Self().ID
			}
		}
		return sorted[0].Self().ID
	}
	for _, nd := range tr.nodes {
		nd.mu.Lock()
		for b := 0; b < M; b++ {
			target := nd.Self().ID + core.ID(uint64(1)<<uint(b))
			if got, want := nd.fingers[b].ID, succOf(target); got != want {
				nd.mu.Unlock()
				t.Fatalf("node %s finger[%d] = %s, want %s", nd.Self().ID, b, got, want)
			}
		}
		nd.mu.Unlock()
	}
}

// TestStabilizationConvergesWithoutHints disables the join-time
// SuccCandidate shortcut by linking a node with a deliberately stale
// successor and letting periodic stabilization repair it.
func TestStabilizationConvergesWithoutHints(t *testing.T) {
	tr := newTestRing(t, 22)
	tr.build(6, true)
	tr.settle(5 * time.Second)
	tr.checkRing()

	// Corrupt one node's successor pointer to a distant (but live) peer;
	// stabilize must walk it back to the true successor.
	sorted := tr.aliveSorted()
	victim := sorted[0]
	distant := sorted[3]
	victim.setSuccessors([]dht.NodeRef{distant.Self()})
	tr.settle(10 * time.Second)
	tr.checkRing()
}

// TestNoDataHandoffLeavesReplicasBehind verifies the paper's data model:
// with handoff disabled, a graceful leave hands over counters but NOT
// replicas, so the data becomes unavailable at that position.
func TestNoDataHandoffLeavesReplicasBehind(t *testing.T) {
	tr := newTestRing(t, 23)
	cfg := testCfg()
	cfg.NoDataHandoff = true
	first := tr.newNodeWith("node0", cfg)
	first.CreateRing()
	tr.nodes = append(tr.nodes, first)
	for i := 1; i < 8; i++ {
		nd := tr.newNodeWith(fmt.Sprintf("node%d", i), cfg)
		tr.do(func() {
			if err := nd.Join(first.Self().Addr); err != nil {
				t.Errorf("join: %v", err)
			}
		})
		tr.nodes = append(tr.nodes, nd)
	}
	for _, nd := range tr.nodes {
		nd.Start()
	}
	tr.settle(5 * time.Second)

	h := hashing.Salted{Salt: "h0"}
	client := dht.NewClient(tr.nodes[0], "test")
	keys := make([]core.Key, 30)
	tr.do(func() {
		for i := range keys {
			keys[i] = core.Key(fmt.Sprintf("nk-%d", i))
			val := core.Value{Data: []byte(keys[i]), TS: core.TS(1)}
			if err := client.PutH(context.Background(), keys[i], h, val, dht.PutOverwrite); err != nil {
				t.Errorf("put: %v", err)
			}
		}
	})

	leaver := tr.nodes[4]
	leaverOwned := 0
	for _, k := range keys {
		if leaver.OwnsID(h.ID(k)) {
			leaverOwned++
		}
	}
	if leaverOwned == 0 {
		t.Skip("leaver owned no test keys at this seed")
	}
	tr.do(func() {
		if err := leaver.Leave(); err != nil {
			t.Errorf("leave: %v", err)
		}
	})
	tr.net.Kill(leaver.Self().Addr)
	tr.settle(5 * time.Second)

	lost := 0
	tr.do(func() {
		for _, k := range keys {
			if _, err := client.GetH(context.Background(), k, h); err != nil {
				lost++
			}
		}
	})
	if lost != leaverOwned {
		t.Fatalf("lost %d replicas, leaver owned %d — paper model must not hand data over", lost, leaverOwned)
	}
}

// newNodeWith creates a node with an explicit config (helper for the
// NoDataHandoff tests).
func (tr *testRing) newNodeWith(name string, cfg Config) *Node {
	ep := tr.net.NewEndpoint(name)
	return New(tr.net.Env(), ep, hashing.NodeID(name), cfg)
}

// TestLookupFromEveryNode runs a lookup for one target from every peer;
// all must agree on the responsible.
func TestLookupFromEveryNode(t *testing.T) {
	tr := newTestRing(t, 24)
	tr.build(14, true)
	tr.settle(10 * time.Second)
	target := core.ID(0xdeadbeefcafef00d)
	want := tr.wantResponsible(target).Self().ID
	for _, nd := range tr.nodes {
		nd := nd
		tr.do(func() {
			ref, _, err := nd.Lookup(context.Background(), target)
			if err != nil {
				t.Errorf("lookup from %s: %v", nd.Self().ID, err)
				return
			}
			if ref.ID != want {
				t.Errorf("lookup from %s = %s, want %s", nd.Self().ID, ref.ID, want)
			}
		})
	}
}

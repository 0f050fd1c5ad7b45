package onehop

import (
	"time"

	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
)

// Join attaches this node to the overlay reachable through bootstrap:
// pull the bootstrap's table, ask the successor-to-be to cede our arc
// (replicas and service counters), then broadcast our arrival to every
// member we now know — the D1HT join event. After the broadcast drains,
// every steady member resolves our arc to us in one hop.
func (n *Node) Join(bootstrap network.Addr) error {
	ctx := context.Background()
	raw, err := n.call(ctx, bootstrap, methodTable, TableReq{})
	if err != nil {
		return fmt.Errorf("onehop: join via %s: %w", bootstrap, err)
	}
	n.mu.Lock()
	for _, ref := range raw.(TableResp).Table {
		n.insertLocked(ref)
	}
	skip := map[core.ID]bool{n.self.ID: true}
	succ, ok := n.successorOfLocked(n.self.ID, skip)
	n.mu.Unlock()
	if !ok {
		// Bootstrap knew nobody else; we and it are the ring now.
		n.broadcast(EventReq{From: n.self, Joins: []dht.NodeRef{n.self}})
		return nil
	}
	if succ.ID == n.self.ID {
		return fmt.Errorf("onehop: id collision on join: %w", core.ErrUnreachable)
	}
	raw, err = n.call(ctx, succ.Addr, methodJoin, JoinReq{NewNode: n.self})
	if err != nil {
		return fmt.Errorf("onehop: join transfer from %s: %w", succ.Addr, err)
	}
	tr := raw.(JoinResp)
	n.mu.Lock()
	for _, ref := range tr.Table {
		n.insertLocked(ref)
	}
	n.mu.Unlock()
	n.store.Absorb(tr.Items)
	n.acceptServices(tr.Services)
	n.broadcast(EventReq{From: n.self, Joins: []dht.NodeRef{n.self}})
	return nil
}

// handleJoin serves the successor side of a join: insert the joiner,
// cede its arc (everything in (old predecessor, joiner]), and teach it
// the membership.
func (n *Node) handleJoin(r JoinReq) JoinResp {
	joiner := r.NewNode
	n.mu.Lock()
	oldPred, hadPred := n.predecessorLocked()
	n.insertLocked(joiner)
	table := make([]dht.NodeRef, len(n.table))
	copy(table, n.table)
	n.mu.Unlock()

	ceded := func(id core.ID) bool {
		if !hadPred {
			return !id.Between(joiner.ID, n.self.ID)
		}
		return id.Between(oldPred.ID, joiner.ID)
	}
	var items []dht.Item
	if !n.cfg.NoDataHandoff {
		items = n.store.CollectIf(ceded, true)
	}
	services := n.collectServices(ceded)
	return JoinResp{Items: items, Services: services, Table: table}
}

// Leave departs gracefully: hand the whole arc — replicas and service
// state — to the successor, then broadcast the departure so every
// member drops us in one event. O(1) bulk transfer plus the O(n)
// event fan-out that is the price of one-hop lookups.
func (n *Node) Leave() error {
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		return core.ErrStopped
	}
	n.alive = false // stop accepting protocol traffic
	skip := map[core.ID]bool{n.self.ID: true}
	succ, hasSucc := n.successorOfLocked(n.self.ID+1, skip)
	table := make([]dht.NodeRef, len(n.table))
	copy(table, n.table)
	n.mu.Unlock()

	var firstErr error
	if hasSucc && succ.ID != n.self.ID {
		everything := func(core.ID) bool { return true }
		var items []dht.Item
		if !n.cfg.NoDataHandoff {
			items = n.store.CollectIf(everything, true)
		}
		services := n.collectServices(everything)
		req := BulkReq{From: n.self, Items: items, Services: services}
		if _, err := n.call(context.Background(), succ.Addr, methodBulk, req); err != nil {
			firstErr = fmt.Errorf("onehop: leave handoff to %s: %w", succ.Addr, err)
		}
	}
	// The departure broadcast must complete before Leave returns: a
	// departing process (the CLI's ephemeral client peer, a node
	// handling SIGTERM) exits right after, and fire-and-forget sends
	// die with it — leaving every table pointing at a dead member
	// until the crash detector gets around to it.
	ev := EventReq{From: n.self, Leaves: []core.ID{n.self.ID}}
	others := make([]dht.NodeRef, 0, len(table))
	for _, ref := range table {
		if ref.ID != n.self.ID {
			others = append(others, ref)
		}
	}
	n.env.Join(len(others), func(i int) {
		n.metrics.eventsSent.Inc()
		n.call(context.Background(), others[i].Addr, methodEvent, ev)
	})
	return firstErr
}

// Start launches the crash detector: a periodic liveness probe of the
// table predecessor. A dead predecessor is evicted and its departure
// broadcast, turning a silent crash into the same event a graceful
// leave produces — the receiver side needs no third code path.
// Probing only the predecessor keeps steady-state maintenance at one
// message per node per period while still guaranteeing every crash has
// exactly one detector (its successor).
func (n *Node) Start() {
	n.mu.Lock()
	if n.started || !n.alive {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()

	rng := n.env.Rand("onehop-ping:" + string(n.self.Addr))
	n.env.Go(func() {
		for n.Alive() {
			jitter := time.Duration(rng.Int63n(int64(n.cfg.PingEvery)/4 + 1))
			if err := n.env.Sleep(n.cfg.PingEvery + jitter); err != nil {
				return
			}
			if !n.Alive() {
				return
			}
			n.checkPredecessor()
		}
	})
}

// checkPredecessor probes the table predecessor and broadcasts its
// death on failure.
func (n *Node) checkPredecessor() {
	pred := n.Predecessor()
	if pred.IsZero() {
		return
	}
	if _, err := n.call(context.Background(), pred.Addr, methodPing, PingReq{}); err == nil {
		return
	}
	n.evict(pred.ID)
	n.broadcast(EventReq{From: n.self, Leaves: []core.ID{pred.ID}})
}

// Nudge re-introduces this node to the overlay reachable through
// bootstrap — the post-heal rendezvous. During a partition each side's
// event broadcasts only reach its own members, so the tables diverge
// into two self-consistent overlays; no periodic message ever crosses.
// Nudge pulls the bootstrap's table (learning the other side wholesale)
// and broadcasts its own arrival to the merged membership, so when
// every healed peer nudges, both sides converge to the global table.
func (n *Node) Nudge(bootstrap network.Addr) error {
	if !n.Alive() {
		return core.ErrStopped
	}
	raw, err := n.call(context.Background(), bootstrap, methodTable, TableReq{})
	if err != nil {
		return fmt.Errorf("onehop: nudge via %s: %w", bootstrap, err)
	}
	n.mu.Lock()
	for _, ref := range raw.(TableResp).Table {
		n.insertLocked(ref)
	}
	n.mu.Unlock()
	n.broadcast(EventReq{From: n.self, Joins: []dht.NodeRef{n.self}})
	return nil
}

// broadcast fans an event out to every table member except self, each
// send as its own activity so a dead receiver only costs its own
// timeout.
func (n *Node) broadcast(ev EventReq) {
	for _, ref := range n.Table() {
		if ref.ID == n.self.ID {
			continue
		}
		n.metrics.eventsSent.Inc()
		to := ref.Addr
		n.env.Go(func() {
			n.call(context.Background(), to, methodEvent, ev)
		})
	}
}

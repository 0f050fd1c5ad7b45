package onehop

import (
	"context"
	"fmt"
	"math/rand"

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
	table, err := network.Reply[TableResp](n.Call(ctx, bootstrap, methodTable, TableReq{}))
	if err != nil {
		return fmt.Errorf("onehop: join via %s: %w", bootstrap, err)
	}
	n.mu.Lock()
	for _, ref := range table.Table {
		n.insertLocked(ref)
	}
	skip := map[core.ID]bool{n.Self().ID: true}
	succ, ok := n.successorOfLocked(n.Self().ID, skip)
	n.mu.Unlock()
	if !ok {
		// Bootstrap knew nobody else; we and it are the ring now.
		n.broadcast(EventReq{From: n.Self(), Joins: []dht.NodeRef{n.Self()}})
		return nil
	}
	if succ.ID == n.Self().ID {
		return fmt.Errorf("onehop: id collision on join: %w", core.ErrUnreachable)
	}
	tr, err := network.Reply[JoinResp](n.Call(ctx, succ.Addr, methodJoin, JoinReq{NewNode: n.Self()}))
	if err != nil {
		return fmt.Errorf("onehop: join transfer from %s: %w", succ.Addr, err)
	}
	n.mu.Lock()
	for _, ref := range tr.Table {
		n.insertLocked(ref)
	}
	n.mu.Unlock()
	n.Absorb(tr.Items, tr.Services)
	n.broadcast(EventReq{From: n.Self(), Joins: []dht.NodeRef{n.Self()}})
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
			return !id.Between(joiner.ID, n.Self().ID)
		}
		return id.Between(oldPred.ID, joiner.ID)
	}
	items, services := n.Cede(ceded)
	return JoinResp{Items: items, Services: services, Table: table}
}

// Leave departs gracefully: hand the whole arc — replicas and service
// state — to the successor, then broadcast the departure so every
// member drops us in one event. O(1) bulk transfer plus the O(n)
// event fan-out that is the price of one-hop lookups.
func (n *Node) Leave() error {
	if !n.Stop() {
		return core.ErrStopped
	}
	n.mu.Lock()
	skip := map[core.ID]bool{n.Self().ID: true}
	succ, hasSucc := n.successorOfLocked(n.Self().ID+1, skip)
	table := make([]dht.NodeRef, len(n.table))
	copy(table, n.table)
	n.mu.Unlock()

	var firstErr error
	if hasSucc && succ.ID != n.Self().ID {
		items, services := n.Cede(func(core.ID) bool { return true })
		req := BulkReq{From: n.Self(), Items: items, Services: services}
		if _, err := n.Call(context.Background(), succ.Addr, methodBulk, req); err != nil {
			firstErr = fmt.Errorf("onehop: leave handoff to %s: %w", succ.Addr, err)
		}
	}
	// The departure broadcast must complete before Leave returns: a
	// departing process (the CLI's ephemeral client peer, a node
	// handling SIGTERM) exits right after, and fire-and-forget sends
	// die with it — leaving every table pointing at a dead member
	// until the crash detector gets around to it.
	ev := EventReq{From: n.Self(), Leaves: []core.ID{n.Self().ID}}
	others := make([]dht.NodeRef, 0, len(table))
	for _, ref := range table {
		if ref.ID != n.Self().ID {
			others = append(others, ref)
		}
	}
	n.Env().Join(len(others), func(i int) {
		n.Call(context.Background(), others[i].Addr, methodEvent, ev)
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
	if n.Starting() {
		dht.Every(n, "onehop-ping", n.cfg.PingEvery, func(*rand.Rand) { n.checkPredecessor() })
	}
}

// checkPredecessor probes the table predecessor and broadcasts its
// death on failure.
func (n *Node) checkPredecessor() {
	pred := n.Predecessor()
	if pred.IsZero() {
		return
	}
	if err := n.Ping(context.Background(), pred.Addr); err == nil {
		return
	}
	n.evict(pred.ID)
	n.broadcast(EventReq{From: n.Self(), Leaves: []core.ID{pred.ID}})
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
	table, err := network.Reply[TableResp](n.Call(context.Background(), bootstrap, methodTable, TableReq{}))
	if err != nil {
		return fmt.Errorf("onehop: nudge via %s: %w", bootstrap, err)
	}
	n.mu.Lock()
	for _, ref := range table.Table {
		n.insertLocked(ref)
	}
	n.mu.Unlock()
	n.broadcast(EventReq{From: n.Self(), Joins: []dht.NodeRef{n.Self()}})
	return nil
}

// broadcast fans an event out to every table member except self, each
// send as its own activity so a dead receiver only costs its own
// timeout.
func (n *Node) broadcast(ev EventReq) {
	for _, ref := range n.Table() {
		if ref.ID == n.Self().ID {
			continue
		}
		to := ref.Addr
		n.Env().Go(func() {
			n.Call(context.Background(), to, methodEvent, ev)
		})
	}
}

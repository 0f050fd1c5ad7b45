package onehop

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/store"
)

// Protocol method names.
const (
	methodOwner = "onehop.Owner"
	methodTable = "onehop.Table"
	methodJoin  = "onehop.Join"
	methodEvent = "onehop.Event"
	methodBulk  = "onehop.Bulk"
)

// OwnerReq probes a candidate owner: "do you own Target, and if not,
// who does your table say is closer?" Exclude lists peers the caller
// observed dead during this lookup; the receiver evicts them too, which
// is how death observations propagate ahead of the periodic detector.
type OwnerReq struct {
	Target  core.ID
	Exclude []core.ID
}

// OwnerResp answers a probe. When Owns is false, Better names the
// receiver's best candidate for Target (zero when it has none beyond
// the caller's exclusions).
type OwnerResp struct {
	Owns   bool
	Better dht.NodeRef
}

// TableReq asks for the receiver's full routing table.
type TableReq struct{}

// TableResp carries the table.
type TableResp struct {
	Table []dht.NodeRef
}

// WireSize charges the membership payload against the bandwidth model.
func (r TableResp) WireSize() int {
	return network.DefaultWireSize + len(r.Table)*16
}

// JoinReq is sent by a joiner to its successor-to-be: "I am your new
// predecessor; cede my arc and teach me the membership".
type JoinReq struct {
	NewNode dht.NodeRef
}

// JoinResp carries the ceded replicas and service state plus the
// receiver's routing table.
type JoinResp struct {
	Items    []store.Item
	Services map[string]network.Message
	Table    []dht.NodeRef
}

// WireSize charges the bulk payload against the bandwidth model.
func (r JoinResp) WireSize() int {
	n := network.DefaultWireSize + len(r.Table)*16
	for _, it := range r.Items {
		n += len(it.Qual) + len(it.Val.Data)
	}
	return n
}

// EventReq propagates membership changes — the D1HT event broadcast.
type EventReq struct {
	From   dht.NodeRef
	Joins  []dht.NodeRef
	Leaves []core.ID
}

// EventResp acknowledges an event.
type EventResp struct{}

// BulkReq pushes replicas and service state to the member taking over
// (graceful leaves).
type BulkReq struct {
	From     dht.NodeRef
	Items    []store.Item
	Services map[string]network.Message
}

// WireSize charges the bulk payload against the bandwidth model.
func (r BulkReq) WireSize() int {
	n := network.DefaultWireSize
	for _, it := range r.Items {
		n += len(it.Qual) + len(it.Val.Data)
	}
	return n
}

// BulkResp acknowledges a bulk push.
type BulkResp struct{}

func init() {
	network.RegisterMessage(OwnerReq{}, OwnerResp{}, TableReq{}, TableResp{},
		JoinReq{}, JoinResp{}, EventReq{}, EventResp{},
		BulkReq{}, BulkResp{})
}

func (n *Node) registerHandlers() {
	n.Handle(methodOwner, network.Typed(func(r OwnerReq) (network.Message, error) {
		// Honor the caller's death observations before answering: they
		// probed those peers moments ago, our periodic detector may be
		// half a period behind.
		n.mu.Lock()
		for _, id := range r.Exclude {
			n.removeLocked(id)
		}
		n.mu.Unlock()
		if n.OwnsID(r.Target) {
			return OwnerResp{Owns: true}, nil
		}
		skip := map[core.ID]bool{n.Self().ID: true}
		for _, id := range r.Exclude {
			skip[id] = true
		}
		n.mu.Lock()
		better, ok := n.successorOfLocked(r.Target, skip)
		n.mu.Unlock()
		if !ok {
			return OwnerResp{Owns: false}, nil
		}
		return OwnerResp{Owns: false, Better: better}, nil
	}))

	n.Handle(methodTable, network.Typed(func(TableReq) (network.Message, error) {
		return TableResp{Table: n.Table()}, nil
	}))

	n.Handle(methodJoin, network.Typed(func(r JoinReq) (network.Message, error) {
		return n.handleJoin(r), nil
	}))

	n.Handle(methodEvent, network.Typed(func(r EventReq) (network.Message, error) {
		n.mu.Lock()
		for _, ref := range r.Joins {
			n.insertLocked(ref)
		}
		for _, id := range r.Leaves {
			n.removeLocked(id)
		}
		n.mu.Unlock()
		return EventResp{}, nil
	}))

	n.Handle(methodBulk, network.Typed(func(r BulkReq) (network.Message, error) {
		n.Absorb(r.Items, r.Services)
		return BulkResp{}, nil
	}))
}

// Lookup implements dht.Ring. In steady state it costs exactly one
// remote probe: the table names the owner, the owner confirms. Under a
// stale table it degrades to a short forwarding chain — each probed
// non-owner answers with its own (fresher) candidate — and routes
// around dead peers by eviction, sharing the death observations with
// every subsequent probe. hops counts every remote probe made,
// including probes of peers that turned out dead or stale, so the
// lookup figure reports what the network actually carried.
func (n *Node) Lookup(ctx context.Context, id core.ID) (dht.NodeRef, int, error) {
	if !n.Alive() {
		return dht.NodeRef{}, 0, core.ErrStopped
	}
	n.metrics.lookups.Inc()
	if n.OwnsID(id) {
		return n.Self(), 0, nil
	}
	hops := 0
	// dead: probes that errored — evicted locally and shared on the
	// wire so receivers evict them too. skip: everything not worth
	// re-probing right now (self, the dead, and stale candidates that
	// answered "not mine" — alive, just not owners). A fresh death
	// observation clears the stale marks: a candidate that denied
	// ownership because its table still listed the dead node will own
	// once our Exclude makes it evict that node, so re-probing it is
	// productive, and each re-probe is paid for by a new death.
	dead := map[core.ID]bool{}
	skip := map[core.ID]bool{n.Self().ID: true}
	resetStale := func() {
		skip = map[core.ID]bool{n.Self().ID: true}
		for d := range dead {
			skip[d] = true
		}
	}
	nextCandidate := func() (dht.NodeRef, bool) {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.successorOfLocked(id, skip)
	}
	cand, ok := nextCandidate()
	if !ok {
		return dht.NodeRef{}, hops, fmt.Errorf("onehop: no candidate for %s: %w", id, core.ErrUnreachable)
	}
	for fwd := 0; fwd < maxForward; fwd++ {
		if err := network.CtxError(ctx); err != nil {
			return dht.NodeRef{}, hops, err
		}
		resp, err := network.Reply[OwnerResp](n.Call(ctx, cand.Addr, methodOwner,
			OwnerReq{Target: id, Exclude: dht.IDList(dead)}))
		hops++
		if err != nil {
			// Dead (or stopped) candidate: evict, remember, take our
			// next successor for the target.
			dead[cand.ID] = true
			n.evict(cand.ID)
			resetStale()
			next, ok := nextCandidate()
			if !ok {
				break
			}
			cand = next
			continue
		}
		if resp.Owns {
			// A multi-probe resolution means our table was stale; adopt
			// the owner so the next lookup is one hop again.
			if hops > 1 {
				n.mu.Lock()
				n.insertLocked(cand)
				n.mu.Unlock()
			}
			return cand, hops, nil
		}
		// Stale table: the candidate no longer owns the arc. Follow its
		// fresher view; it learned of the node that took over.
		n.metrics.staleFallbacks.Inc()
		skip[cand.ID] = true
		if resp.Better.IsZero() || skip[resp.Better.ID] {
			next, ok := nextCandidate()
			if !ok {
				break
			}
			cand = next
			continue
		}
		n.mu.Lock()
		n.insertLocked(resp.Better)
		n.mu.Unlock()
		cand = resp.Better
	}
	return dht.NodeRef{}, hops, fmt.Errorf("onehop: lookup %s exhausted forwarding: %w", id, core.ErrUnreachable)
}

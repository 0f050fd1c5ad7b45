package chord

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/obs"
)

// Lookup implements dht.Ring: it finds the peer responsible for target by
// iterative routing from this node, restarting with an exclusion set when
// it runs into dead peers. hops counts remote routing steps, so the
// communication cost of a lookup is 2*hops messages (request + reply per
// step), the paper's cret = O(log n). The context bounds the whole walk
// and carries the meter the hops are charged to.
func (n *Node) Lookup(ctx context.Context, target core.ID) (ref dht.NodeRef, hops int, err error) {
	if !n.Alive() {
		return dht.NodeRef{}, 0, fmt.Errorf("chord: lookup from dead node: %w", core.ErrStopped)
	}
	n.metrics.lookups.Inc()
	start := n.Env().Now()
	defer func() {
		// Routing time is charged to the surrounding operation's lookup
		// phase; the hop count feeds the per-node routing histogram.
		obs.PhasesFrom(ctx).Add(obs.PhaseLookup, n.Env().Now()-start)
		if err == nil {
			n.metrics.hops.ObserveValue(int64(hops))
		} else {
			n.metrics.lookupFails.Inc()
		}
	}()
	exclude := map[core.ID]bool{}
	var lastErr error
	for attempt := 0; attempt <= lookupRetries; attempt++ {
		if cerr := network.CtxError(ctx); cerr != nil {
			return dht.NodeRef{}, hops, fmt.Errorf("chord: lookup %s: %w", target, cerr)
		}
		r, h, lerr := n.lookupOnce(ctx, target, exclude)
		hops += h
		if lerr == nil {
			return r, hops, nil
		}
		lastErr = lerr
		if !errors.Is(lerr, core.ErrTimeout) && !errors.Is(lerr, core.ErrUnreachable) {
			break
		}
		// A peer died mid-lookup; it is now excluded — try again.
	}
	return dht.NodeRef{}, hops, fmt.Errorf("chord: lookup %s: %w", target, lastErr)
}

// lookupOnce performs one routing walk, learning the arc of every remote
// hop and the one its answer proves. Peers that time out are added to
// exclude so the retry routes around them.
func (n *Node) lookupOnce(ctx context.Context, target core.ID, exclude map[core.ID]bool) (dht.NodeRef, int, error) {
	cur := n.Self()
	hops := 0
	visited := map[core.ID]bool{}
	for step := 0; step < maxLookupSteps; step++ {
		var resp FindStepResp
		if cur.ID == n.Self().ID {
			resp = n.findStep(target, exclude)
		} else {
			if visited[cur.ID] {
				return dht.NodeRef{}, hops, fmt.Errorf("chord: routing loop at %s for %s: %w",
					cur.ID, target, core.ErrUnreachable)
			}
			visited[cur.ID] = true
			var err error
			resp, err = network.Reply[FindStepResp](n.Call(ctx, cur.Addr, methodFindStep,
				FindStepReq{Target: target, Exclude: dht.IDList(exclude)}))
			hops++
			if err != nil {
				// Dead peers are silence on the simulated transport
				// (timeout) and connection refusals on TCP (unreachable);
				// either way, route around them, and stop asking them on
				// the strength of anything learned.
				if dht.PeerDead(err) {
					exclude[cur.ID] = true
					n.mu.Lock()
					n.learned.forget(cur.ID)
					n.mu.Unlock()
					return dht.NodeRef{}, hops, fmt.Errorf("chord: peer %s dead during lookup: %w",
						cur.ID, core.ErrTimeout)
				}
				return dht.NodeRef{}, hops, err
			}
			// Every remote hop names its own arc, (Pred, cur].
			if !resp.Pred.IsZero() && resp.Pred.ID != cur.ID {
				n.mu.Lock()
				n.learned.learn(resp.Pred, cur)
				n.mu.Unlock()
			}
		}
		if resp.Done {
			// A remote peer naming its successor proves an exact arc
			// when the target lies inside it; the "converging ring"
			// answer (interval check failed) proves nothing. Arcs owned
			// by this node are left to its live predecessor pointer.
			next := resp.Next
			if cur.ID != n.Self().ID && next.ID != n.Self().ID && next.ID != cur.ID &&
				target.Between(cur.ID, next.ID) {
				n.mu.Lock()
				n.learned.learn(cur, next)
				n.mu.Unlock()
			}
			return next, hops, nil
		}
		if resp.Next.IsZero() || resp.Next.ID == cur.ID {
			return cur, hops, nil
		}
		cur = resp.Next
	}
	return dht.NodeRef{}, hops, fmt.Errorf("chord: lookup for %s exceeded %d steps: %w",
		target, maxLookupSteps, core.ErrUnreachable)
}

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
	start := n.env.Now()
	defer func() {
		// Routing time is charged to the surrounding operation's lookup
		// phase; the hop count feeds the per-node routing histogram.
		obs.PhasesFrom(ctx).Add(obs.PhaseLookup, n.env.Now()-start)
		if err == nil {
			n.metrics.hops.ObserveValue(int64(hops))
		} else {
			n.metrics.lookupFails.Inc()
		}
	}()
	exclude := map[core.ID]bool{}
	var lastErr error
	for attempt := 0; attempt <= n.cfg.LookupRetries; attempt++ {
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

// lookupOnce performs one routing walk. Peers that time out are added to
// exclude so the retry routes around them.
func (n *Node) lookupOnce(ctx context.Context, target core.ID, exclude map[core.ID]bool) (dht.NodeRef, int, error) {
	cur := n.self
	hops := 0
	visited := map[core.ID]bool{}
	for step := 0; step < n.cfg.MaxLookupSteps; step++ {
		var resp FindStepResp
		if cur.ID == n.self.ID {
			resp = n.findStep(target, exclude)
		} else {
			if visited[cur.ID] {
				return dht.NodeRef{}, hops, fmt.Errorf("chord: routing loop at %s for %s: %w",
					cur.ID, target, core.ErrUnreachable)
			}
			visited[cur.ID] = true
			raw, err := n.call(ctx, cur.Addr, methodFindStep,
				FindStepReq{Target: target, Exclude: setToList(exclude)})
			hops++
			if err != nil {
				// Dead peers are silence on the simulated transport
				// (timeout) and connection refusals on TCP (unreachable);
				// either way, route around them.
				if errors.Is(err, core.ErrTimeout) || errors.Is(err, core.ErrStopped) ||
					errors.Is(err, core.ErrUnreachable) {
					exclude[cur.ID] = true
					return dht.NodeRef{}, hops, fmt.Errorf("chord: peer %s dead during lookup: %w",
						cur.ID, core.ErrTimeout)
				}
				return dht.NodeRef{}, hops, err
			}
			resp = raw.(FindStepResp)
		}
		if resp.Done {
			// A remote peer naming its successor proves an exact arc
			// when the target lies inside it; the "converging ring"
			// answer (interval check failed) proves nothing. Arcs owned
			// by this node are left to its live predecessor pointer.
			next := resp.Next
			if cur.ID != n.self.ID && next.ID != n.self.ID && next.ID != cur.ID &&
				target.Between(cur.ID, next.ID) {
				n.mu.Lock()
				n.learned.learn(cur.ID, next)
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
		target, n.cfg.MaxLookupSteps, core.ErrUnreachable)
}

func setToList(m map[core.ID]bool) []core.ID {
	if len(m) == 0 {
		return nil
	}
	out := make([]core.ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	return out
}

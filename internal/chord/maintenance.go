package chord

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
)

// Join attaches this node to the ring reachable through bootstrap: it
// resolves its successor, pulls its arc (replicas and service counters —
// the direct algorithm's handoff), seeds its tables, and nudges its
// predecessor so the ring converges without waiting for stabilization.
func (n *Node) Join(bootstrap network.Addr) error {
	ctx := context.Background()
	// Resolve our successor through the bootstrap peer, restarting with
	// an exclusion set when the walk runs into dead peers — the same
	// route-around Lookup does. A join during churn (or a restarted node
	// rejoining its own crashed neighborhood) would otherwise be steered
	// into the same stale finger on every attempt.
	exclude := map[core.ID]bool{}
	var succ dht.NodeRef
	var err error
	for attempt := 0; ; attempt++ {
		succ, err = n.joinWalk(ctx, bootstrap, exclude)
		if err == nil {
			break
		}
		dead := errors.Is(err, core.ErrTimeout) || errors.Is(err, core.ErrStopped) ||
			errors.Is(err, core.ErrUnreachable)
		if !dead || attempt >= n.cfg.LookupRetries {
			return err
		}
	}
	if succ.ID == n.self.ID {
		// ID collision: with 64-bit hashed IDs this is effectively
		// impossible; treat as a failed join.
		return fmt.Errorf("chord: id collision on join: %w", core.ErrUnreachable)
	}

	// Pull our arc from the successor (replicas + service state).
	raw, err := n.call(ctx, succ.Addr, methodTransfer, TransferReq{NewNode: n.self})
	if err != nil {
		return fmt.Errorf("chord: join transfer from %s: %w", succ.Addr, err)
	}
	tr := raw.(TransferResp)

	n.mu.Lock()
	n.pred = tr.Pred
	n.setSuccessorsLocked(tr.Succs)
	for i, f := range tr.Fingers {
		if i < M {
			n.fingers[i] = f
		}
	}
	n.mu.Unlock()
	n.store.Absorb(tr.Items)
	n.acceptServices(tr.Services)

	// Tell our predecessor we are its successor candidate so inserts
	// routed through it reach us immediately.
	if !tr.Pred.IsZero() {
		n.env.Go(func() {
			n.call(context.Background(), tr.Pred.Addr, methodSuccCand, SuccCandidateReq{Candidate: n.self})
		})
	}
	return nil
}

// joinWalk routes one successor resolution for this node's own ID from
// the bootstrap, honoring exclude. A hop that times out is added to
// exclude so the caller's retry routes around it; a repeated hop means
// the walk is cycling through stale state and aborts.
func (n *Node) joinWalk(ctx context.Context, bootstrap network.Addr, exclude map[core.ID]bool) (dht.NodeRef, error) {
	raw, err := n.call(ctx, bootstrap, methodFindStep,
		FindStepReq{Target: n.self.ID, Exclude: setToList(exclude)})
	if err != nil {
		return dht.NodeRef{}, fmt.Errorf("chord: join via %s: %w", bootstrap, err)
	}
	step := raw.(FindStepResp)
	cur := step.Next
	visited := map[core.ID]bool{}
	for !step.Done {
		if visited[cur.ID] {
			return dht.NodeRef{}, fmt.Errorf("chord: join routing loop at %s: %w", cur.ID, core.ErrUnreachable)
		}
		visited[cur.ID] = true
		raw, err = n.call(ctx, cur.Addr, methodFindStep,
			FindStepReq{Target: n.self.ID, Exclude: setToList(exclude)})
		if err != nil {
			if errors.Is(err, core.ErrTimeout) || errors.Is(err, core.ErrStopped) ||
				errors.Is(err, core.ErrUnreachable) {
				exclude[cur.ID] = true
			}
			return dht.NodeRef{}, fmt.Errorf("chord: join routing via %s: %w", cur.Addr, err)
		}
		step = raw.(FindStepResp)
		if step.Next.IsZero() || (!step.Done && step.Next.ID == cur.ID) {
			break
		}
		cur = step.Next
	}
	if step.Next.IsZero() {
		return dht.NodeRef{}, fmt.Errorf("chord: join found no successor: %w", core.ErrUnreachable)
	}
	return step.Next, nil
}

// Nudge re-introduces this node to the ring reachable through bootstrap
// — the rendezvous step after a network partition heals. During a split
// each side stabilizes into its own ring; once disjoint, no periodic
// message ever crosses them, so stabilization alone cannot re-merge
// (every deployed DHT needs an out-of-band rendezvous here). Nudge
// routes a lookup for this node's own successor position through the
// bootstrap's ring, adopts the result as a successor candidate when it
// sits closer than the current successor, and notifies it — with every
// healed peer nudged through the other side, each node learns its true
// global successor and stabilization converges the merged ring.
func (n *Node) Nudge(bootstrap network.Addr) error {
	if !n.Alive() {
		return core.ErrStopped
	}
	ctx := context.Background()
	target := n.self.ID + 1
	// Bounded, loop-guarded walk (like lookupOnce, but rooted at the
	// bootstrap, not at this node — routing must happen on the *other*
	// ring): post-heal routing state is exactly when stale fingers can
	// form cycles, so an unguarded walk could spin forever.
	raw, err := n.call(ctx, bootstrap, methodFindStep, FindStepReq{Target: target})
	if err != nil {
		return fmt.Errorf("chord: nudge via %s: %w", bootstrap, err)
	}
	step := raw.(FindStepResp)
	cur := step.Next
	visited := map[core.ID]bool{}
	for hop := 0; !step.Done && hop < n.cfg.MaxLookupSteps; hop++ {
		if visited[cur.ID] {
			break // routing loop mid-merge; cur is still a usable candidate
		}
		visited[cur.ID] = true
		raw, err = n.call(ctx, cur.Addr, methodFindStep, FindStepReq{Target: target})
		if err != nil {
			return fmt.Errorf("chord: nudge routing via %s: %w", cur.Addr, err)
		}
		step = raw.(FindStepResp)
		if step.Next.IsZero() || (!step.Done && step.Next.ID == cur.ID) {
			break
		}
		cur = step.Next
	}
	cand := step.Next
	if cand.IsZero() || cand.ID == n.self.ID {
		return nil
	}
	n.mu.Lock()
	if len(n.succs) > 0 && cand.ID.InOpenInterval(n.self.ID, n.succs[0].ID) {
		n.setSuccessorsLocked(append([]dht.NodeRef{cand}, n.succs...))
	}
	n.mu.Unlock()
	// Tell the candidate about us either way: if we sit between it and
	// its predecessor it adopts us, which is how the other ring learns
	// this side exists.
	_, err = n.call(ctx, cand.Addr, methodNotify, NotifyReq{Candidate: n.self})
	return err
}

// Leave departs gracefully (§4.2.1's "normal" departure): the node hands
// its entire arc — replicas and KTS counters — to its successor in O(1)
// messages and tells its predecessor to splice it out. Afterwards the
// node is dead.
func (n *Node) Leave() error {
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		return core.ErrStopped
	}
	n.alive = false // stop accepting protocol traffic
	pred := n.pred
	succs := make([]dht.NodeRef, len(n.succs))
	copy(succs, n.succs)
	n.mu.Unlock()

	var firstErr error
	if len(succs) > 0 && succs[0].ID != n.self.ID {
		everything := func(core.ID) bool { return true }
		var items []dht.Item
		if !n.cfg.NoDataHandoff {
			items = n.store.CollectIf(everything, true)
		}
		services := n.collectServices(everything)
		req := AbsorbReq{From: n.self, Items: items, Services: services, Departing: true, NewPred: pred}
		if _, err := n.call(context.Background(), succs[0].Addr, methodAbsorb, req); err != nil {
			firstErr = fmt.Errorf("chord: leave handoff to %s: %w", succs[0].Addr, err)
		}
	}
	if !pred.IsZero() && pred.ID != n.self.ID {
		req := PredLeavingReq{Departing: n.self, Replacements: succs}
		if _, err := n.call(context.Background(), pred.Addr, methodPredGone, req); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("chord: leave notice to %s: %w", pred.Addr, err)
		}
	}
	return firstErr
}

// Start launches the periodic maintenance tasks: stabilize (successor
// repair + notify), finger repair, and predecessor liveness checks. Each
// node jitters its period so rounds do not synchronize.
func (n *Node) Start() {
	n.mu.Lock()
	if n.started || !n.alive {
		n.mu.Unlock()
		return
	}
	n.started = true
	n.mu.Unlock()

	// Each task derives its own jitter stream: on the real deployment the
	// three loops run as concurrent goroutines, and a shared rand.Rand is
	// not synchronized.
	task := func(label string, period time.Duration, run func()) {
		rng := n.env.Rand("chord-" + label + ":" + string(n.self.Addr))
		n.env.Go(func() {
			for n.Alive() {
				jitter := time.Duration(rng.Int63n(int64(period)/4 + 1))
				if err := n.env.Sleep(period + jitter); err != nil {
					return
				}
				if !n.Alive() {
					return
				}
				run()
			}
		})
	}
	task("stabilize", n.cfg.StabilizeEvery, n.stabilize)
	task("fingers", n.cfg.FixFingersEvery, n.fixNextFinger)
	task("checkpred", n.cfg.CheckPredEvery, n.checkPredecessor)
}

// stabilize is Chord's core repair: find the first live successor, adopt
// its predecessor if closer, refresh the successor list and notify.
func (n *Node) stabilize() {
	n.metrics.stabilizeRounds.Inc()
	_, succs := n.snapshot()
	var succ dht.NodeRef
	var state StateResp
	found := false
	sawOther := false
	dead := map[core.ID]bool{}
	for _, s := range succs {
		if s.ID == n.self.ID {
			continue
		}
		sawOther = true
		raw, err := n.call(context.Background(), s.Addr, methodState, StateReq{})
		if err != nil {
			dead[s.ID] = true
			continue
		}
		succ = s
		state = raw.(StateResp)
		found = true
		break
	}
	if !found {
		if !sawOther {
			return // singleton ring, nothing to repair
		}
		// The whole successor list is unreachable; try to rejoin through
		// the finger table, verifying the candidate is actually alive.
		if ref, _, err := n.Lookup(context.Background(), n.self.ID+1); err == nil && ref.ID != n.self.ID {
			if _, err := n.call(context.Background(), ref.Addr, methodState, StateReq{}); err == nil {
				n.setSuccessors([]dht.NodeRef{ref})
				return
			}
		}
		// Nobody reachable: degrade to a singleton; future Notify and
		// SuccCandidate messages re-link us.
		n.setSuccessors([]dht.NodeRef{n.self})
		return
	}

	// Adopt succ's predecessor when it sits between us and succ.
	if !state.Pred.IsZero() && state.Pred.ID.InOpenInterval(n.self.ID, succ.ID) && !dead[state.Pred.ID] {
		if raw, err := n.call(context.Background(), state.Pred.Addr, methodState, StateReq{}); err == nil {
			succ = state.Pred
			state = raw.(StateResp)
		}
	}

	// Refresh the successor list: succ followed by its list.
	n.setSuccessors(append([]dht.NodeRef{succ}, state.Succs...))

	// Tell succ about us.
	n.env.Go(func() {
		n.call(context.Background(), succ.Addr, methodNotify, NotifyReq{Candidate: n.self})
	})
}

// fixNextFinger repairs one finger (round robin), the classic
// fix_fingers task.
func (n *Node) fixNextFinger() {
	n.mu.Lock()
	i := n.nextFix
	n.nextFix = (n.nextFix + 1) % M
	n.mu.Unlock()
	target := n.self.ID + core.ID(uint64(1)<<uint(i))
	ref, _, err := n.Lookup(context.Background(), target)
	if err != nil {
		n.metrics.fingerFixFails.Inc()
		return
	}
	n.mu.Lock()
	if old := n.fingers[i]; !old.IsZero() && old.ID != ref.ID {
		n.learned.forget(old.ID) // maintenance replaced the peer
	}
	n.fingers[i] = ref
	n.mu.Unlock()
}

// checkPredecessor clears a dead predecessor so Notify can install a new
// one (and so OwnsID degrades to "assume responsible" instead of pointing
// at a ghost).
func (n *Node) checkPredecessor() {
	pred, _ := n.snapshot()
	if pred.IsZero() || pred.ID == n.self.ID {
		return
	}
	if _, err := n.call(context.Background(), pred.Addr, methodPing, PingReq{}); err != nil {
		if errors.Is(err, core.ErrTimeout) || errors.Is(err, core.ErrStopped) || errors.Is(err, core.ErrUnreachable) {
			n.mu.Lock()
			if n.pred.ID == pred.ID {
				n.pred = dht.NodeRef{}
			}
			n.mu.Unlock()
		}
	}
}

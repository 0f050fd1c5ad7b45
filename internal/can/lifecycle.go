package can

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
)

// Join attaches this node: route to the owner of our point, ask it to
// split, adopt the ceded zone and state (replicas and KTS counters — the
// direct algorithm on CAN), then introduce ourselves to the
// neighborhood.
func (n *Node) Join(bootstrap network.Addr) error {
	target := PointOf(n.Self().ID)
	// Route from the bootstrap to the owner of our point.
	cur := dht.NodeRef{Addr: bootstrap}
	for step := 0; step < maxRouteSteps; step++ {
		resp, err := network.Reply[RouteStepResp](n.Call(context.Background(), cur.Addr, methodRouteStep, RouteStepReq{Target: target}))
		if err != nil {
			return fmt.Errorf("can: join routing via %s: %w", cur.Addr, err)
		}
		if resp.Done {
			cur = resp.Next
			break
		}
		if resp.Next.IsZero() || resp.Next.Addr == cur.Addr {
			return fmt.Errorf("can: join routing stuck at %s: %w", cur.Addr, core.ErrUnreachable)
		}
		cur = resp.Next
	}

	resp, err := network.Reply[SplitResp](n.Call(context.Background(), cur.Addr, methodSplit, SplitReq{NewNode: n.Self()}))
	if err != nil {
		return fmt.Errorf("can: join split at %s: %w", cur.Addr, err)
	}
	n.mu.Lock()
	n.zones = []Zone{resp.Zone}
	n.zonesChangedLocked()
	n.mu.Unlock()
	n.Absorb(resp.Items, resp.Services)
	for _, info := range resp.Neighbors {
		n.applyNeighborInfo(info)
	}
	n.broadcastUpdate()
	return nil
}

// Leave departs gracefully: the neighbor with the smallest total volume
// takes over our zones, replicas and counters (O(1) bulk messages —
// §4.2.1.1's point that the next responsible is a neighbor); everyone
// else learns who covers us now.
func (n *Node) Leave() error {
	if !n.Stop() {
		return core.ErrStopped
	}
	n.mu.Lock()
	zones := append([]Zone(nil), n.zones...)
	type cand struct {
		ref dht.NodeRef
		vol float64
	}
	var cands []cand
	var infos []NeighborInfo
	zonesByID := map[core.ID][]Zone{}
	for _, nb := range n.neighborsLocked() {
		v := 0.0
		for _, z := range nb.zones {
			v += z.Volume()
		}
		cands = append(cands, cand{ref: nb.ref, vol: v})
		infos = append(infos, NeighborInfo{Ref: nb.ref, Zones: append([]Zone(nil), nb.zones...)})
		zonesByID[nb.ref.ID] = append([]Zone(nil), nb.zones...)
	}
	n.mu.Unlock()
	if len(cands) == 0 {
		return nil // last node standing; the space dies with it
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].vol != cands[j].vol {
			return cands[i].vol < cands[j].vol
		}
		return cands[i].ref.ID < cands[j].ref.ID
	})
	takeover := cands[0].ref

	items, services := n.Cede(func(core.ID) bool { return true })
	req := TakeoverReq{From: n.Self(), Zones: zones, Items: items, Services: services, Neighbors: infos}
	var firstErr error
	if _, err := n.Call(context.Background(), takeover.Addr, methodTakeover, req); err != nil {
		firstErr = fmt.Errorf("can: leave takeover by %s: %w", takeover.Addr, err)
	}
	// Advertise the successor with its post-takeover zones (its own plus
	// ours), so the remaining neighbors adopt it instead of dropping it.
	succ := NeighborInfo{Ref: takeover, Zones: append(zonesByID[takeover.ID], zones...)}
	for _, c := range cands[1:] {
		if _, err := n.Call(context.Background(), c.ref.Addr, methodGone, GoneReq{Departed: n.Self(), Successor: succ}); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("can: leave notice to %s: %w", c.ref.Addr, err)
		}
	}
	return firstErr
}

// Start launches neighbor liveness probing. When a neighbor dies, the
// probing node adopts its zones if it is the designated takeover peer
// (smallest volume, then smallest ID, among the dead peer's abutting
// neighbors as locally known) — CAN's TAKEOVER protocol simplified to a
// deterministic rule.
func (n *Node) Start() {
	if n.Starting() {
		dht.Every(n, "can", n.cfg.PingEvery, func(*rand.Rand) { n.probeNeighbors() })
	}
}

// probeNeighbors runs one round over the neighbor set, in ID order so a
// replay of the same seed probes in the same sequence. Each probe is a
// zone Update exchange rather than a bare ping: liveness checking and
// view anti-entropy in one message. The exchange is what lets a node
// whose view decayed during compound churn recover — any neighbor that
// still knows it keeps re-introducing itself (and its current zones)
// every period, so stale attributions converge instead of persisting as
// routing black holes.
func (n *Node) probeNeighbors() {
	n.mu.Lock()
	info := NeighborInfo{Ref: n.Self(), Zones: append([]Zone(nil), n.zones...)}
	refs := n.neighborsLocked()
	n.mu.Unlock()
	for _, nb := range refs {
		resp, err := network.Reply[UpdateResp](n.Call(context.Background(), nb.ref.Addr, methodUpdate, UpdateReq{Info: info}))
		if err == nil {
			n.applyNeighborInfo(resp.Info)
			n.mu.Lock()
			if cur, ok := n.neighbors[nb.ref.ID]; ok {
				cur.strikes = 0
			}
			n.mu.Unlock()
			continue
		}
		n.mu.Lock()
		cur, ok := n.neighbors[nb.ref.ID]
		if ok {
			cur.strikes++
		}
		dead := ok && cur.strikes >= 2
		n.mu.Unlock()
		if dead {
			n.handleDeadNeighbor(nb)
		}
	}
}

// handleDeadNeighbor removes the dead peer and, if this node is the
// designated takeover peer, adopts the orphaned zones. The dead peer's
// store and counters are gone — the indirect algorithm will rebuild
// counters from replicas, exactly the failure path of §4.2.2.
//
// A detector that is NOT designated still attributes the dead zones to
// its view's designated peer: every ex-neighbor of the dead node probes
// it directly and runs this handler, and without the attribution the
// ones that do not abut the actual taker would be left with a black
// hole — greedy walks toward the orphaned region would bounce between
// live nodes that each believe somebody else is closer, a permanent
// routing loop. With it, every detector keeps a pointer covering the
// region; if its designee differs from the actual taker, the designee's
// own routing state carries the walk onward, and the taker's zone
// update corrects the view on the next broadcast.
func (n *Node) handleDeadNeighbor(dead *neighbor) {
	n.mu.Lock()
	delete(n.neighbors, dead.ref.ID)
	// Designated takeover: smallest (volume, ID) among the dead zone's
	// abutting peers in our local view, including ourselves.
	myVol := 0.0
	for _, z := range n.zones {
		myVol += z.Volume()
	}
	bestVol, bestID, bestRef := myVol, n.Self().ID, n.Self()
	for _, nb := range n.neighborsLocked() {
		abuts := false
		for _, dz := range dead.zones {
			for _, z := range nb.zones {
				if z.Abuts(dz) {
					abuts = true
				}
			}
		}
		if !abuts {
			continue
		}
		v := 0.0
		for _, z := range nb.zones {
			v += z.Volume()
		}
		if v < bestVol || (v == bestVol && nb.ref.ID < bestID) {
			bestVol, bestID, bestRef = v, nb.ref.ID, nb.ref
		}
	}
	mine := bestID == n.Self().ID
	if mine {
		n.zones = append(n.zones, dead.zones...)
		n.zonesChangedLocked()
	} else if nb, ok := n.neighbors[bestID]; ok {
		nb.zones = append(nb.zones, dead.zones...)
	} else {
		n.neighbors[bestID] = &neighbor{ref: bestRef, zones: append([]Zone(nil), dead.zones...)}
	}
	n.mu.Unlock()
	if mine {
		n.broadcastUpdate()
	}
}

// AssembleSpace wires fresh nodes into a valid partition
// administratively (tests and large simulations): nodes are inserted in
// ID order, each splitting the current owner of its point, then all
// neighbor tables are computed pairwise.
func AssembleSpace(nodes []*Node) {
	if len(nodes) == 0 {
		return
	}
	sorted := make([]*Node, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Self().ID < sorted[j].Self().ID })

	sorted[0].zones = []Zone{FullZone()}
	for _, nd := range sorted[1:] {
		p := PointOf(nd.Self().ID)
		// Find the owner and the zone containing p.
		var owner *Node
		zi := -1
	search:
		for _, cand := range sorted {
			for i, z := range cand.zones {
				if len(cand.zones) > 0 && z.Contains(p) {
					owner, zi = cand, i
					break search
				}
			}
		}
		if owner == nil {
			panic("can: assemble found no owner — zones do not tile the space")
		}
		lower, upper := owner.zones[zi].Split()
		joinerZone, keptZone := lower, upper
		if upper.Contains(p) {
			joinerZone, keptZone = upper, lower
		}
		owner.zones[zi] = keptZone
		nd.zones = []Zone{joinerZone}
	}

	// Pairwise neighbor computation.
	for _, a := range sorted {
		a.zonesChangedLocked()
		a.neighbors = make(map[core.ID]*neighbor)
	}
	for i, a := range sorted {
		for _, b := range sorted[i+1:] {
			if a.abutsLocked(b.zones) {
				a.neighbors[b.Self().ID] = &neighbor{ref: b.Self(), zones: append([]Zone(nil), b.zones...)}
				b.neighbors[a.Self().ID] = &neighbor{ref: a.Self(), zones: append([]Zone(nil), a.zones...)}
			}
		}
	}
}

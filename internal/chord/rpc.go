package chord

import (
	"context"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/store"
)

// Protocol method names.
const (
	methodState    = "chord.State"
	methodFindStep = "chord.FindStep"
	methodNotify   = "chord.Notify"
	methodSuccCand = "chord.SuccCandidate"
	methodTransfer = "chord.Transfer"
	methodAbsorb   = "chord.Absorb"
	methodPredGone = "chord.PredLeaving"
)

// StateReq asks a node for its view of the ring around itself.
type StateReq struct{}

// StateResp is the node's neighborhood snapshot.
type StateResp struct {
	Self  dht.NodeRef
	Pred  dht.NodeRef
	Succs []dht.NodeRef
}

// FindStepReq advances an iterative lookup by one step.
type FindStepReq struct {
	Target core.ID
	// Exclude lists peers the caller observed dead during this lookup.
	Exclude []core.ID
}

// FindStepResp either concludes the lookup (Done: Next is the
// responsible) or names the next node to ask. Pred is the answering
// peer's predecessor (zero when unknown), so the issuer learns the
// hop's own arc (Pred, hop] from every step.
type FindStepResp struct {
	Done bool
	Next dht.NodeRef
	Pred dht.NodeRef
}

// NotifyReq tells a node about a possible (closer) predecessor.
type NotifyReq struct{ Candidate dht.NodeRef }

// NotifyResp acknowledges a Notify.
type NotifyResp struct{}

// SuccCandidateReq tells a node about a possible (closer) successor;
// joiners send it to their predecessor-to-be so the ring converges
// without waiting a stabilization round.
type SuccCandidateReq struct{ Candidate dht.NodeRef }

// SuccCandidateResp acknowledges a SuccCandidate.
type SuccCandidateResp struct{}

// TransferReq is sent by a joiner to its successor-to-be: "I am your new
// predecessor; hand over my arc".
type TransferReq struct{ NewNode dht.NodeRef }

// TransferResp carries the ceded replicas and service state, plus ring
// bootstrap information for the joiner.
type TransferResp struct {
	Items    []store.Item
	Services map[string]network.Message
	// Pred is the joiner's predecessor (the responder's previous one).
	Pred dht.NodeRef
	// Succs seeds the joiner's successor list.
	Succs []dht.NodeRef
	// Fingers seeds the joiner's finger table; entries are validated on
	// use, so a stale copy only costs extra hops, never correctness.
	Fingers []dht.NodeRef
}

// WireSize charges the bulk payload against the bandwidth model.
func (r TransferResp) WireSize() int { return dht.BulkSize(r.Items) }

// AbsorbReq pushes replicas and service state to the node that is (or is
// becoming) responsible for them. It serves both graceful leaves and the
// opportunistic push when a node discovers a closer predecessor.
type AbsorbReq struct {
	From     dht.NodeRef
	Items    []store.Item
	Services map[string]network.Message
	// NewPred, when set with Departing, is the leaver's predecessor: the
	// receiver adopts it if the leaver was its predecessor.
	NewPred dht.NodeRef
	// Departing marks From as leaving the ring.
	Departing bool
}

// WireSize charges the bulk payload against the bandwidth model.
func (r AbsorbReq) WireSize() int { return dht.BulkSize(r.Items) }

// AbsorbResp acknowledges an Absorb.
type AbsorbResp struct{}

// PredLeavingReq tells a node its successor is departing and names the
// replacements (the leaver's successor list).
type PredLeavingReq struct {
	Departing    dht.NodeRef
	Replacements []dht.NodeRef
}

// PredLeavingResp acknowledges a PredLeaving.
type PredLeavingResp struct{}

func init() {
	network.RegisterMessage(
		StateReq{}, StateResp{},
		FindStepReq{}, FindStepResp{},
		NotifyReq{}, NotifyResp{},
		SuccCandidateReq{}, SuccCandidateResp{},
		TransferReq{}, TransferResp{},
		AbsorbReq{}, AbsorbResp{},
		PredLeavingReq{}, PredLeavingResp{},
	)
}

// registerHandlers wires the protocol onto the node's endpoint.
func (n *Node) registerHandlers() {
	n.Handle(methodState, network.Typed(func(StateReq) (network.Message, error) {
		pred, succs := n.snapshot()
		return StateResp{Self: n.Self(), Pred: pred, Succs: succs}, nil
	}))

	n.Handle(methodFindStep, network.Typed(func(r FindStepReq) (network.Message, error) {
		return n.findStep(r.Target, dht.IDSet(r.Exclude)), nil
	}))

	n.Handle(methodNotify, network.Typed(func(r NotifyReq) (network.Message, error) {
		n.notify(r.Candidate)
		return NotifyResp{}, nil
	}))

	n.Handle(methodSuccCand, network.Typed(func(r SuccCandidateReq) (network.Message, error) {
		cand := r.Candidate
		n.mu.Lock()
		if cand.ID.InOpenInterval(n.Self().ID, n.succs[0].ID) {
			n.setSuccessorsLocked(append([]dht.NodeRef{cand}, n.succs...))
		}
		n.mu.Unlock()
		return SuccCandidateResp{}, nil
	}))

	n.Handle(methodTransfer, network.Typed(func(r TransferReq) (network.Message, error) {
		return n.handleTransfer(r), nil
	}))

	n.Handle(methodAbsorb, network.Typed(func(r AbsorbReq) (network.Message, error) {
		n.handleAbsorb(r)
		return AbsorbResp{}, nil
	}))

	n.Handle(methodPredGone, network.Typed(func(r PredLeavingReq) (network.Message, error) {
		n.mu.Lock()
		// Splice the departing successor out, falling back to its own
		// successor list.
		merged := make([]dht.NodeRef, 0, len(n.succs)+len(r.Replacements))
		for _, s := range n.succs {
			if s.ID == r.Departing.ID {
				merged = append(merged, r.Replacements...)
			} else {
				merged = append(merged, s)
			}
		}
		n.setSuccessorsLocked(merged)
		n.mu.Unlock()
		return PredLeavingResp{}, nil
	}))
}

// findStep implements one iterative lookup step (also used locally for
// step zero, costing no message).
func (n *Node) findStep(target core.ID, exclude map[core.ID]bool) FindStepResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	// First successor the caller still believes alive.
	succ := n.Self()
	for _, s := range n.succs {
		if !exclude[s.ID] {
			succ = s
			break
		}
	}
	if target.Between(n.Self().ID, succ.ID) {
		return FindStepResp{Done: true, Next: succ, Pred: n.pred}
	}
	next := n.closestPrecedingLocked(target, exclude)
	if next.ID == n.Self().ID {
		// Nothing better than ourselves: the successor is our best
		// answer even though the interval check failed (converging ring).
		return FindStepResp{Done: true, Next: succ, Pred: n.pred}
	}
	return FindStepResp{Next: next, Pred: n.pred}
}

// closestPrecedingLocked scans fingers (highest first), the successor
// list and both ends of every learned arc for the closest peer strictly
// preceding target. A learned peer is only ever asked next: the walk
// still ends on some peer's own successor pointer.
func (n *Node) closestPrecedingLocked(target core.ID, exclude map[core.ID]bool) dht.NodeRef {
	self := n.Self()
	best := self
	consider := func(r dht.NodeRef) {
		if r.IsZero() || exclude[r.ID] || r.ID == self.ID {
			return
		}
		if !r.ID.InOpenInterval(self.ID, target) {
			return
		}
		// Closest = the one whose ID is farthest along toward target,
		// i.e. best so far precedes it.
		if best.ID == self.ID || r.ID.InOpenInterval(best.ID, target) {
			best = r
		}
	}
	for i := M - 1; i >= 0; i-- {
		consider(n.fingers[i])
	}
	for _, s := range n.succs {
		consider(s)
	}
	for i := range n.learned.arcs {
		consider(n.learned.arcs[i].from)
		consider(n.learned.arcs[i].owner)
	}
	return best
}

// notify handles "candidate might be your predecessor". When the
// predecessor moves closer, this node has ceded the arc
// (oldPred, candidate] — it pushes any state it still holds for that arc
// to the new responsible (the RLA behaviour of §4.3, and the direct
// counter handoff when the transfer path was missed).
func (n *Node) notify(candidate dht.NodeRef) {
	n.mu.Lock()
	if candidate.ID == n.Self().ID {
		n.mu.Unlock()
		return
	}
	adopt := n.pred.IsZero() || candidate.ID.InOpenInterval(n.pred.ID, n.Self().ID)
	if !adopt {
		n.mu.Unlock()
		return
	}
	oldPred := n.pred
	n.setPredLocked(candidate)
	n.mu.Unlock()

	ceded := func(id core.ID) bool {
		if oldPred.IsZero() {
			return !id.Between(candidate.ID, n.Self().ID)
		}
		return id.Between(oldPred.ID, candidate.ID)
	}
	n.pushState(candidate, ceded, false, dht.NodeRef{})
}

// handleTransfer serves a joiner pulling its arc: adopt it as
// predecessor, cede replicas and service state, and seed its tables.
func (n *Node) handleTransfer(req TransferReq) TransferResp {
	n.mu.Lock()
	oldPred := n.pred
	joiner := req.NewNode
	// Adopt the joiner as predecessor if it is closer (or we had none).
	if n.pred.IsZero() || joiner.ID.InOpenInterval(n.pred.ID, n.Self().ID) {
		n.setPredLocked(joiner)
	}
	// Snapshot the list for the joiner before considering the joiner
	// itself as a successor candidate (a node must not be seeded with
	// itself as its own backup successor).
	succs := make([]dht.NodeRef, len(n.succs))
	copy(succs, n.succs)
	// A joiner is also a successor candidate: essential when this node
	// still believes it is its own successor (ring bootstrap).
	if n.succs[0].ID == n.Self().ID || joiner.ID.InOpenInterval(n.Self().ID, n.succs[0].ID) {
		n.setSuccessorsLocked(append([]dht.NodeRef{joiner}, n.succs...))
	}
	fingers := make([]dht.NodeRef, M)
	copy(fingers, n.fingers[:])
	n.mu.Unlock()

	ceded := func(id core.ID) bool {
		if oldPred.IsZero() {
			return !id.Between(joiner.ID, n.Self().ID)
		}
		return id.Between(oldPred.ID, joiner.ID)
	}
	items, services := n.Cede(ceded)
	return TransferResp{
		Items:    items,
		Services: services,
		Pred:     oldPred,
		Succs:    append([]dht.NodeRef{n.Self()}, succs...),
		Fingers:  fingers,
	}
}

// handleAbsorb installs pushed state; on a departure it also repairs the
// predecessor pointer.
func (n *Node) handleAbsorb(req AbsorbReq) {
	n.Absorb(req.Items, req.Services)
	if req.Departing {
		n.mu.Lock()
		if !n.pred.IsZero() && n.pred.ID == req.From.ID {
			n.setPredLocked(req.NewPred)
		}
		// Drop the leaver from the successor list if present.
		var keep []dht.NodeRef
		for _, s := range n.succs {
			if s.ID != req.From.ID {
				keep = append(keep, s)
			}
		}
		n.setSuccessorsLocked(keep)
		n.mu.Unlock()
	}
}

// pushState asynchronously sends replicas and service state for a ceded
// arc to its new responsible.
func (n *Node) pushState(to dht.NodeRef, ceded func(core.ID) bool, departing bool, newPred dht.NodeRef) {
	items, services := n.Cede(ceded)
	if len(items) == 0 && len(services) == 0 && !departing {
		return
	}
	req := AbsorbReq{From: n.Self(), Items: items, Services: services, Departing: departing, NewPred: newPred}
	n.Env().Go(func() {
		// An unreachable new responsible loses the state exactly as if
		// this node had crashed; the indirect algorithm recovers counters.
		n.Call(context.Background(), to.Addr, methodAbsorb, req)
	})
}

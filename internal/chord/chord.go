// Package chord implements the Chord DHT (Stoica et al., SIGCOMM 2001),
// the substrate on which the paper implements UMS and KTS (§5.1):
// a 64-bit identifier ring with successor lists, finger tables, periodic
// stabilization, graceful leaves with key handoff, and crash failures
// detected by timeout.
//
// The implementation is deliberately faithful on the points the paper
// relies on:
//
//   - the next responsible for a key is always a neighbor of the current
//     responsible (§4.2.1.1), which makes the direct counter-transfer
//     algorithm O(1) messages;
//   - Chord is Responsibility-Loss Aware (§4.3): a peer detects that a
//     joiner took over part of its arc (Transfer/Notify) and hands over
//     stored replicas and service state (KTS counters) at that moment;
//   - crashed peers lose their store, so replica availability degrades
//     with the failure rate exactly as the paper's model assumes.
//
// Lookups are iterative and caller-driven so the querying peer observes
// every routing hop, which is how the evaluation counts communication
// cost.
package chord

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/obs"
)

// M is the identifier width in bits: the ring has 2^64 positions.
const M = 64

// Config tunes protocol behaviour. Zero fields take defaults.
type Config struct {
	// SuccessorListLen is the resilience of the ring under failures
	// (Chord keeps the r nearest successors). Default 8.
	SuccessorListLen int
	// StabilizeEvery is the period of the stabilize task. Default 30s.
	StabilizeEvery time.Duration
	// FixFingersEvery is the period of the finger-repair task (one
	// finger per tick, round robin). Default 45s.
	FixFingersEvery time.Duration
	// CheckPredEvery is the period of the predecessor liveness probe.
	// Default 30s.
	CheckPredEvery time.Duration
	// RPCTimeout bounds every protocol RPC; zero uses the transport
	// default (the failure-detection patience).
	RPCTimeout time.Duration
	// MemberConfig holds the handoff model, the store backing and the
	// metrics registry (lookup hop counts and failures, stabilize
	// rounds, finger-fix failures).
	dht.MemberConfig
}

func (c Config) withDefaults() Config {
	if c.SuccessorListLen == 0 {
		c.SuccessorListLen = 8
	}
	if c.StabilizeEvery == 0 {
		c.StabilizeEvery = 30 * time.Second
	}
	if c.FixFingersEvery == 0 {
		c.FixFingersEvery = 45 * time.Second
	}
	if c.CheckPredEvery == 0 {
		c.CheckPredEvery = 30 * time.Second
	}
	return c
}

const (
	// maxLookupSteps bounds one routing walk.
	maxLookupSteps = 3 * M
	// lookupRetries is how many times a lookup restarts from the local
	// node after hitting a dead peer (excluding it).
	lookupRetries = 3
)

// Node is one Chord peer.
type Node struct {
	*dht.Member
	cfg Config

	mu      sync.Mutex
	pred    dht.NodeRef   // zero when unknown
	held    time.Duration // Env time pred last changed (setPredLocked)
	succs   []dht.NodeRef
	fingers [M]dht.NodeRef
	nextFix int
	learned learnedArcs

	metrics chordMetrics
}

var (
	_ dht.RingNode       = (*Node)(nil)
	_ dht.GuessForgetter = (*Node)(nil)
)

// chordMetrics are the ring's routing/maintenance observables. They use
// only atomic counters and the locked histogram — never the clock or a
// random stream — so instrumentation cannot perturb a simulation replay.
type chordMetrics struct {
	hops            *obs.Histogram
	lookups         *obs.Counter
	lookupFails     *obs.Counter
	stabilizeRounds *obs.Counter
}

func newChordMetrics(r *obs.Registry) chordMetrics {
	return chordMetrics{
		hops: r.ValueHistogram("dcdht_chord_lookup_hops",
			"Remote routing steps per completed lookup."),
		lookups: r.Counter("dcdht_chord_lookups_total",
			"Lookups issued from this node."),
		lookupFails: r.Counter("dcdht_chord_lookup_failures_total",
			"Lookups that exhausted retries without resolving a responsible."),
		stabilizeRounds: r.Counter("dcdht_chord_stabilize_rounds_total",
			"Stabilize task rounds executed."),
	}
}

// New creates a node with the given identity on an endpoint. Call
// CreateRing or Join before Start.
func New(env network.Env, ep network.Endpoint, id core.ID, cfg Config) *Node {
	n := &Node{cfg: cfg.withDefaults(), metrics: newChordMetrics(cfg.Obs)}
	n.Member = dht.NewMember(env, ep, id, cfg.MemberConfig, cfg.RPCTimeout, n.OwnsID)
	n.succs = []dht.NodeRef{n.Self()}
	n.registerHandlers()
	cfg.Obs.GaugeFunc("dcdht_chord_learned_arcs",
		"Arcs proved by this node's own lookups that Guess can currently name.",
		func() float64 { return float64(n.LearnedArcs()) })
	return n
}

// Config returns the effective configuration.
func (n *Node) Config() Config { return n.cfg }

// OwnsID implements dht.Ring: the node is responsible for id iff id lies
// in (pred, self]. With no known predecessor the node assumes
// responsibility (single-node ring or still converging).
func (n *Node) OwnsID(id core.ID) bool {
	if !n.Alive() {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pred.IsZero() {
		return true
	}
	return id.Between(n.pred.ID, n.Self().ID)
}

// HeldSince implements dht.Ring: the arc (pred, self] is held since the
// predecessor last changed. With none known the node owns everything by
// default, which is nothing steady.
func (n *Node) HeldSince() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pred.IsZero() {
		return n.Env().Now()
	}
	return n.held
}

// setPredLocked installs p as the predecessor; every assignment goes
// through here so that one that moves the arc restarts HeldSince.
func (n *Node) setPredLocked(p dht.NodeRef) {
	if p.ID != n.pred.ID || p.IsZero() != n.pred.IsZero() {
		n.held = n.Env().Now()
	}
	n.pred = p
}

// Guess implements dht.Ring from the arcs whose both ends this node
// knows. Live routing state answers first: its own arc, (pred, self],
// when the predecessor is known, and the arc between each pair of
// consecutive successor-list entries, owned by the later one. Behind it
// come the arcs this node's own lookups proved (learnedArcs). Everything
// else — and everything while the predecessor is unknown, the list is
// empty and nothing was learned — is left to Lookup.
func (n *Node) Guess(id core.ID) (dht.NodeRef, dht.GuessSource) {
	if !n.Alive() {
		return dht.NodeRef{}, dht.NoGuess
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	self := n.Self()
	if !n.pred.IsZero() && id.Between(n.pred.ID, self.ID) {
		return self, dht.GuessRouting
	}
	prev := self
	for _, s := range n.succs {
		if s.ID == self.ID {
			break // the list wrapped around a ring smaller than itself
		}
		if id.Between(prev.ID, s.ID) {
			return s, dht.GuessRouting
		}
		prev = s
	}
	if ref, ok := n.learned.find(id); ok {
		return ref, dht.GuessLearned
	}
	return dht.NodeRef{}, dht.NoGuess
}

// Predecessor returns the current predecessor (zero if unknown).
func (n *Node) Predecessor() dht.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pred
}

// Successor returns the immediate successor.
func (n *Node) Successor() dht.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.succs[0]
}

// SuccessorList returns a copy of the successor list.
func (n *Node) SuccessorList() []dht.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]dht.NodeRef, len(n.succs))
	copy(out, n.succs)
	return out
}

// CreateRing initialises this node as the first of a new ring.
func (n *Node) CreateRing() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setPredLocked(dht.NodeRef{})
	n.succs = []dht.NodeRef{n.Self()}
}

// snapshot returns (pred, succs copy) under the lock.
func (n *Node) snapshot() (dht.NodeRef, []dht.NodeRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	succs := make([]dht.NodeRef, len(n.succs))
	copy(succs, n.succs)
	return n.pred, succs
}

// setSuccessors installs a new successor list, deduplicated and
// truncated to the configured length, never empty (falls back to self).
func (n *Node) setSuccessors(refs []dht.NodeRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setSuccessorsLocked(refs)
}

func (n *Node) setSuccessorsLocked(refs []dht.NodeRef) {
	old := n.succs
	seen := map[core.ID]bool{}
	out := make([]dht.NodeRef, 0, n.cfg.SuccessorListLen)
	for _, r := range refs {
		if r.IsZero() || seen[r.ID] {
			continue
		}
		seen[r.ID] = true
		out = append(out, r)
		if len(out) == n.cfg.SuccessorListLen {
			break
		}
	}
	if len(out) == 0 {
		out = append(out, n.Self())
	}
	n.succs = out
	// A peer maintenance wrote out of the list has left, died or been
	// displaced: what lookups proved about it is no longer worth trying.
	for _, s := range old {
		if !seen[s.ID] {
			n.learned.forget(s.ID)
		}
	}
}

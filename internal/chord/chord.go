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
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/store"
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
	// MaxLookupSteps bounds one routing walk. Default 3*M.
	MaxLookupSteps int
	// LookupRetries is how many times a lookup restarts from the local
	// node after hitting a dead peer (excluding it). Default 3.
	LookupRetries int
	// NoDataHandoff disables moving stored replicas on responsibility
	// changes (joins, graceful leaves). Service state (KTS counters)
	// still moves — that is the paper's direct algorithm. The paper's
	// DHT model (§2) has no data handoff: a replica whose responsible
	// departs becomes unavailable until the next update re-inserts it,
	// which is exactly what drives the probability of currency and
	// availability below 1. The evaluation harness enables this flag;
	// library deployments keep handoff on by default.
	NoDataHandoff bool
	// Store, when non-nil, backs the node's replica store (and, if the
	// deployment shares the unit, its KTS counters). Nil keeps the
	// volatile default: a crash loses everything, the paper's fail-stop
	// model. A durable backing (store.WAL, the sim depot) instead
	// survives into the §4.2.2 restart path.
	Store store.Store
	// Obs receives routing metrics (lookup hop counts and failures,
	// stabilize rounds, finger-fix failures). Nil disables export; the
	// metrics are still maintained but unregistered.
	Obs *obs.Registry
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
	if c.MaxLookupSteps == 0 {
		c.MaxLookupSteps = 3 * M
	}
	if c.LookupRetries == 0 {
		c.LookupRetries = 3
	}
	return c
}

// Node is one Chord peer.
type Node struct {
	env   network.Env
	ep    network.Endpoint
	cfg   Config
	self  dht.NodeRef
	store *dht.LocalStore

	mu       sync.Mutex
	pred     dht.NodeRef // zero when unknown
	succs    []dht.NodeRef
	fingers  [M]dht.NodeRef
	nextFix  int
	learned  learnedArcs
	alive    bool
	started  bool
	handover []dht.Handover

	metrics chordMetrics
}

var _ dht.RingNode = (*Node)(nil)

// chordMetrics are the ring's routing/maintenance observables. They use
// only atomic counters and the locked histogram — never the clock or a
// random stream — so instrumentation cannot perturb a simulation replay.
type chordMetrics struct {
	hops            *obs.Histogram
	lookups         *obs.Counter
	lookupFails     *obs.Counter
	stabilizeRounds *obs.Counter
	fingerFixFails  *obs.Counter
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
		fingerFixFails: r.Counter("dcdht_chord_finger_fix_failures_total",
			"Finger-repair lookups that failed (stale finger kept)."),
	}
}

// New creates a node with the given identity on an endpoint. Call
// CreateRing or Join before Start.
func New(env network.Env, ep network.Endpoint, id core.ID, cfg Config) *Node {
	n := &Node{
		env:     env,
		ep:      ep,
		cfg:     cfg.withDefaults(),
		self:    dht.NodeRef{ID: id, Addr: ep.Addr()},
		alive:   true,
		metrics: newChordMetrics(cfg.Obs),
	}
	if cfg.Store != nil {
		n.store = dht.NewLocalStoreOn(cfg.Store)
	} else {
		n.store = dht.NewLocalStore()
	}
	n.succs = []dht.NodeRef{n.self}
	n.registerHandlers()
	dht.RegisterStore(ep, n.store, n.OwnsID)
	cfg.Obs.GaugeFunc("dcdht_chord_learned_arcs",
		"Arcs proved by this node's own lookups that Guess can currently name.",
		func() float64 { return float64(n.LearnedArcs()) })
	return n
}

// Self implements dht.Ring.
func (n *Node) Self() dht.NodeRef { return n.self }

// Endpoint implements dht.Ring.
func (n *Node) Endpoint() network.Endpoint { return n.ep }

// Env implements dht.Ring.
func (n *Node) Env() network.Env { return n.env }

// Obs implements dht.Ring.
func (n *Node) Obs() *obs.Registry { return n.cfg.Obs }

// Store exposes the local replica store (tests and handover paths).
func (n *Node) Store() *dht.LocalStore { return n.store }

// Config returns the effective configuration.
func (n *Node) Config() Config { return n.cfg }

// Alive implements dht.Ring.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// RegisterHandover attaches a service to responsibility transfers.
func (n *Node) RegisterHandover(h dht.Handover) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handover = append(n.handover, h)
}

// OwnsID implements dht.Ring: the node is responsible for id iff id lies
// in (pred, self]. With no known predecessor the node assumes
// responsibility (single-node ring or still converging).
func (n *Node) OwnsID(id core.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return false
	}
	if n.pred.IsZero() {
		return true
	}
	return id.Between(n.pred.ID, n.self.ID)
}

// Guess implements dht.Ring from the arcs whose both ends this node
// knows. Live routing state answers first: its own arc, (pred, self],
// when the predecessor is known, and the arc between each pair of
// consecutive successor-list entries, owned by the later one. Behind it
// come the arcs this node's own lookups proved (learnedArcs). Everything
// else — and everything while the predecessor is unknown, the list is
// empty and nothing was learned — is left to Lookup.
func (n *Node) Guess(id core.ID) (dht.NodeRef, dht.GuessSource) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return dht.NodeRef{}, dht.NoGuess
	}
	if !n.pred.IsZero() && id.Between(n.pred.ID, n.self.ID) {
		return n.self, dht.GuessRouting
	}
	prev := n.self
	for _, s := range n.succs {
		if s.ID == n.self.ID {
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
	n.pred = dht.NodeRef{}
	n.succs = []dht.NodeRef{n.self}
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
		out = append(out, n.self)
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

// Crash models a failure: the node vanishes without any handoff and its
// storage backing fails as under SIGKILL — a volatile backing loses the
// store and counters, a durable one keeps whatever its sync policy made
// stable. The caller is responsible for also killing the transport
// endpoint (the simulated network's Kill).
func (n *Node) Crash() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = false
	n.store.Crash()
}

// call invokes a protocol RPC with the node's per-hop patience; the
// caller's context carries the end-to-end deadline and the meter.
func (n *Node) call(ctx context.Context, to network.Addr, method string, req network.Message) (network.Message, error) {
	return n.ep.Invoke(ctx, to, method, req, network.Call{Timeout: n.cfg.RPCTimeout})
}

// Package onehop is the repo's third ring substrate: a single-hop DHT in
// the style of D1HT (Monnerat & Amorim, "An effective single-hop
// distributed hash table"). Every node keeps a full routing table —
// every member's (ID, address) — maintained by event propagation: a
// join, leave or detected crash is broadcast to the whole table, so in
// steady state the node responsible for any ring position is known
// locally and Lookup resolves in a single confirmation hop.
//
// The trade the paper's cost model cares about is maintenance traffic
// versus lookup hops: chord pays O(log n) routing messages per lookup
// and O(log n) periodic repair; onehop pays O(1) lookup messages but
// O(n) broadcast per membership event. Under churn the table is briefly
// stale, so Lookup degrades gracefully: a probed candidate that no
// longer owns the position forwards the caller to a better node from
// its (fresher) table, and dead candidates are evicted and routed
// around — correctness never rests on table freshness.
//
// Ownership follows the same successor rule as chord: a node owns the
// arc (table-predecessor, self]. Because every node evaluates the rule
// against its own table, two nodes with different views can briefly
// both claim an arc; the store layer's owns-check plus the services'
// timestamp discipline make that a liveness hiccup, not a correctness
// hole — exactly the argument chord already relies on during
// stabilization.
package onehop

import (
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/obs"
)

// Config tunes a one-hop node.
type Config struct {
	// RPCTimeout is the per-probe patience — the failure-detection
	// threshold for one round trip. Zero selects 2s.
	RPCTimeout time.Duration
	// PingEvery is the period of the predecessor liveness check that
	// turns silent crashes into broadcast leave events. Zero selects 30s.
	PingEvery time.Duration
	// MemberConfig holds the handoff model, the store backing and the
	// metrics registry.
	dht.MemberConfig
}

func (c Config) withDefaults() Config {
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.PingEvery <= 0 {
		c.PingEvery = 30 * time.Second
	}
	return c
}

// maxForward bounds the forwarding chain a lookup follows when the
// local table is stale: generous, since each forward follows a strictly
// fresher table.
const maxForward = 8

// Node is one one-hop peer.
type Node struct {
	*dht.Member
	cfg Config

	mu       sync.Mutex
	table    []dht.NodeRef // sorted by ID, always contains self
	heldPred core.ID       // the table predecessor's ID (self's when alone)
	held     time.Duration // Env time heldPred last changed

	metrics oneHopMetrics
}

var _ dht.RingNode = (*Node)(nil)

// oneHopMetrics are the substrate's observables: atomic counters only
// — no clock, no random stream — so instrumentation cannot perturb a
// replay.
type oneHopMetrics struct {
	lookups        *obs.Counter
	staleFallbacks *obs.Counter
}

func newOneHopMetrics(r *obs.Registry) oneHopMetrics {
	return oneHopMetrics{
		lookups: r.Counter("dcdht_onehop_lookups_total",
			"Lookups issued from this node."),
		staleFallbacks: r.Counter("dcdht_onehop_stale_fallbacks_total",
			"Probes answered 'not mine' by a stale-table candidate (forwarded)."),
	}
}

// New creates a node with the given identity on an endpoint. Call
// CreateRing or Join before Start.
func New(env network.Env, ep network.Endpoint, id core.ID, cfg Config) *Node {
	n := &Node{cfg: cfg.withDefaults(), metrics: newOneHopMetrics(cfg.Obs)}
	n.Member = dht.NewMember(env, ep, id, cfg.MemberConfig, n.cfg.RPCTimeout, n.OwnsID)
	n.table = []dht.NodeRef{n.Self()}
	n.tableChangedLocked()
	n.registerHandlers()
	return n
}

// Config returns the effective configuration.
func (n *Node) Config() Config { return n.cfg }

// OwnsID implements dht.Ring: the node owns id iff id lies in
// (table-predecessor, self]. A table of one owns everything.
func (n *Node) OwnsID(id core.ID) bool {
	if !n.Alive() {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	pred, ok := n.predecessorLocked()
	if !ok {
		return true
	}
	return id.Between(pred.ID, n.Self().ID)
}

// HeldSince implements dht.Ring: the arc (table-predecessor, self] is
// held since that predecessor last changed. A table of one owns
// everything by default, which is nothing steady.
func (n *Node) HeldSince() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.table) <= 1 {
		return n.Env().Now()
	}
	return n.held
}

// Guess implements dht.Ring: the table's successor of id. A table that
// holds only self names nobody — that is the own-everything default,
// not knowledge.
func (n *Node) Guess(id core.ID) (dht.NodeRef, dht.GuessSource) {
	if !n.Alive() {
		return dht.NodeRef{}, dht.NoGuess
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.table) <= 1 {
		return dht.NodeRef{}, dht.NoGuess
	}
	if ref, ok := n.successorOfLocked(id, nil); ok {
		return ref, dht.GuessRouting
	}
	return dht.NodeRef{}, dht.NoGuess
}

// Predecessor returns this node's table predecessor (zero when the
// table holds only self).
func (n *Node) Predecessor() dht.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	pred, ok := n.predecessorLocked()
	if !ok {
		return dht.NodeRef{}
	}
	return pred
}

// TableSize returns the number of known members (including self).
func (n *Node) TableSize() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.table)
}

// Table returns a copy of the routing table, sorted by ID.
func (n *Node) Table() []dht.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]dht.NodeRef, len(n.table))
	copy(out, n.table)
	return out
}

// CreateRing bootstraps a new overlay with this node as sole member.
func (n *Node) CreateRing() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.table = []dht.NodeRef{n.Self()}
	n.tableChangedLocked()
}

// --- table helpers (callers hold n.mu) ---

// predecessorLocked returns the member immediately counter-clockwise of
// self, or ok=false when the table holds only self.
func (n *Node) predecessorLocked() (dht.NodeRef, bool) {
	if len(n.table) <= 1 {
		return dht.NodeRef{}, false
	}
	i := n.indexOfLocked(n.Self().ID)
	return n.table[(i-1+len(n.table))%len(n.table)], true
}

// indexOfLocked returns self's position in the sorted table.
func (n *Node) indexOfLocked(id core.ID) int {
	return sort.Search(len(n.table), func(i int) bool { return n.table[i].ID >= id })
}

// successorOfLocked returns the first member at or clockwise of id,
// skipping IDs in skip. ok=false when every member is skipped.
func (n *Node) successorOfLocked(id core.ID, skip map[core.ID]bool) (dht.NodeRef, bool) {
	m := len(n.table)
	if m == 0 {
		return dht.NodeRef{}, false
	}
	start := sort.Search(m, func(i int) bool { return n.table[i].ID >= id })
	for k := 0; k < m; k++ {
		cand := n.table[(start+k)%m]
		if skip != nil && skip[cand.ID] {
			continue
		}
		return cand, true
	}
	return dht.NodeRef{}, false
}

// insertLocked adds (or refreshes) a member, keeping the table sorted.
func (n *Node) insertLocked(ref dht.NodeRef) {
	if ref.IsZero() {
		return
	}
	i := n.indexOfLocked(ref.ID)
	if i < len(n.table) && n.table[i].ID == ref.ID {
		n.table[i] = ref // refresh address
		return
	}
	n.table = append(n.table, dht.NodeRef{})
	copy(n.table[i+1:], n.table[i:])
	n.table[i] = ref
	n.tableChangedLocked()
}

// removeLocked drops a member by ID. Self is never removed.
func (n *Node) removeLocked(id core.ID) {
	if id == n.Self().ID {
		return
	}
	i := n.indexOfLocked(id)
	if i < len(n.table) && n.table[i].ID == id {
		n.table = append(n.table[:i], n.table[i+1:]...)
		n.tableChangedLocked()
	}
}

// tableChangedLocked follows a table edit: when it moved the table
// predecessor, and with it the arc OwnsID accepts, HeldSince restarts.
func (n *Node) tableChangedLocked() {
	i := n.indexOfLocked(n.Self().ID)
	if pred := n.table[(i-1+len(n.table))%len(n.table)].ID; pred != n.heldPred {
		n.heldPred, n.held = pred, n.Env().Now()
	}
}

// evict drops a member observed dead during a lookup.
func (n *Node) evict(id core.ID) {
	n.mu.Lock()
	n.removeLocked(id)
	n.mu.Unlock()
}

// AssembleRing installs the complete membership in every node
// administratively, with no protocol traffic — the same shortcut
// chord.AssembleRing takes so large simulations start converged and
// churn then exercises the real join/leave/event paths.
func AssembleRing(nodes []*Node) {
	if len(nodes) == 0 {
		return
	}
	refs := make([]dht.NodeRef, len(nodes))
	for i, nd := range nodes {
		refs[i] = nd.Self()
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].ID < refs[j].ID })
	for _, nd := range nodes {
		table := make([]dht.NodeRef, len(refs))
		copy(table, refs)
		nd.mu.Lock()
		nd.table = table
		nd.tableChangedLocked()
		nd.mu.Unlock()
	}
}

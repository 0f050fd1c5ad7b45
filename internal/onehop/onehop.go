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
	"repro/internal/store"
)

// Config tunes a one-hop node.
type Config struct {
	// RPCTimeout is the per-probe patience — the failure-detection
	// threshold for one round trip. Zero selects 2s.
	RPCTimeout time.Duration
	// PingEvery is the period of the predecessor liveness check that
	// turns silent crashes into broadcast leave events. Zero selects 30s.
	PingEvery time.Duration
	// MaxForward bounds the forwarding chain a lookup follows when the
	// local table is stale. Zero selects 8 — generous, since each
	// forward follows a strictly fresher table.
	MaxForward int
	// NoDataHandoff keeps replicas on the old responsible across
	// membership changes — the paper's data model, where a joiner
	// starts empty and republish/repair restore reachability.
	NoDataHandoff bool
	// Store selects the replica-store backing; nil means volatile memory.
	Store store.Store
	// Obs receives routing and maintenance metrics when non-nil.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.PingEvery <= 0 {
		c.PingEvery = 30 * time.Second
	}
	if c.MaxForward <= 0 {
		c.MaxForward = 8
	}
	return c
}

// Node is one one-hop peer.
type Node struct {
	env   network.Env
	ep    network.Endpoint
	cfg   Config
	self  dht.NodeRef
	store *dht.LocalStore

	mu       sync.Mutex
	table    []dht.NodeRef // sorted by ID, always contains self
	alive    bool
	started  bool
	handover []dht.Handover

	metrics oneHopMetrics
}

var _ dht.RingNode = (*Node)(nil)

// oneHopMetrics are the substrate's observables: atomic counters and the
// locked histogram only — no clock, no random stream — so
// instrumentation cannot perturb a replay.
type oneHopMetrics struct {
	hops           *obs.Histogram
	lookups        *obs.Counter
	lookupFails    *obs.Counter
	staleFallbacks *obs.Counter
	eventsSent     *obs.Counter
	eventsRecv     *obs.Counter
}

func newOneHopMetrics(r *obs.Registry) oneHopMetrics {
	return oneHopMetrics{
		hops: r.ValueHistogram("dcdht_onehop_lookup_hops",
			"Remote probes per completed lookup (1 in steady state)."),
		lookups: r.Counter("dcdht_onehop_lookups_total",
			"Lookups issued from this node."),
		lookupFails: r.Counter("dcdht_onehop_lookup_failures_total",
			"Lookups that exhausted forwarding without finding the owner."),
		staleFallbacks: r.Counter("dcdht_onehop_stale_fallbacks_total",
			"Probes answered 'not mine' by a stale-table candidate (forwarded)."),
		eventsSent: r.Counter("dcdht_onehop_events_sent_total",
			"Membership event messages broadcast from this node."),
		eventsRecv: r.Counter("dcdht_onehop_events_received_total",
			"Membership event messages applied from peers."),
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
		metrics: newOneHopMetrics(cfg.Obs),
	}
	if cfg.Store != nil {
		n.store = dht.NewLocalStoreOn(cfg.Store)
	} else {
		n.store = dht.NewLocalStore()
	}
	n.table = []dht.NodeRef{n.self}
	n.registerHandlers()
	dht.RegisterStore(ep, n.store, n.OwnsID)
	if r := cfg.Obs; r != nil {
		r.GaugeFunc("dcdht_onehop_table_size", "Members in the full routing table.", func() float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return float64(len(n.table))
		})
	}
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

// Store exposes the local replica store.
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

// OwnsID implements dht.Ring: the node owns id iff id lies in
// (table-predecessor, self]. A table of one owns everything.
func (n *Node) OwnsID(id core.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return false
	}
	pred, ok := n.predecessorLocked()
	if !ok {
		return true
	}
	return id.Between(pred.ID, n.self.ID)
}

// Guess implements dht.Ring: the table's successor of id. A table that
// holds only self names nobody — that is the own-everything default,
// not knowledge.
func (n *Node) Guess(id core.ID) (dht.NodeRef, dht.GuessSource) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive || len(n.table) <= 1 {
		return dht.NodeRef{}, dht.NoGuess
	}
	if ref, ok := n.successorOfLocked(id, nil); ok {
		return ref, dht.GuessRouting
	}
	return dht.NodeRef{}, dht.NoGuess
}

// GuessMissed implements dht.Ring. The table is live routing state,
// which the ping/evict lifecycle repairs; nothing is remembered beside
// it.
func (n *Node) GuessMissed(dht.NodeRef) {}

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
	n.table = []dht.NodeRef{n.self}
}

// Crash kills the node without ceremony: no handover, no events. The
// rest of the overlay discovers the death by failed probes.
func (n *Node) Crash() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = false
	n.store.Crash()
}

// --- table helpers (callers hold n.mu) ---

// predecessorLocked returns the member immediately counter-clockwise of
// self, or ok=false when the table holds only self.
func (n *Node) predecessorLocked() (dht.NodeRef, bool) {
	if len(n.table) <= 1 {
		return dht.NodeRef{}, false
	}
	i := n.indexOfLocked(n.self.ID)
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
}

// removeLocked drops a member by ID. Self is never removed.
func (n *Node) removeLocked(id core.ID) {
	if id == n.self.ID {
		return
	}
	i := n.indexOfLocked(id)
	if i < len(n.table) && n.table[i].ID == id {
		n.table = append(n.table[:i], n.table[i+1:]...)
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
		refs[i] = nd.self
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].ID < refs[j].ID })
	for _, nd := range nodes {
		table := make([]dht.NodeRef, len(refs))
		copy(table, refs)
		nd.mu.Lock()
		nd.table = table
		nd.mu.Unlock()
	}
}

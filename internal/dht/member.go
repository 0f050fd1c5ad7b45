package dht

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/store"
)

// MemberConfig is the part of a substrate's Config that is not geometry:
// chord.Config, can.Config and onehop.Config embed it, and Member reads
// it.
type MemberConfig struct {
	// NoDataHandoff disables moving stored replicas on responsibility
	// changes (joins, graceful leaves). Service state (KTS counters)
	// still moves — that is the paper's direct algorithm. The paper's
	// DHT model (§2) has no data handoff: a replica whose responsible
	// departs becomes unavailable until the next update re-inserts it,
	// which is exactly what drives the probability of currency and
	// availability below 1. peer.New sets it, like Store and Obs, from
	// peer.Config, where the evaluation harness enables it and library
	// deployments keep handoff on by default.
	NoDataHandoff bool
	// Store, when non-nil, backs the node's replica store (and, if the
	// deployment shares the unit, its KTS counters). Nil keeps the
	// volatile default: a crash loses everything, the paper's fail-stop
	// model. A durable backing (store.OpenWAL, a sim depot slot)
	// instead survives into the §4.2.2 restart path.
	Store *store.Store
	// Obs receives the substrate's routing and maintenance metrics. Nil
	// disables export; the metrics are still maintained but
	// unregistered.
	Obs *obs.Registry
}

// Member is the membership kit every substrate node embeds: identity and
// attachments, liveness, service handover and RPC plumbing. What it
// holds is the same whatever the overlay's geometry; the embedding node
// keeps only its routing state and the rules over it (Lookup, Guess, OwnsID, HeldSince, who cedes what on a
// join or leave).
type Member struct {
	env        network.Env
	ep         network.Endpoint
	self       NodeRef
	store      *LocalStore
	storeOps   map[string]network.HandlerFunc // the put/get protocol, as served on ep
	obs        *obs.Registry
	noHandoff  bool
	rpcTimeout time.Duration

	alive, started atomic.Bool

	mu       sync.Mutex // guards handover
	handover []Handover
}

// NewMember attaches a node with identity id to ep: it builds the
// replica store on cfg.Store, serves the put/get protocol under owns,
// and answers Ping while the node is alive. rpcTimeout is the patience
// of every Call (zero: the transport default).
func NewMember(env network.Env, ep network.Endpoint, id core.ID, cfg MemberConfig, rpcTimeout time.Duration, owns func(core.ID) bool) *Member {
	m := &Member{
		env:        env,
		ep:         ep,
		self:       NodeRef{ID: id, Addr: ep.Addr()},
		obs:        cfg.Obs,
		noHandoff:  cfg.NoDataHandoff,
		rpcTimeout: rpcTimeout,
	}
	if cfg.Store != nil {
		m.store = NewLocalStoreOn(cfg.Store)
	} else {
		m.store = NewLocalStore()
	}
	m.alive.Store(true)
	m.storeOps = RegisterStore(ep, m.store, owns)
	m.Handle(MethodPing, network.Typed(func(PingReq) (network.Message, error) { return PingResp{}, nil }))
	return m
}

// Self implements Ring.
func (m *Member) Self() NodeRef { return m.self }

// Endpoint implements Ring.
func (m *Member) Endpoint() network.Endpoint { return m.ep }

// Env implements Ring.
func (m *Member) Env() network.Env { return m.env }

// Obs implements Ring.
func (m *Member) Obs() *obs.Registry { return m.obs }

// Store implements RingNode: the local replica store.
func (m *Member) Store() *LocalStore { return m.store }

// StoreHandlers returns the put/get handlers the node serves on its
// endpoint, for its own clients' routers to call in-process.
func (m *Member) StoreHandlers() map[string]network.HandlerFunc { return m.storeOps }

// Alive implements Ring.
func (m *Member) Alive() bool { return m.alive.Load() }

// Crash implements RingNode: the node stops without any handoff and its
// storage backing fails as under SIGKILL — a volatile backing loses the
// store and counters, a durable one keeps whatever its sync policy made
// stable. The caller also kills the transport endpoint (the simulated
// network's Kill).
func (m *Member) Crash() {
	m.alive.Store(false)
	m.store.Crash()
}

// Stop marks the node stopped at the start of a graceful leave, so it
// refuses protocol traffic from then on. It reports false when the node
// was already stopped, and the leave must not run twice.
func (m *Member) Stop() bool { return m.alive.CompareAndSwap(true, false) }

// Starting reports whether this is the first Start of a live node; the
// substrate's Start launches its loops only then.
func (m *Member) Starting() bool { return m.Alive() && m.started.CompareAndSwap(false, true) }

// Every is every periodic loop a peer runs: substrate maintenance, the
// repair sweep, KTS inspection. It runs fn every period plus a jitter of
// up to a quarter period for as long as node lives. The jitter draws on
// the node's own stream task+":"+address, and fn gets the same stream
// for whatever it picks after the sleep. Each loop has its own stream,
// because on the real deployment loops run as concurrent goroutines and
// a shared rand.Rand is not synchronized, and per-node streams keep
// rounds from synchronizing across the overlay.
func Every(node Ring, task string, period time.Duration, fn func(rng *rand.Rand)) {
	env := node.Env()
	rng := env.Rand(task + ":" + string(node.Self().Addr))
	env.Go(func() {
		for node.Alive() {
			jitter := time.Duration(rng.Int63n(int64(period)/4 + 1))
			if err := env.Sleep(period + jitter); err != nil || !node.Alive() {
				return
			}
			fn(rng)
		}
	})
}

// RegisterHandover implements HandoverRegistrar.
func (m *Member) RegisterHandover(h Handover) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handover = append(m.handover, h)
}

func (m *Member) hooks() []Handover {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.handover)
}

// Cede collects, and removes, what this node holds for the positions
// satisfying ceded, for their next responsible: the stored replicas,
// unless data handoff is off, and each registered service's payload,
// keyed by service name (nil when no service has any).
func (m *Member) Cede(ceded func(core.ID) bool) ([]store.Item, map[string]network.Message) {
	var items []store.Item
	if !m.noHandoff {
		items = m.store.CollectIf(ceded, true)
	}
	var services map[string]network.Message
	for _, h := range m.hooks() {
		if msg := h.Collect(ceded); msg != nil {
			if services == nil {
				services = make(map[string]network.Message)
			}
			services[h.Name()] = msg
		}
	}
	return items, services
}

// Absorb installs what another node ceded to this one: the replicas,
// newer value winning, then each service's payload.
func (m *Member) Absorb(items []store.Item, services map[string]network.Message) {
	m.store.Absorb(items)
	if len(services) == 0 {
		return
	}
	for _, h := range m.hooks() {
		if msg, ok := services[h.Name()]; ok {
			h.Accept(msg)
		}
	}
}

// Call invokes a protocol RPC with the node's per-hop patience; the
// caller's context carries the end-to-end deadline and the meter.
func (m *Member) Call(ctx context.Context, to network.Addr, method string, req network.Message) (network.Message, error) {
	return m.ep.Invoke(ctx, to, method, req, network.Call{Timeout: m.rpcTimeout})
}

// Handle serves method on the node's endpoint while the node is alive;
// a stopped node answers core.ErrStopped.
func (m *Member) Handle(method string, h network.HandlerFunc) {
	m.ep.Handle(method, func(from network.Addr, req network.Message) (network.Message, error) {
		if !m.Alive() {
			return nil, core.ErrStopped
		}
		return h(from, req)
	})
}

// Ping probes the liveness of the node at to.
func (m *Member) Ping(ctx context.Context, to network.Addr) error {
	_, err := m.Call(ctx, to, MethodPing, PingReq{})
	return err
}

// MethodPing is the liveness probe every member answers.
const MethodPing = "dht.Ping"

// PingReq probes liveness.
type PingReq struct{}

// PingResp acknowledges a ping.
type PingResp struct{}

func init() {
	network.RegisterMessage(PingReq{}, PingResp{}, map[string]network.Message{})
}

// PeerDead reports whether err, from a call to a peer, means the peer is
// gone: silence on the simulated transport (timeout), a refusal on TCP
// (unreachable), or a stopped node's answer.
func PeerDead(err error) bool {
	return errors.Is(err, core.ErrTimeout) || errors.Is(err, core.ErrStopped) ||
		errors.Is(err, core.ErrUnreachable)
}

// IDList returns the members of set in ascending order — the wire form
// of an exclusion set, deterministic where map order is not (nil when
// the set is empty).
func IDList(set map[core.ID]bool) []core.ID {
	if len(set) == 0 {
		return nil
	}
	out := make([]core.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// IDSet is the set of ids (nil when there are none), the inverse of
// IDList.
func IDSet(ids []core.ID) map[core.ID]bool {
	if len(ids) == 0 {
		return nil
	}
	set := make(map[core.ID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// BulkSize charges a handover's replicas against the bandwidth model.
func BulkSize(items []store.Item) int {
	n := network.DefaultWireSize
	for _, it := range items {
		n += 40 + len(it.Qual) + len(it.Val.Data)
	}
	return n
}

// Package peer is the one peer stack and the one operation path both
// deployment styles run. The paper's services are thin layers over any
// DHT, so a peer is the same assembly everywhere: a ring substrate, KTS,
// UMS and BRK on top of it, and replica repair beside them, whose sweep
// is the one loop that re-pushes hosted replicas to their current
// responsibles. Nothing sits between the services and the substrate:
// what speeds owner resolution up (chord's learned arcs, onehop's table)
// lives inside the ring, behind dht.Ring.Guess. The simulator and the
// TCP node differ only in what they hand New — the Env, the endpoint and
// the backing store — and in who picks the issuing peer; everything else
// is this package.
//
// Config is the one description of a peer, and this is the only package
// that turns it into a chord, CAN or onehop node: callers pick a
// RingKind and tune chord's timers, and New derives the other two
// substrates' from them and applies the data-handoff model to whichever
// it builds.
package peer

import (
	"context"
	"fmt"
	"time"

	"repro/internal/brk"
	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/kts"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/onehop"
	"repro/internal/repair"
	"repro/internal/store"
	"repro/internal/ums"
)

// RingKind selects the overlay substrate a deployment runs on.
type RingKind string

// The three substrates behind dht.RingNode. The empty kind means
// RingChord, the paper's primary substrate.
const (
	RingChord  RingKind = "chord"
	RingCAN    RingKind = "can"
	RingOneHop RingKind = "onehop"
)

// ParseRing validates a ring name ("chord", "can" or "onehop"; empty
// means the chord default).
func ParseRing(s string) (RingKind, error) {
	switch kind := RingKind(s); kind {
	case "":
		return RingChord, nil
	case RingChord, RingCAN, RingOneHop:
		return kind, nil
	}
	return "", fmt.Errorf("unknown ring %q (want chord, can or onehop)", s)
}

// Config is everything that shapes a peer besides where it runs, on any
// of the three substrates. Chord's MemberConfig and the RPCTimeout and
// Persist fields of KTS are owned by New: whatever the caller put there
// is overwritten.
type Config struct {
	// Replicas is |Hr|, the number of replication hash functions of the
	// deployment's hash set (hashing.NewSet). All peers of a ring agree
	// on it; it must be at least 1.
	Replicas int
	// Ring picks the substrate.
	Ring RingKind
	// Chord tunes chord. CAN and onehop take their timers from it: they
	// probe their neighbors every CheckPredEvery, with RPCTimeout's
	// patience (see derive).
	Chord chord.Config
	// NoDataHandoff keeps stored replicas on the old responsible when
	// responsibility moves (joins, graceful leaves), matching the paper's
	// DHT model (§2): a replica whose responsible departs is unavailable
	// until the next update re-inserts it. This is what makes the
	// probability of currency and availability decay between updates —
	// the dynamic behind Figures 7–12. KTS counters still move (the
	// direct algorithm is about counters, §4.2.1). Off, the default,
	// hands replicas over.
	NoDataHandoff bool
	// KTS tunes the timestamping service.
	KTS kts.Config
	// Repair tunes replica maintenance; the zero value leaves the peer
	// without it. Its sweep also keeps data findable after an arc
	// rotates without handoff: it re-pushes every hosted replica to the
	// current replica set.
	Repair repair.Config
	// Obs receives every layer's metric families and the op tracer's.
	// Nil runs uninstrumented.
	Obs *obs.Registry
}

// derive spells out what c implies for the other substrates and for
// KTS: CAN and onehop probe every c.CheckPredEvery with c.RPCTimeout's
// patience (a zero stays zero, so each keeps its own default), and a
// timestamp request waits 15 ring RPC timeouts — it can legitimately
// take many ring RPCs of server-side work (indirect initialization), so
// it needs far more patience than one protocol probe: 30s on the
// substrates' 2s default. All three substrate configs carry m.
func derive(c chord.Config, m dht.MemberConfig) (chord.Config, can.Config, onehop.Config, time.Duration) {
	rpc := c.RPCTimeout
	if rpc <= 0 {
		rpc = 2 * time.Second
	}
	c.MemberConfig = m
	return c, can.Config{PingEvery: c.CheckPredEvery, RPCTimeout: c.RPCTimeout, MemberConfig: m},
		onehop.Config{PingEvery: c.CheckPredEvery, RPCTimeout: c.RPCTimeout, MemberConfig: m},
		15 * rpc
}

// Stack is one assembled peer.
type Stack struct {
	// Node is the substrate node (chord, can or onehop); the services
	// route reads and writes through it directly.
	Node   dht.RingNode
	KTS    *kts.Service
	UMS    *ums.Service
	BRK    *brk.Service
	Repair *repair.Service // nil unless Config.Repair.Enabled()
}

// New assembles a peer on ep with every service attached; the peer has
// not created or joined a ring yet. Its ring position derives from the
// endpoint's address, so a peer restarted on the same address resumes
// the same arc. A non-nil backing holds the replicas and the KTS
// counters as one recoverable unit: the service reads the counters it
// retained, so the first gen_ts after a restart continues above every
// timestamp granted before the crash instead of re-deriving from
// replicas. A nil backing keeps the volatile default (a crash loses
// everything, the paper's fail-stop model). New fails on an unknown ring
// and on fewer than one replica.
func New(env network.Env, ep network.Endpoint, backing *store.Store, cfg Config) (*Stack, error) {
	kind, err := ParseRing(string(cfg.Ring))
	if err != nil {
		return nil, err
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("%d replicas (want at least 1)", cfg.Replicas)
	}
	set := hashing.NewSet(cfg.Replicas)
	id := hashing.NodeID(string(ep.Addr()))
	chordCfg, canCfg, hopCfg, ktsPatience := derive(cfg.Chord,
		dht.MemberConfig{NoDataHandoff: cfg.NoDataHandoff, Store: backing, Obs: cfg.Obs})
	var node dht.RingNode
	switch kind {
	case RingChord:
		node = chord.New(env, ep, id, chordCfg)
	case RingCAN:
		node = can.New(env, ep, id, canCfg)
	case RingOneHop:
		node = onehop.New(env, ep, id, hopCfg)
	default: // a kind ParseRing admits but nothing here builds
		return nil, fmt.Errorf("ring %q has no constructor", kind)
	}
	s := &Stack{Node: node}

	ktsCfg := cfg.KTS
	ktsCfg.RPCTimeout = ktsPatience
	s.KTS = kts.New(node, set, ums.Namespace, ktsCfg)
	s.UMS = ums.New(node, set, s.KTS)
	s.BRK = brk.New(node, set)
	if cfg.Obs != nil {
		// Families register once per registry, so peers sharing one
		// aggregate into the same series.
		tracer := obs.NewMetricsTracer(cfg.Obs)
		s.UMS.SetTracer(tracer)
		s.BRK.SetTracer(tracer)
	}

	if cfg.Repair.Enabled() {
		s.Repair = repair.New(node, set, s.KTS, node.Store(), ums.Namespace, cfg.Repair)
		s.UMS.SetReadRepair(s.Repair)
	}
	return s, nil
}

// AssembleRing wires freshly built nodes of one kind into a single
// ring administratively, without running the join protocol.
func AssembleRing(kind RingKind, nodes []dht.RingNode) {
	switch kind {
	case RingCAN:
		can.AssembleSpace(concrete[*can.Node](nodes))
	case RingOneHop:
		onehop.AssembleRing(concrete[*onehop.Node](nodes))
	default:
		chord.AssembleRing(concrete[*chord.Node](nodes))
	}
}

// concrete unwraps nodes to the substrate type T they were built as.
func concrete[T dht.RingNode](nodes []dht.RingNode) []T {
	out := make([]T, len(nodes))
	for i, n := range nodes {
		out[i] = n.(T)
	}
	return out
}

// Start launches the peer's background loops once it is part of a ring
// (assembled, created or joined): substrate maintenance, then the repair
// sweep.
func (s *Stack) Start() {
	s.Node.Start()
	if s.Repair != nil {
		s.Repair.Start()
	}
}

// Algorithm selects the replication protocol an operation runs.
type Algorithm int

const (
	// UMS is the paper's Update Management Service: KTS timestamps,
	// provable currency, early-stop probing. The default.
	UMS Algorithm = iota
	// BRK is the BRICKS baseline: per-replica version numbers and
	// read-all retrieves, kept for side-by-side comparisons.
	BRK
)

// String returns "UMS" or "BRK".
func (a Algorithm) String() string {
	if a == BRK {
		return "BRK"
	}
	return "UMS"
}

// Insert and Retrieve are the UMS-default operations of dht.Ops, and
// with LastTS a Stack is a gateway.Backend as it stands.

// Insert stores data under k through UMS with a fresh timestamp.
func (s *Stack) Insert(ctx context.Context, k core.Key, data []byte) (dht.OpResult, error) {
	return s.UMS.Insert(ctx, k, data)
}

// Retrieve reads k through UMS under the acceptance policy pol.
func (s *Stack) Retrieve(ctx context.Context, k core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	return s.UMS.RetrieveWith(ctx, k, pol)
}

// LastTS asks KTS for the last timestamp generated for k.
func (s *Stack) LastTS(ctx context.Context, k core.Key) (core.Timestamp, error) {
	return s.KTS.LastTS(ctx, k)
}

// Put stores data under k with the chosen protocol.
func (s *Stack) Put(ctx context.Context, alg Algorithm, k core.Key, data []byte) (dht.OpResult, error) {
	if alg == BRK {
		return s.BRK.Insert(ctx, k, data)
	}
	return s.Insert(ctx, k, data)
}

// Get reads k with the chosen protocol. BRK has no currency proof to
// relax, so pol only applies to UMS.
func (s *Stack) Get(ctx context.Context, alg Algorithm, k core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	if alg == BRK {
		return s.BRK.Retrieve(ctx, k)
	}
	return s.Retrieve(ctx, k, pol)
}

// LastTSWith is LastTS under a consistency level: Bounded serves this
// peer's cached last_ts when it was observed at most pol.Bound ago and
// Eventual serves any cached answer, both without a network hop; Current
// always asks KTS.
func (s *Stack) LastTSWith(ctx context.Context, k core.Key, pol dht.ReadPolicy) (core.Timestamp, error) {
	if pol.Level != dht.LevelCurrent {
		if ts, age, ok := s.KTS.Cached(k); ok && (pol.Level == dht.LevelEventual || age <= pol.Bound) {
			return ts, nil
		}
	}
	return s.LastTS(ctx, k)
}

// PutMulti stores a batch from this peer with per-key error isolation
// (index i of both results matches keys[i]): each key is its own Put,
// all of them concurrent.
func (s *Stack) PutMulti(ctx context.Context, alg Algorithm, keys []core.Key, datas [][]byte) ([]dht.OpResult, []error) {
	return s.fanOut(len(keys), func(i int) (dht.OpResult, error) {
		return s.Put(ctx, alg, keys[i], datas[i])
	})
}

// GetMulti reads a batch from this peer with per-key error isolation:
// each key is its own Get, all of them concurrent.
func (s *Stack) GetMulti(ctx context.Context, alg Algorithm, keys []core.Key, pol dht.ReadPolicy) ([]dht.OpResult, []error) {
	return s.fanOut(len(keys), func(i int) (dht.OpResult, error) {
		return s.Get(ctx, alg, keys[i], pol)
	})
}

// fanOut runs n independent operations concurrently on the peer's Env
// and gathers their outcomes.
func (s *Stack) fanOut(n int, one func(i int) (dht.OpResult, error)) ([]dht.OpResult, []error) {
	results := make([]dht.OpResult, n)
	errs := make([]error, n)
	if err := s.Node.Env().Join(n, func(i int) { results[i], errs[i] = one(i) }); err != nil {
		// The Env shut down under the batch. Operations still in flight
		// keep writing the slices above, so report the shutdown on
		// fresh ones.
		results, errs = make([]dht.OpResult, n), make([]error, n)
		for i := range errs {
			errs[i] = err
		}
	}
	return results, errs
}

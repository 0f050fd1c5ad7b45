// Package peer is the one peer stack and the one operation path both
// deployment styles run. The paper's services are thin layers over any
// DHT, so a peer is the same assembly everywhere: a ring substrate, KTS,
// UMS and BRK on top of it, and the maintenance loops (republisher,
// replica repair) beside them. Nothing sits between the services and
// the substrate: what speeds owner resolution up (chord's learned arcs,
// onehop's table) lives inside the ring, behind dht.Ring.Guess. The
// simulator and the TCP node differ only in what they hand New — the
// Env, the endpoint and the backing store — and in who picks the issuing
// peer; everything else is this package.
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

// Config is everything that shapes a peer besides where it runs. The
// Obs, Store, Persist and KTS RPCTimeout fields of the nested configs
// are owned by New: whatever the caller put there is overwritten.
type Config struct {
	// Set is the deployment's hash set: the replication functions Hr
	// and the timestamping function hts. All peers of a ring share it.
	Set hashing.Set
	// Ring picks the substrate; only the matching one of Chord, CAN and
	// OneHop is read.
	Ring   RingKind
	Chord  chord.Config
	CAN    can.Config
	OneHop onehop.Config
	// Republish tunes the periodic republisher; a zero Every leaves the
	// peer without one.
	Republish dht.RepublishConfig
	KTS       kts.Config
	// Repair tunes replica maintenance; the zero value leaves the peer
	// without it.
	Repair repair.Config
	// Obs receives every layer's metric families and the op tracer's.
	// Nil runs uninstrumented.
	Obs *obs.Registry
}

// Stack is one assembled peer.
type Stack struct {
	// Node is the substrate node (chord, can or onehop); the services
	// route reads and writes through it directly.
	Node   dht.RingNode
	Repub  *dht.Republisher // nil unless Config.Republish.Every > 0
	KTS    *kts.Service
	UMS    *ums.Service
	BRK    *brk.Service
	Repair *repair.Service // nil unless Config.Repair.Enabled()
}

// New assembles a peer on ep with every service attached; the peer has
// not created or joined a ring yet. Its ring position derives from the
// endpoint's address, so a peer restarted on the same address resumes
// the same arc. A non-nil backing holds the replicas and the KTS
// counters as one recoverable unit: whatever counters it retained seed
// the service, so the first gen_ts after a restart continues above every
// timestamp granted before the crash instead of re-deriving from
// replicas. A nil backing keeps the volatile default (a crash loses
// everything, the paper's fail-stop model).
func New(env network.Env, ep network.Endpoint, backing store.Store, cfg Config) (*Stack, error) {
	kind, err := ParseRing(string(cfg.Ring))
	if err != nil {
		return nil, err
	}
	id := hashing.NodeID(string(ep.Addr()))
	var node dht.RingNode
	var ringRPC time.Duration // the substrate's per-RPC patience
	switch kind {
	case RingChord:
		c := cfg.Chord
		c.Obs, c.Store = cfg.Obs, backing
		node, ringRPC = chord.New(env, ep, id, c), c.RPCTimeout
	case RingCAN:
		c := cfg.CAN
		c.Obs, c.Store = cfg.Obs, backing
		node, ringRPC = can.New(env, ep, id, c), c.RPCTimeout
	case RingOneHop:
		c := cfg.OneHop
		c.Obs, c.Store = cfg.Obs, backing
		node, ringRPC = onehop.New(env, ep, id, c), c.RPCTimeout
	default: // a kind ParseRing admits but nothing here builds
		return nil, fmt.Errorf("ring %q has no constructor", kind)
	}
	s := &Stack{Node: node}

	ktsCfg := cfg.KTS
	// A timestamp request can legitimately take many ring RPCs of
	// server-side work (indirect initialization), so it needs far more
	// patience than one protocol probe: 15 ring RPC timeouts, which is
	// 30s on the substrates' 2s default.
	if ringRPC <= 0 {
		ringRPC = 2 * time.Second
	}
	ktsCfg.RPCTimeout = 15 * ringRPC
	ktsCfg.Obs = cfg.Obs
	ktsCfg.Persist = backing
	s.KTS = kts.New(node, cfg.Set, ums.Namespace, ktsCfg)
	if backing != nil {
		recovered := backing.Counters()
		entries := make([]kts.CounterEntry, len(recovered))
		for i, c := range recovered {
			entries[i] = kts.CounterEntry{Key: c.Key, TS: c.TS}
		}
		s.KTS.SeedCounters(entries)
	}
	s.UMS = ums.New(node, cfg.Set, s.KTS)
	s.BRK = brk.New(node, cfg.Set)
	if cfg.Obs != nil {
		// Families register once per registry, so peers sharing one
		// aggregate into the same series.
		tracer := obs.NewMetricsTracer(cfg.Obs)
		s.UMS.SetTracer(tracer)
		s.BRK.SetTracer(tracer)
	}

	if cfg.Republish.Every > 0 {
		rcfg := cfg.Republish
		rcfg.Obs = cfg.Obs
		s.Repub = dht.NewRepublisher(node, node.Store(), rcfg)
	}
	if cfg.Repair.Enabled() {
		rcfg := cfg.Repair
		rcfg.Obs = cfg.Obs
		s.Repair = repair.New(node, cfg.Set, s.KTS, node.Store(), ums.Namespace, rcfg)
		s.UMS.SetReadRepair(s.Repair)
	}
	return s, nil
}

// Start launches the peer's background loops once it is part of a ring
// (assembled, created or joined): substrate maintenance, then the
// republisher, then the repair sweep.
func (s *Stack) Start() {
	s.Node.Start()
	if s.Repub != nil {
		s.Repub.Start()
	}
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

// Insert, Retrieve and LastTS are the UMS-default operations under the
// gateway's backend names, so a Stack is a gateway.Backend as it stands.

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
// (index i of both results matches keys[i]). UMS writes share one
// batched KTS round per responsible, then replicate concurrently; BRK
// has no KTS round to batch and fans out per key.
func (s *Stack) PutMulti(ctx context.Context, alg Algorithm, keys []core.Key, datas [][]byte) ([]dht.OpResult, []error) {
	if alg == BRK {
		return s.fanOut(len(keys), func(i int) (dht.OpResult, error) {
			return s.BRK.Insert(ctx, keys[i], datas[i])
		})
	}
	return s.UMS.InsertMulti(ctx, keys, datas)
}

// GetMulti reads a batch from this peer with per-key error isolation.
// UMS reads at the provably-current level share one batched KTS last_ts
// round per responsible; the relaxed levels and BRK fan out per key.
func (s *Stack) GetMulti(ctx context.Context, alg Algorithm, keys []core.Key, pol dht.ReadPolicy) ([]dht.OpResult, []error) {
	if alg == BRK {
		return s.fanOut(len(keys), func(i int) (dht.OpResult, error) {
			return s.BRK.Retrieve(ctx, keys[i])
		})
	}
	return s.UMS.RetrieveMulti(ctx, keys, pol)
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

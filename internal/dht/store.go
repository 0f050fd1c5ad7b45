package dht

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/store"
)

// LocalStore is the replica store a peer hosts: (ring position,
// qualifier) → stamped value. Both DHT substrates embed one and move its
// contents during responsibility handovers.
//
// Since the durability subsystem landed, LocalStore is a thin
// concurrency and handover layer over a pluggable store.Store backing:
// its own mutex makes the read-modify-write of conditional puts and the
// collect-and-remove of handovers atomic, while where the bytes live —
// volatile map, write-ahead log, simulated depot — is the backing's
// business. A peer that crashes crashes its backing; with the default
// volatile Mem that discards every replica, which is what makes replicas
// unavailable and drives the paper's probability of currency and
// availability below 1. A durable backing instead survives into the
// §4.2.2 restart path.
// The lock is striped by ring-position arc (the top bits of the ID):
// conditional puts against different arcs proceed in parallel instead of
// serializing the closed-loop drivers on one mutex, while the
// read-modify-write per key stays atomic. Whole-store operations
// (handover collects, snapshots, clears) take every stripe in order.
type LocalStore struct {
	stripes [storeStripes]sync.Mutex
	backing store.Store
}

// storeStripes is the lock fan-out; a power of two so the stripe of an
// ID is a shift.
const storeStripes = 16

// stripeOf maps a ring position to its lock stripe by arc: IDs are
// uniform (hashes), so the top bits spread load evenly and keys on the
// same arc — which one responsible serves — share a stripe.
func stripeOf(rid core.ID) int {
	return int(uint64(rid) >> 60)
}

// lockAll acquires every stripe in index order (the only multi-stripe
// order used, so no deadlock) for whole-store operations.
func (s *LocalStore) lockAll() {
	for i := range s.stripes {
		s.stripes[i].Lock()
	}
}

func (s *LocalStore) unlockAll() {
	for i := range s.stripes {
		s.stripes[i].Unlock()
	}
}

// NewLocalStore returns an empty store on volatile memory — the
// pre-durability behaviour, and still the right default for peers whose
// death should lose everything.
func NewLocalStore() *LocalStore {
	return NewLocalStoreOn(store.NewMem())
}

// NewLocalStoreOn returns a store over the given backing. The backing
// may be shared with the peer's KTS service (replica items and counters
// form one recoverable unit), so it must be internally synchronized —
// every store.Store implementation is.
func NewLocalStoreOn(s store.Store) *LocalStore {
	return &LocalStore{backing: s}
}

// Backing exposes the storage layer, so a node can flush it on graceful
// shutdown or hand the same unit to its counter service.
func (s *LocalStore) Backing() store.Store {
	return s.backing
}

// Put stores val under (rid, qual) subject to mode. It reports whether
// the value was stored; a backing write failure counts as not stored.
func (s *LocalStore) Put(rid core.ID, qual string, val core.Value, mode PutMode) bool {
	st := stripeOf(rid)
	s.stripes[st].Lock()
	defer s.stripes[st].Unlock()
	old, exists := s.backing.GetItem(rid, qual)
	switch mode {
	case PutIfNewer:
		if exists && !old.TS.Less(val.TS) {
			return false
		}
	case PutIfNewerOrEqual:
		if exists && val.TS.Less(old.TS) {
			return false
		}
	}
	err := s.backing.PutItem(store.Item{RingID: rid, Qual: qual, Val: val.Clone()})
	return err == nil
}

// Get returns the value stored under (rid, qual).
func (s *LocalStore) Get(rid core.ID, qual string) (core.Value, bool) {
	st := stripeOf(rid)
	s.stripes[st].Lock()
	defer s.stripes[st].Unlock()
	v, ok := s.backing.GetItem(rid, qual)
	if !ok {
		return core.Value{}, false
	}
	return v.Clone(), true
}

// CollectIf returns every item whose ring position satisfies pred,
// removing them when remove is set. Handover paths use it: a Chord node
// collects the arc it is ceding; a CAN node collects a zone.
func (s *LocalStore) CollectIf(pred func(core.ID) bool, remove bool) []Item {
	s.lockAll()
	defer s.unlockAll()
	var out []Item
	s.backing.EachItem(func(it store.Item) bool {
		if pred(it.RingID) {
			out = append(out, Item{RingID: it.RingID, Qual: it.Qual, Val: it.Val.Clone()})
		}
		return true
	})
	if remove {
		for _, it := range out {
			s.backing.DeleteItem(it.RingID, it.Qual)
		}
	}
	return out
}

// Snapshot returns a copy of every stored item without removing
// anything. The iteration order is unspecified (map order); callers that
// need determinism must sort. The anti-entropy sweep snapshots the store
// once per round so repairs never hold the store lock across RPCs.
func (s *LocalStore) Snapshot() []Item {
	return s.CollectIf(func(core.ID) bool { return true }, false)
}

// Absorb installs items collected elsewhere, keeping the newer value on
// qualifier collisions (a replica must never travel backwards in time).
func (s *LocalStore) Absorb(items []Item) {
	for _, it := range items {
		s.Put(it.RingID, it.Qual, it.Val, PutIfNewer)
	}
}

// Len returns the number of stored replicas.
func (s *LocalStore) Len() int {
	s.lockAll()
	defer s.unlockAll()
	return s.backing.ItemCount()
}

// Clear removes every replica but leaves the backing (and any counters
// sharing it) alive. Tests use it to simulate replica loss in place.
func (s *LocalStore) Clear() {
	s.lockAll()
	defer s.unlockAll()
	var drop []store.Item
	s.backing.EachItem(func(it store.Item) bool {
		drop = append(drop, it)
		return true
	})
	for _, it := range drop {
		s.backing.DeleteItem(it.RingID, it.Qual)
	}
}

// Crash fails the backing the way SIGKILL would: a volatile backing
// loses everything, a durable one keeps whatever its sync policy had
// made stable.
func (s *LocalStore) Crash() {
	s.lockAll()
	defer s.unlockAll()
	s.backing.Crash()
}

// RegisterStore wires the put/get protocol for store onto ep. owns guards
// against stale lookups: a peer only accepts operations for positions it
// is currently responsible for, returning ErrNotResponsible otherwise so
// callers re-resolve (the DHT's mapping function m(k, h, t) changes over
// time, §2.1).
func RegisterStore(ep network.Endpoint, store *LocalStore, owns func(core.ID) bool) {
	ep.Handle(MethodPut, func(_ network.Addr, req network.Message) (network.Message, error) {
		r := req.(PutReq)
		if owns != nil && !owns(r.RingID) {
			return nil, fmt.Errorf("dht: put %s: %w", r.RingID, core.ErrNotResponsible)
		}
		stored := store.Put(r.RingID, r.Qual, r.Val, r.Mode)
		return PutResp{Stored: stored}, nil
	})
	ep.Handle(MethodGet, func(_ network.Addr, req network.Message) (network.Message, error) {
		r := req.(GetReq)
		if owns != nil && !owns(r.RingID) {
			return nil, fmt.Errorf("dht: get %s: %w", r.RingID, core.ErrNotResponsible)
		}
		v, ok := store.Get(r.RingID, r.Qual)
		if !ok {
			return nil, fmt.Errorf("dht: get %s %q: %w", r.RingID, r.Qual, core.ErrNotFound)
		}
		return GetResp{Val: v}, nil
	})
}

package dht

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/store"
)

// LocalStore is the replica store a peer hosts: (ring position,
// qualifier) → stamped value. Every substrate's Member holds one and
// moves its contents during responsibility handovers.
//
// LocalStore is a thin concurrency and handover layer over a
// store.Store backing: its own mutex makes the read-modify-write of
// conditional puts and the collect-and-remove of handovers atomic,
// while where the bytes live — volatile memory, write-ahead log,
// simulated depot — is the backing's business. A peer that crashes
// crashes its backing; with the default volatile store that discards
// every replica, which is what makes replicas unavailable and drives the
// paper's probability of currency and availability below 1. A durable
// backing instead survives into the §4.2.2 restart path.
type LocalStore struct {
	mu      sync.Mutex
	backing *store.Store
}

// NewLocalStore returns an empty store on volatile memory — the
// pre-durability behaviour, and still the right default for peers whose
// death should lose everything.
func NewLocalStore() *LocalStore {
	return NewLocalStoreOn(store.NewMem())
}

// NewLocalStoreOn returns a store over the given backing. The backing
// may be shared with the peer's KTS service (replica items and counters
// form one recoverable unit); a store.Store is safe for concurrent use.
func NewLocalStoreOn(s *store.Store) *LocalStore {
	return &LocalStore{backing: s}
}

// Backing exposes the storage layer, so a node can flush it on graceful
// shutdown or hand the same unit to its counter service.
func (s *LocalStore) Backing() *store.Store {
	return s.backing
}

// Put stores val under (rid, qual) subject to mode. It reports whether
// the value was stored; a backing write failure counts as not stored.
func (s *LocalStore) Put(rid core.ID, qual string, val core.Value, mode PutMode) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.backing.GetItem(rid, qual)
	if !ok {
		return core.Value{}, false
	}
	return v.Clone(), true
}

// CollectIf returns every item whose ring position satisfies pred,
// removing them when remove is set. Handover paths use it: a Chord node
// collects the arc it is ceding; a CAN node collects a zone.
func (s *LocalStore) CollectIf(pred func(core.ID) bool, remove bool) []store.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []store.Item
	s.backing.EachItem(func(it store.Item) bool {
		if pred(it.RingID) {
			it.Val = it.Val.Clone()
			out = append(out, it)
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
func (s *LocalStore) Snapshot() []store.Item {
	return s.CollectIf(func(core.ID) bool { return true }, false)
}

// Absorb installs items collected elsewhere, keeping the newer value on
// qualifier collisions (a replica must never travel backwards in time).
func (s *LocalStore) Absorb(items []store.Item) {
	for _, it := range items {
		s.Put(it.RingID, it.Qual, it.Val, PutIfNewer)
	}
}

// Len returns the number of stored replicas.
func (s *LocalStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backing.ItemCount()
}

// Clear removes every replica but leaves the backing (and any counters
// sharing it) alive. Tests use it to simulate replica loss in place.
func (s *LocalStore) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.mu.Lock()
	defer s.mu.Unlock()
	s.backing.Crash()
}

// RegisterStore serves the put/get protocol for store on ep and returns
// its method table, for the peer's own router to serve in-process
// (Member.StoreHandlers): one table reaches the store from other peers
// and from the peer itself. owns guards against stale lookups: a peer
// only accepts operations for positions it is currently responsible
// for, returning ErrNotResponsible otherwise so callers re-resolve (the
// DHT's mapping function m(k, h, t) changes over time, §2.1). A batch
// runs the single put for each of its items, so one item's refusal is
// that item's outcome alone. LocalStore's Put and Get clone the value,
// so the caller's buffer and the stored replica never share memory on
// the in-process path either.
func RegisterStore(ep network.Endpoint, store *LocalStore, owns func(core.ID) bool) map[string]network.HandlerFunc {
	put := func(r PutReq) (stored bool, err error) {
		if owns != nil && !owns(r.RingID) {
			return false, fmt.Errorf("dht: put %s: %w", r.RingID, core.ErrNotResponsible)
		}
		return store.Put(r.RingID, r.Qual, r.Val, r.Mode), nil
	}
	handlers := map[string]network.HandlerFunc{
		MethodPut: network.Typed(func(r PutReq) (network.Message, error) {
			stored, err := put(r)
			if err != nil {
				return nil, err
			}
			return PutResp{Stored: stored}, nil
		}),
		MethodPutBatch: network.Typed(func(r PutBatchReq) (network.Message, error) {
			n := len(r.Items)
			resp := PutBatchResp{Stored: make([]bool, n), Code: make([]string, n), Msg: make([]string, n)}
			for i, it := range r.Items {
				var err error
				if resp.Stored[i], err = put(PutReq{RingID: it.RingID, Qual: it.Qual, Val: it.Val, Mode: r.Mode}); err != nil {
					resp.Code[i], resp.Msg[i] = network.EncodeError(err)
				}
			}
			return resp, nil
		}),
		MethodGet: network.Typed(func(r GetReq) (network.Message, error) {
			if owns != nil && !owns(r.RingID) {
				return nil, fmt.Errorf("dht: get %s: %w", r.RingID, core.ErrNotResponsible)
			}
			v, ok := store.Get(r.RingID, r.Qual)
			if !ok {
				return nil, fmt.Errorf("dht: get %s %q: %w", r.RingID, r.Qual, core.ErrNotFound)
			}
			return GetResp{Val: v}, nil
		}),
	}
	for method, h := range handlers {
		ep.Handle(method, h)
	}
	return handlers
}

package store

import (
	"sync"

	"repro/internal/core"
)

// Depot models the durable media of a simulated cluster: one retained
// state per peer name, kept deterministically in memory. A peer opens
// its slot at birth, writes through it while alive, and can crash at any
// moment — the depot keeps the slot, so a later restart-with-state
// resumes exactly where the "disk" was. This is what lets the scenario
// engine's restart-wave events and the recovery figure model the paper's
// §4.2.2 restart path without touching a real filesystem (which would
// break bit-identical replay).
//
// A DepotStore behaves like a WAL under SyncAlways: every write is
// immediately stable. Crash only kills the handle; the retained state
// survives untouched.
type Depot struct {
	mu    sync.Mutex
	slots map[string]*Mem
}

// NewDepot returns an empty depot.
func NewDepot() *Depot {
	return &Depot{slots: make(map[string]*Mem)}
}

// Open returns the durable store for the named peer, creating an empty
// slot on first open and resuming the retained state on every later one.
func (d *Depot) Open(name string) *DepotStore {
	d.mu.Lock()
	defer d.mu.Unlock()
	slot, ok := d.slots[name]
	if !ok {
		slot = NewMem()
		d.slots[name] = slot
	}
	return &DepotStore{slot: slot}
}

// Has reports whether the named peer has a retained slot with any state.
func (d *Depot) Has(name string) bool {
	d.mu.Lock()
	slot, ok := d.slots[name]
	d.mu.Unlock()
	return ok && (slot.ItemCount() > 0 || len(slot.Counters()) > 0)
}

// Drop discards the named peer's slot — the disk itself died.
func (d *Depot) Drop(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.slots, name)
}

// DepotStore is one peer's handle onto its depot slot. After Crash or
// Close the handle goes inert: reads come back empty and writes are
// dropped, but the depot's retained slot is untouched either way.
type DepotStore struct {
	mu   sync.Mutex
	dead bool
	slot *Mem
}

var _ Store = (*DepotStore)(nil)

// live returns the slot, or nil when the handle is dead.
func (s *DepotStore) live() *Mem {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return nil
	}
	return s.slot
}

// PutItem implements Store.
func (s *DepotStore) PutItem(it Item) error {
	if m := s.live(); m != nil {
		return m.PutItem(it)
	}
	return nil
}

// GetItem implements Store.
func (s *DepotStore) GetItem(rid core.ID, qual string) (core.Value, bool) {
	if m := s.live(); m != nil {
		return m.GetItem(rid, qual)
	}
	return core.Value{}, false
}

// DeleteItem implements Store.
func (s *DepotStore) DeleteItem(rid core.ID, qual string) error {
	if m := s.live(); m != nil {
		return m.DeleteItem(rid, qual)
	}
	return nil
}

// EachItem implements Store.
func (s *DepotStore) EachItem(fn func(Item) bool) {
	if m := s.live(); m != nil {
		m.EachItem(fn)
	}
}

// ItemCount implements Store.
func (s *DepotStore) ItemCount() int {
	if m := s.live(); m != nil {
		return m.ItemCount()
	}
	return 0
}

// PutCounter implements Store.
func (s *DepotStore) PutCounter(k core.Key, ts core.Timestamp) error {
	if m := s.live(); m != nil {
		return m.PutCounter(k, ts)
	}
	return nil
}

// GetCounter implements Store.
func (s *DepotStore) GetCounter(k core.Key) (core.Timestamp, bool) {
	if m := s.live(); m != nil {
		return m.GetCounter(k)
	}
	return core.TSZero, false
}

// DeleteCounter implements Store.
func (s *DepotStore) DeleteCounter(k core.Key) error {
	if m := s.live(); m != nil {
		return m.DeleteCounter(k)
	}
	return nil
}

// Counters implements Store.
func (s *DepotStore) Counters() []Counter {
	if m := s.live(); m != nil {
		return m.Counters()
	}
	return nil
}

// Sync implements Store: depot writes are stable the moment they land.
func (s *DepotStore) Sync() error { return nil }

// Crash implements Store: the handle dies, the retained slot survives —
// the simulation's disk outlives the simulated process.
func (s *DepotStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dead = true
}

// Close implements Store.
func (s *DepotStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dead = true
	return nil
}

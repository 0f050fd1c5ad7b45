package store

import "sync"

// Depot models the durable media of a simulated cluster: one retained
// state per peer name, kept deterministically in memory. A peer opens
// its slot at birth, writes through it while alive, and can crash at any
// moment — the depot keeps the slot, so a later restart-with-state
// resumes exactly where the "disk" was. This is what lets the scenario
// engine's restart-wave events and the recovery figure model the paper's
// §4.2.2 restart path without touching a real filesystem (which would
// break bit-identical replay).
//
// A depot handle behaves like a WAL under SyncAlways: every write is
// immediately stable. Crash only kills the handle; the slot survives
// untouched.
type Depot struct {
	mu    sync.Mutex
	slots map[string]*state
}

// NewDepot returns an empty depot.
func NewDepot() *Depot {
	return &Depot{slots: make(map[string]*state)}
}

// Open returns a handle on the named peer's slot, creating an empty slot
// on first open and resuming the retained state on every later one. A
// nil depot opens nil, which a peer takes as "volatile".
func (d *Depot) Open(name string) *Store {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.slots[name]
	if !ok {
		st = newState()
		d.slots[name] = st
	}
	return open(st, nil)
}

// Has reports whether the named peer has a retained slot with any state.
func (d *Depot) Has(name string) bool {
	d.mu.Lock()
	st, ok := d.slots[name]
	d.mu.Unlock()
	if !ok {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.items) > 0 || len(st.counters) > 0
}

// Drop discards the named peer's slot — the disk itself died.
func (d *Depot) Drop(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.slots, name)
}

package store

import (
	"sync"

	"repro/internal/core"
)

// Mem is the map-backed, volatile Store: the behaviour every peer had
// before the durability subsystem existed. A crash discards everything,
// which is exactly the paper's fail-stop departure model — replicas and
// counters die with the peer.
//
// Mem is internally synchronized because the replica path and the
// counter path reach it under different locks.
type Mem struct {
	mu       sync.Mutex
	items    map[core.ID]map[string]core.Value
	counters map[core.Key]core.Timestamp
}

var _ Store = (*Mem)(nil)

// NewMem returns an empty volatile store.
func NewMem() *Mem {
	return &Mem{
		items:    make(map[core.ID]map[string]core.Value),
		counters: make(map[core.Key]core.Timestamp),
	}
}

// PutItem implements Store.
func (m *Mem) PutItem(it Item) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.items[it.RingID]
	if q == nil {
		q = make(map[string]core.Value)
		m.items[it.RingID] = q
	}
	q[it.Qual] = it.Val
	return nil
}

// GetItem implements Store.
func (m *Mem) GetItem(rid core.ID, qual string) (core.Value, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.items[rid]
	if !ok {
		return core.Value{}, false
	}
	v, ok := q[qual]
	return v, ok
}

// DeleteItem implements Store.
func (m *Mem) DeleteItem(rid core.ID, qual string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q, ok := m.items[rid]; ok {
		delete(q, qual)
		if len(q) == 0 {
			delete(m.items, rid)
		}
	}
	return nil
}

// EachItem implements Store.
func (m *Mem) EachItem(fn func(Item) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for rid, q := range m.items {
		for qual, val := range q {
			if !fn(Item{RingID: rid, Qual: qual, Val: val}) {
				return
			}
		}
	}
}

// ItemCount implements Store.
func (m *Mem) ItemCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, q := range m.items {
		n += len(q)
	}
	return n
}

// PutCounter implements Store.
func (m *Mem) PutCounter(k core.Key, ts core.Timestamp) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters[k] = ts
	return nil
}

// GetCounter implements Store.
func (m *Mem) GetCounter(k core.Key) (core.Timestamp, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.counters[k]
	return ts, ok
}

// DeleteCounter implements Store.
func (m *Mem) DeleteCounter(k core.Key) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.counters, k)
	return nil
}

// Counters implements Store.
func (m *Mem) Counters() []Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Counter, 0, len(m.counters))
	for k, ts := range m.counters {
		out = append(out, Counter{Key: k, TS: ts})
	}
	return out
}

// Sync implements Store: memory is never any more stable than it is.
func (m *Mem) Sync() error { return nil }

// Crash implements Store: everything volatile is lost.
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.items = make(map[core.ID]map[string]core.Value)
	m.counters = make(map[core.Key]core.Timestamp)
}

// Close implements Store.
func (m *Mem) Close() error { return nil }

package kts

import (
	"maps"
	"slices"

	"repro/internal/core"
)

// VCS is the Valid Counters Set of §4.1.2: the per-peer set of counters
// this peer may use for timestamp generation. The paper asks for a
// binary search tree "such that given a key k seeking c(p,k) can be done
// rapidly"; a map seeks faster still. The one thing a tree gives that a
// map does not is order, so Each and Keys walk the keys sorted: the
// handover batch, a recovery and an inspection round then see the
// counters in the same order on every replay.
//
// VCS is not synchronized; the owning Service serializes access.
type VCS map[core.Key]core.Timestamp

// NewVCS returns an empty set (rule 1 of §4.1.2: a joining peer starts
// with VCS = ∅).
func NewVCS() VCS { return VCS{} }

// Len returns the number of valid counters.
func (v VCS) Len() int { return len(v) }

// Get returns the counter for k.
func (v VCS) Get(k core.Key) (core.Timestamp, bool) {
	ts, ok := v[k]
	return ts, ok
}

// Put inserts or updates the counter for k (rule 2: initialization adds
// the counter to the set).
func (v VCS) Put(k core.Key, ts core.Timestamp) { v[k] = ts }

// Delete removes the counter for k (rule 3: responsibility loss
// invalidates the counter), reporting whether it existed.
func (v VCS) Delete(k core.Key) bool {
	_, ok := v[k]
	delete(v, k)
	return ok
}

// Each visits every counter in key order; fn returning false stops the
// walk early.
func (v VCS) Each(fn func(k core.Key, ts core.Timestamp) bool) {
	for _, k := range v.Keys() {
		if !fn(k, v[k]) {
			return
		}
	}
}

// Keys returns every counter key in sorted order.
func (v VCS) Keys() []core.Key { return slices.Sorted(maps.Keys(v)) }

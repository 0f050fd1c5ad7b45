package dht

import (
	"sync"
	"time"

	"repro/internal/core"
)

// LastTSCache holds authoritative last-ts observations, each with the
// Env time it was made at: the KTS client's cache on every peer and the
// gateway's one tier up. An entry witnesses "last_ts(k) was ts at time
// at", so its age bounds the staleness of any value at or past ts — what
// Bounded reads rest on. Only authoritative timestamps may be noted (a
// granted gen_ts, a last_ts answer, a Proven get's floor); the callers
// enforce that. Zero timestamps are ignored, a newer observation wins,
// an equal one refreshes the entry's age (the authority re-confirmed
// it), and only a genuinely new key can evict once a stripe is full.
//
// The cache is striped by key hash: concurrent readers and writers of
// different keys proceed in parallel. The zero value is ready to use.
type LastTSCache struct {
	stripes [lastTSStripes]lastTSStripe
}

type lastTSStripe struct {
	mu sync.Mutex
	m  map[core.Key]lastTSEntry
}

type lastTSEntry struct {
	ts core.Timestamp
	at time.Duration
}

const (
	// lastTSStripes is the cache's lock fan-out (a power of two).
	lastTSStripes = 16
	// lastTSCap bounds the cache, lastTSCap/lastTSStripes keys a stripe.
	// Eviction order is arbitrary, so the cap is set far above any
	// simulated working set — determinism is only at risk for a client
	// tracking more than 64k hot keys.
	lastTSCap = 1 << 16
)

// stripe picks a key's stripe by FNV-1a, independent of the ring hashes
// so cache contention does not correlate with replica placement.
func (c *LastTSCache) stripe(k core.Key) *lastTSStripe {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return &c.stripes[h&(lastTSStripes-1)]
}

// Note records that last_ts(k) was ts at Env time at.
func (c *LastTSCache) Note(k core.Key, ts core.Timestamp, at time.Duration) {
	if ts.IsZero() {
		return
	}
	s := c.stripe(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[core.Key]lastTSEntry)
	}
	if e, ok := s.m[k]; ok {
		if ts.Less(e.ts) {
			return
		}
	} else if len(s.m) >= lastTSCap/lastTSStripes {
		for victim := range s.m {
			delete(s.m, victim)
			break
		}
	}
	s.m[k] = lastTSEntry{ts: ts, at: at}
}

// Get returns the entry for k and its age. The clock is read after the
// entry, never before: an entry a concurrent Note stamped between the
// two would otherwise show a negative age. The age is clamped at zero
// besides, should a caller have noted a time ahead of now.
func (c *LastTSCache) Get(k core.Key, now func() time.Duration) (ts core.Timestamp, age time.Duration, ok bool) {
	s := c.stripe(k)
	s.mu.Lock()
	e, ok := s.m[k]
	s.mu.Unlock()
	if !ok {
		return core.TSZero, 0, false
	}
	return e.ts, max(0, now()-e.at), true
}

// Len reports the number of cached keys.
func (c *LastTSCache) Len() int {
	n := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

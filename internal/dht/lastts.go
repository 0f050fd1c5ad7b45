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
// it), and only a genuinely new key can evict once the cache is full.
// The zero value is ready to use.
type LastTSCache struct {
	mu sync.Mutex
	m  map[core.Key]lastTSEntry
}

type lastTSEntry struct {
	ts core.Timestamp
	at time.Duration
}

// lastTSCap bounds the cache. Eviction order is arbitrary, so the cap is
// set far above any simulated working set — determinism is only at risk
// for a client tracking more than 64k hot keys.
const lastTSCap = 1 << 16

// Note records that last_ts(k) was ts at Env time at.
func (c *LastTSCache) Note(k core.Key, ts core.Timestamp, at time.Duration) {
	if ts.IsZero() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[core.Key]lastTSEntry)
	}
	if e, ok := c.m[k]; ok {
		if ts.Less(e.ts) {
			return
		}
	} else if len(c.m) >= lastTSCap {
		for victim := range c.m {
			delete(c.m, victim)
			break
		}
	}
	c.m[k] = lastTSEntry{ts: ts, at: at}
}

// Get returns the entry for k and its age. The clock is read after the
// entry, never before: an entry a concurrent Note stamped between the
// two would otherwise show a negative age. The age is clamped at zero
// besides, should a caller have noted a time ahead of now.
func (c *LastTSCache) Get(k core.Key, now func() time.Duration) (ts core.Timestamp, age time.Duration, ok bool) {
	c.mu.Lock()
	e, ok := c.m[k]
	c.mu.Unlock()
	if !ok {
		return core.TSZero, 0, false
	}
	return e.ts, max(0, now()-e.at), true
}

// Len reports the number of cached keys.
func (c *LastTSCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

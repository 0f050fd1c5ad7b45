package dht

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
)

// PathCacheConfig tunes a CachedRing.
type PathCacheConfig struct {
	// Capacity bounds the number of cached arcs; zero selects 128.
	Capacity int
	// ProbeTimeout is the patience granted one ownership probe; zero
	// selects 2s. A probe that times out is treated like a refusal: the
	// entry is evicted and the lookup falls back to the inner ring.
	ProbeTimeout time.Duration
	// Obs receives cache metrics when non-nil.
	Obs *obs.Registry
}

func (c *PathCacheConfig) defaults() {
	if c.Capacity <= 0 {
		c.Capacity = 128
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
}

// cacheArc records that every position on the arc [From, To] was owned
// by Ref when last verified. From is the smallest (most counter-
// clockwise) position this issuer has resolved to Ref; To is Ref's ring
// position. On a ring where a node owns the arc up to and including its
// own position, any id inside the recorded arc has the same owner — a
// later lookup of a nearby id is answered from the cache after a single
// confirmation probe instead of a full routing walk.
type cacheArc struct {
	From, To core.ID
	Ref      NodeRef
	lastUse  uint64
}

func (a *cacheArc) covers(id core.ID) bool {
	return id == a.From || id.Between(a.From, a.To)
}

// CachedRing wraps a Ring with a Kademlia-style lookup path cache: key
// arcs learned from prior lookups short-circuit routing to a single
// ownership probe. Correctness never rests on the cache — before a
// cached owner is used it is asked (MethodOwns) whether it still owns
// the position, and a refusal, timeout or dead peer evicts the entry
// and falls back to the inner ring's lookup. Even a probe that lies
// (answered just before a handover) is harmless: the store's own
// owns-check rejects misdirected puts/gets with ErrNotResponsible and
// the client re-resolves.
//
// CachedRing implements Ring and forwards handover registration, so it
// drops in wherever the services expect the substrate.
type CachedRing struct {
	inner Ring
	cfg   PathCacheConfig

	mu   sync.Mutex
	arcs []*cacheArc
	seq  uint64

	hits      *obs.Counter
	misses    *obs.Counter
	fallbacks *obs.Counter
}

var (
	_ Ring              = (*CachedRing)(nil)
	_ HandoverRegistrar = (*CachedRing)(nil)
)

// NewCachedRing wraps inner with a path cache.
func NewCachedRing(inner Ring, cfg PathCacheConfig) *CachedRing {
	cfg.defaults()
	c := &CachedRing{inner: inner, cfg: cfg}
	r := cfg.Obs
	c.hits = r.Counter("dcdht_pathcache_hits_total", "Lookups answered from the path cache (probe confirmed).")
	c.misses = r.Counter("dcdht_pathcache_misses_total", "Lookups with no covering cache arc.")
	c.fallbacks = r.Counter("dcdht_pathcache_fallbacks_total", "Cache arcs evicted after a failed or refused ownership probe.")
	r.GaugeFunc("dcdht_pathcache_arcs", "Cached lookup arcs currently held.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.arcs))
	})
	return c
}

// Inner returns the wrapped ring.
func (c *CachedRing) Inner() Ring { return c.inner }

func (c *CachedRing) Self() NodeRef              { return c.inner.Self() }
func (c *CachedRing) Endpoint() network.Endpoint { return c.inner.Endpoint() }
func (c *CachedRing) Env() network.Env           { return c.inner.Env() }
func (c *CachedRing) OwnsID(id core.ID) bool     { return c.inner.OwnsID(id) }
func (c *CachedRing) Alive() bool                { return c.inner.Alive() }
func (c *CachedRing) Obs() *obs.Registry         { return c.inner.Obs() }

// Guess forwards to the inner ring: the substrate's own routing state is
// positive knowledge, a cached arc is only a hint that needs its probe.
func (c *CachedRing) Guess(id core.ID) (NodeRef, bool) { return c.inner.Guess(id) }

// RegisterHandover forwards to the substrate when it supports handover.
func (c *CachedRing) RegisterHandover(h Handover) {
	if r, ok := c.inner.(HandoverRegistrar); ok {
		r.RegisterHandover(h)
	}
}

// Lookup resolves id through the cache when a verified arc covers it,
// and through the inner ring otherwise. hops counts remote probes: a
// confirmed cache hit costs exactly one (zero when the cached owner is
// this peer), a miss costs the inner lookup's hops.
func (c *CachedRing) Lookup(ctx context.Context, id core.ID) (NodeRef, int, error) {
	if ref, hops, ok := c.tryCache(ctx, id); ok {
		return ref, hops, nil
	}
	ref, hops, err := c.inner.Lookup(ctx, id)
	if err == nil {
		c.learn(id, ref)
	}
	return ref, hops, err
}

// tryCache probes the covering arc, if any. It reports ok only when the
// cached owner confirmed ownership; every other outcome (no arc, probe
// failure, refusal) leaves the caller to the inner lookup.
func (c *CachedRing) tryCache(ctx context.Context, id core.ID) (NodeRef, int, bool) {
	c.mu.Lock()
	var arc *cacheArc
	for _, a := range c.arcs {
		if a.covers(id) {
			arc = a
			c.seq++
			a.lastUse = c.seq
			break
		}
	}
	c.mu.Unlock()
	if arc == nil {
		c.misses.Inc()
		return NodeRef{}, 0, false
	}
	ref := arc.Ref
	if ref.Addr == c.inner.Self().Addr {
		// Our own liveness view is free and authoritative.
		if c.inner.OwnsID(id) {
			c.hits.Inc()
			return c.inner.Self(), 0, true
		}
		c.evict(arc)
		return NodeRef{}, 0, false
	}
	resp, err := c.inner.Endpoint().Invoke(ctx, ref.Addr, MethodOwns,
		OwnsReq{RingID: id}, network.Call{Timeout: c.cfg.ProbeTimeout})
	if err != nil || !resp.(OwnsResp).Owns {
		c.evict(arc)
		return NodeRef{}, 0, false
	}
	c.hits.Inc()
	return ref, 1, true
}

// evict removes a stale arc and counts the fallback.
func (c *CachedRing) evict(arc *cacheArc) {
	c.fallbacks.Inc()
	c.mu.Lock()
	for i, a := range c.arcs {
		if a == arc {
			c.arcs = append(c.arcs[:i], c.arcs[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// learn records that id resolved to ref. An existing arc ending at the
// same owner widens to cover id; otherwise a new arc [id, ref.ID] is
// inserted, evicting the least recently used arc at capacity.
func (c *CachedRing) learn(id core.ID, ref NodeRef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	for _, a := range c.arcs {
		if a.Ref.Addr != ref.Addr || a.To != ref.ID {
			continue
		}
		a.lastUse = c.seq
		if !a.covers(id) {
			// id is counter-clockwise of the arc: widen toward it. The
			// owner's arc is contiguous, so everything between id and
			// the owner shares the owner.
			a.From = id
		}
		return
	}
	if len(c.arcs) >= c.cfg.Capacity {
		lru := 0
		for i := range c.arcs {
			if c.arcs[i].lastUse < c.arcs[lru].lastUse {
				lru = i
			}
		}
		c.arcs = append(c.arcs[:lru], c.arcs[lru+1:]...)
	}
	c.arcs = append(c.arcs, &cacheArc{From: id, To: ref.ID, Ref: ref, lastUse: c.seq})
}

// PathCacheStats is a point-in-time view of cache effectiveness.
type PathCacheStats struct {
	Hits, Misses, Fallbacks uint64
	Arcs                    int
}

// Stats returns current counters. Deterministic under simulation.
func (c *CachedRing) Stats() PathCacheStats {
	c.mu.Lock()
	arcs := len(c.arcs)
	c.mu.Unlock()
	return PathCacheStats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Fallbacks: c.fallbacks.Value(),
		Arcs:      arcs,
	}
}

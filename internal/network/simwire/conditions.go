package simwire

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/network"
	"repro/internal/stats"
)

// Profile describes the conditions of one class of links: the one-way
// latency distribution, an extra uniform jitter, an i.i.d. message-loss
// probability, and the link bandwidth. A zero-Mean LatencyMS or
// BandwidthKbps inherits the network's base model, so a loss-only or
// jitter-only profile reshapes exactly what it names without restating
// Table 1.
type Profile struct {
	// LatencyMS is the one-way latency distribution in milliseconds; a
	// zero Mean inherits the base configuration (use a small positive
	// mean for a genuinely near-zero-latency link).
	LatencyMS stats.Normal
	// JitterMS adds a uniform draw from [0, JitterMS) milliseconds on
	// top of every sampled latency.
	JitterMS float64
	// Loss is the probability in [0, 1] that a message is silently
	// dropped in flight (the sender observes a timeout).
	Loss float64
	// BandwidthKbps overrides the per-message bandwidth model; a zero
	// Mean inherits the network's base configuration.
	BandwidthKbps stats.Normal
}

// withBase completes a profile from the base configuration: unnamed
// (zero-Mean) latency and bandwidth inherit the base model.
func (p Profile) withBase(base Config) Profile {
	if p.LatencyMS.Mean == 0 {
		p.LatencyMS = base.LatencyMS
	}
	if p.BandwidthKbps.Mean == 0 {
		p.BandwidthKbps = base.BandwidthKbps
	}
	return p
}

// linkKey identifies one directed link.
type linkKey struct {
	src, dst network.Addr
}

// link is one directed link's private deterministic stream plus its
// resolved profile. Each link consumes only its own RNG, so the sample
// a message draws depends on that link's traffic order alone — not on
// which other peers happen to be talking (and, unlike a shared stream,
// it cannot be raced from two goroutines: all draws happen under the
// model lock).
type link struct {
	rng     *rand.Rand
	prof    Profile
	version uint64 // rules version the profile was resolved against
}

// rule is one SetProfile call: a directed link-set matcher plus the
// profile it applies. Later rules win.
type rule struct {
	from, to map[network.Addr]bool // nil matches any address
	prof     Profile
}

// Model is the network's one link model: it decides every message's
// one-way delay and whether the network loses it, applying the base
// Config to every link with per-link profile overrides layered on by
// SetProfile. All state — including every per-link RNG — is guarded by
// one mutex, which is what makes the model race-free by construction
// (the shared-latency-RNG data race this design replaced lived exactly
// here) and deterministic per (seed, link, per-link message order).
type Model struct {
	newRand func(label string) *rand.Rand
	base    Config

	mu      sync.Mutex
	links   map[linkKey]*link
	rules   []rule
	version uint64 // bumped on every rule change; links re-resolve lazily
}

// NewModel builds a link model over base. newRand derives named
// deterministic RNG streams (normally simnet.Kernel.NewRand); each link
// gets its own stream the first time it carries traffic.
func NewModel(newRand func(label string) *rand.Rand, base Config) *Model {
	return &Model{
		newRand: newRand,
		base:    base.applyDefaults(),
		links:   make(map[linkKey]*link),
	}
}

// SetProfile applies a condition profile to every directed link whose
// source is in from and destination is in to; a nil slice matches any
// address, so SetProfile(nil, nil, p) reshapes the whole network. A
// non-nil empty slice matches nothing — an empty peer group must not
// collapse into the wildcard. Later calls win where they overlap. Safe
// to call while traffic flows; in-flight messages keep the delay they
// were planned with.
func (m *Model) SetProfile(from, to []network.Addr, p Profile) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rules = append(m.rules, rule{from: addrSet(from), to: addrSet(to), prof: p})
	m.version++
}

// ClearProfiles removes every profile rule, restoring the base model on
// all links.
func (m *Model) ClearProfiles() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rules = nil
	m.version++
}

func addrSet(addrs []network.Addr) map[network.Addr]bool {
	if addrs == nil {
		return nil // wildcard
	}
	s := make(map[network.Addr]bool, len(addrs))
	for _, a := range addrs {
		s[a] = true
	}
	return s
}

// Plan returns the one-way delay for a message of the given size from
// src to dst, and whether the message is lost in flight. The draw order
// per link is fixed — latency, jitter, loss — so a replayed simulation
// consumes each link stream identically.
func (m *Model) Plan(src, dst network.Addr, bytes int) (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.linkLocked(src, dst)
	p := l.prof
	lat := p.LatencyMS.Sample(l.rng)
	if p.JitterMS > 0 {
		lat += l.rng.Float64() * p.JitterMS
	}
	lost := l.rng.Float64() < p.Loss
	bw := p.BandwidthKbps.Sample(l.rng)
	if bw <= 0 {
		bw = 1
	}
	// bytes*8 is bits; bandwidth in kbit/s equals bits/ms, so the
	// division yields transmission time in milliseconds directly.
	transMS := float64(bytes*8) / bw
	return time.Duration((lat + transMS) * float64(time.Millisecond)), lost
}

// linkLocked returns the directed link's state, creating its stream and
// resolving its profile on first use or after a rule change. Caller
// holds m.mu.
//
// Link streams are splitmix64 sources seeded deterministically off the
// kernel's named-stream derivation: 16 bytes of state per link instead
// of math/rand's 607-word lagged Fibonacci, which matters because a
// full-scale churny run realizes a new directed link for every peer
// pair that ever talks (the per-link map is never evicted).
func (m *Model) linkLocked(src, dst network.Addr) *link {
	k := linkKey{src: src, dst: dst}
	l, ok := m.links[k]
	if !ok {
		seed := m.newRand("link:" + string(src) + ">" + string(dst)).Int63()
		l = &link{rng: rand.New(&splitmix64{x: uint64(seed)})}
		l.version = m.version + 1 // force profile resolution below
		m.links[k] = l
	}
	if l.version != m.version {
		l.prof = m.resolveLocked(src, dst)
		l.version = m.version
	}
	return l
}

// splitmix64 implements rand.Source64 in 8 bytes of state (Steele et
// al., "Fast Splittable Pseudorandom Number Generators"). Quality is
// ample for latency/loss draws, and the size is what keeps the
// per-link stream map cheap at full scale.
type splitmix64 struct{ x uint64 }

// Seed implements rand.Source.
func (s *splitmix64) Seed(seed int64) { s.x = uint64(seed) }

// Int63 implements rand.Source.
func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Uint64 implements rand.Source64.
func (s *splitmix64) Uint64() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// resolveLocked finds the active profile for a directed link: the last
// matching rule, or the base configuration. Caller holds m.mu.
func (m *Model) resolveLocked(src, dst network.Addr) Profile {
	for i := len(m.rules) - 1; i >= 0; i-- {
		r := m.rules[i]
		if (r.from == nil || r.from[src]) && (r.to == nil || r.to[dst]) {
			return r.prof.withBase(m.base)
		}
	}
	return Profile{LatencyMS: m.base.LatencyMS, BandwidthKbps: m.base.BandwidthKbps}
}

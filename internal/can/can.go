// Package can implements CAN, the Content-Addressable Network
// (Ratnasamy et al., SIGCOMM 2001) — the second DHT the paper discusses
// (§4.2.1.1): a d-dimensional coordinate space partitioned into zones,
// greedy routing between zone neighbors, zone splits on join and
// neighbor takeover on departure.
//
// The package exists to demonstrate the paper's claim that the direct
// counter-transfer algorithm applies beyond Chord: in CAN, too, the next
// responsible for a key is always a neighbor of the current responsible,
// so KTS counters move in O(1) messages on graceful handoffs. can.Node
// implements the same dht.Ring and dht.HandoverRegistrar contracts as
// chord.Node, so KTS/UMS/BRK run on it unchanged.
package can

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
)

// D is the dimensionality of the coordinate space.
const D = 2

// Point is a location in [0,1)^D. Keys map to points by splitting their
// 64-bit ring ID into D fixed-point coordinates.
type Point [D]float64

// PointOf derives the coordinates for a ring position.
func PointOf(id core.ID) Point {
	const bits = 64 / D
	const scale = 1 << bits
	var p Point
	v := uint64(id)
	for i := 0; i < D; i++ {
		p[i] = float64(v&(scale-1)) / scale
		v >>= bits
	}
	return p
}

// Zone is a half-open box [Lo, Hi) in the coordinate space.
type Zone struct {
	Lo, Hi Point
}

// FullZone covers the whole space.
func FullZone() Zone {
	var z Zone
	for i := 0; i < D; i++ {
		z.Hi[i] = 1
	}
	return z
}

// Contains reports whether p lies in the zone.
func (z Zone) Contains(p Point) bool {
	for i := 0; i < D; i++ {
		if p[i] < z.Lo[i] || p[i] >= z.Hi[i] {
			return false
		}
	}
	return true
}

// Volume returns the zone's measure (its share of the key space).
func (z Zone) Volume() float64 {
	v := 1.0
	for i := 0; i < D; i++ {
		v *= z.Hi[i] - z.Lo[i]
	}
	return v
}

// Center returns the zone's midpoint.
func (z Zone) Center() Point {
	var c Point
	for i := 0; i < D; i++ {
		c[i] = (z.Lo[i] + z.Hi[i]) / 2
	}
	return c
}

// Split halves the zone along its longest dimension (ties: lowest
// index), returning the lower and upper halves — CAN's split rule.
func (z Zone) Split() (lower, upper Zone) {
	dim := 0
	size := z.Hi[0] - z.Lo[0]
	for i := 1; i < D; i++ {
		if s := z.Hi[i] - z.Lo[i]; s > size {
			dim, size = i, s
		}
	}
	mid := z.Lo[dim] + size/2
	lower, upper = z, z
	lower.Hi[dim] = mid
	upper.Lo[dim] = mid
	return lower, upper
}

// Abuts reports whether two zones are neighbors: they touch along
// exactly one dimension and overlap in all others.
func (z Zone) Abuts(o Zone) bool {
	touch := 0
	for i := 0; i < D; i++ {
		switch {
		case z.Hi[i] == o.Lo[i] || o.Hi[i] == z.Lo[i]:
			touch++
		case z.Lo[i] < o.Hi[i] && o.Lo[i] < z.Hi[i]:
			// overlapping extent in this dimension
		default:
			return false // disjoint with a gap
		}
	}
	return touch >= 1
}

// DistanceTo returns the Euclidean distance from p to the zone (zero if
// inside) — the greedy routing metric.
func (z Zone) DistanceTo(p Point) float64 {
	sum := 0.0
	for i := 0; i < D; i++ {
		switch {
		case p[i] < z.Lo[i]:
			d := z.Lo[i] - p[i]
			sum += d * d
		case p[i] >= z.Hi[i]:
			d := p[i] - z.Hi[i]
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}

func (z Zone) String() string {
	return fmt.Sprintf("[%.3f,%.3f)x[%.3f,%.3f)", z.Lo[0], z.Hi[0], z.Lo[1], z.Hi[1])
}

// Config tunes the node.
type Config struct {
	// PingEvery is the neighbor liveness probe period. Default 30s.
	PingEvery time.Duration
	// RPCTimeout bounds protocol RPCs; zero uses the transport default.
	RPCTimeout time.Duration
	// MemberConfig holds the handoff model, the store backing and the
	// metrics registry.
	dht.MemberConfig
}

func (c Config) withDefaults() Config {
	if c.PingEvery == 0 {
		c.PingEvery = 30 * time.Second
	}
	return c
}

// maxRouteSteps bounds one greedy walk.
const maxRouteSteps = 256

// neighbor is this node's view of an adjacent peer. strikes counts
// consecutive failed probe rounds; takeover fires on the second strike,
// not the first, so the one-round-trip window of a graceful leave (the
// leaver goes silent before its Gone notices land) cannot trigger a
// spurious crash takeover that double-claims zones the designated
// successor already absorbed.
type neighbor struct {
	ref     dht.NodeRef
	zones   []Zone
	strikes int
}

// Node is one CAN peer. A node usually owns one zone; after taking over
// for a departed neighbor it may temporarily own several (the original
// protocol's "defragmentation" is deliberately left as background
// repair via re-splits on join).
type Node struct {
	*dht.Member
	cfg Config

	mu        sync.Mutex
	zones     []Zone
	held      time.Duration // Env time zones last changed (zonesChangedLocked)
	neighbors map[core.ID]*neighbor
}

var _ dht.Ring = (*Node)(nil)
var _ dht.HandoverRegistrar = (*Node)(nil)
var _ dht.RingNode = (*Node)(nil)

// New creates a node. Call CreateSpace or Join before Start.
func New(env network.Env, ep network.Endpoint, id core.ID, cfg Config) *Node {
	n := &Node{cfg: cfg.withDefaults(), neighbors: make(map[core.ID]*neighbor)}
	n.Member = dht.NewMember(env, ep, id, cfg.MemberConfig, cfg.RPCTimeout, n.OwnsID)
	n.registerHandlers()
	return n
}

// OwnsID implements dht.Ring: the node is responsible for id iff the
// point of id lies in one of its zones.
func (n *Node) OwnsID(id core.ID) bool {
	if !n.Alive() {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	p := PointOf(id)
	for _, z := range n.zones {
		if z.Contains(p) {
			return true
		}
	}
	return false
}

// HeldSince implements dht.Ring: the zones are held since they last
// changed. A node with no neighbor owns its zones only because it knows
// of nobody else, the CAN form of a ring of one, which is nothing steady.
func (n *Node) HeldSince() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.neighbors) == 0 {
		return n.Env().Now()
	}
	return n.held
}

// zonesChangedLocked follows every write to n.zones: whether the write
// grew or shrank them, HeldSince restarts.
func (n *Node) zonesChangedLocked() { n.held = n.Env().Now() }

// Guess implements dht.Ring: this node when one of its zones contains
// the point of id, else the neighbor whose recorded zones do. Stale
// neighbor records can overlap after a split; the lowest ID wins so the
// choice does not depend on map order.
func (n *Node) Guess(id core.ID) (dht.NodeRef, dht.GuessSource) {
	if !n.Alive() {
		return dht.NodeRef{}, dht.NoGuess
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	p := PointOf(id)
	for _, z := range n.zones {
		if z.Contains(p) {
			return n.Self(), dht.GuessRouting
		}
	}
	var best dht.NodeRef
	for _, nb := range n.neighbors {
		for _, z := range nb.zones {
			if z.Contains(p) && (best.IsZero() || nb.ref.ID < best.ID) {
				best = nb.ref
			}
		}
	}
	if best.IsZero() {
		return best, dht.NoGuess
	}
	return best, dht.GuessRouting
}

// Zones returns a copy of the owned zones.
func (n *Node) Zones() []Zone {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Zone, len(n.zones))
	copy(out, n.zones)
	return out
}

// Neighbors returns the current neighbor references.
func (n *Node) Neighbors() []dht.NodeRef {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]dht.NodeRef, 0, len(n.neighbors))
	for _, nb := range n.neighborsLocked() {
		out = append(out, nb.ref)
	}
	return out
}

// neighborsLocked returns the neighbor entries in ID order. Every walk
// whose order shows — a routing tie, a fan-out, a list on the wire —
// goes in this order, so one seed replays the same messages in the same
// sequence. Callers hold n.mu.
func (n *Node) neighborsLocked() []*neighbor {
	out := make([]*neighbor, 0, len(n.neighbors))
	for _, nb := range n.neighbors {
		out = append(out, nb)
	}
	slices.SortFunc(out, func(a, b *neighbor) int { return cmp.Compare(a.ref.ID, b.ref.ID) })
	return out
}

// CreateSpace makes this node the first peer, owning the whole space.
func (n *Node) CreateSpace() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.zones = []Zone{FullZone()}
	n.zonesChangedLocked()
}

// CreateRing implements dht.RingNode; on CAN "the ring" is the
// coordinate space.
func (n *Node) CreateRing() { n.CreateSpace() }

// Nudge implements dht.RingNode, best-effort. CAN has no cheap
// cross-partition rendezvous: after a split both sides' zone sets still
// tile the full space, so re-merging ownership would need zone
// arbitration, not just a pointer nudge. Nudge therefore only
// re-announces this node's zones to its current neighborhood (refreshing
// peers whose view went stale during the partition); the conformance
// suite exercises heal re-merge only on substrates that declare support.
func (n *Node) Nudge(bootstrap network.Addr) error {
	if !n.Alive() {
		return core.ErrStopped
	}
	n.broadcastUpdate()
	return nil
}

// distanceTo returns the distance from the node's closest zone to p;
// callers hold n.mu.
func (n *Node) distanceToLocked(p Point) float64 {
	best := math.Inf(1)
	for _, z := range n.zones {
		if d := z.DistanceTo(p); d < best {
			best = d
		}
	}
	return best
}

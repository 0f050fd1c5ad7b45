package dht

import (
	"context"
	"errors"
	"sort"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
)

// RepublishConfig tunes a Republisher.
type RepublishConfig struct {
	// Every is the round period; zero disables the background loop
	// (RunOnce still works for tests and manual rounds).
	Every time.Duration
	// PerRound caps the replicas re-pushed per round so a large store
	// never floods the overlay in one burst; zero selects 16.
	PerRound int
	// RPCTimeout bounds each re-push; zero selects 2s.
	RPCTimeout time.Duration
}

func (c *RepublishConfig) defaults() {
	if c.PerRound <= 0 {
		c.PerRound = 16
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
}

// Republisher periodically re-pushes locally stored replicas to the
// peer currently responsible for them — the Kademlia-style republish
// round that fixes "new nodes can't find old values": under the paper's
// data model a joiner takes over an arc without inheriting its data, so
// an old value becomes unreachable at its own position until somebody
// stores it again. Each round walks a bounded slice of the local store
// (rotating cursor, sorted order, deterministic under simulation),
// skips positions this peer still owns, and PutIfNewer-s the rest to
// their current owner. The local copy is kept: republish moves replicas
// forward in time, never destroys them, and the store's owns-check on
// the receiving side keeps misdirected pushes out.
type Republisher struct {
	ring  Ring
	store *LocalStore
	route *Router
	cfg   RepublishConfig

	cursor int

	rounds  *obs.Counter
	pushed  *obs.Counter
	skipped *obs.Counter
	fails   *obs.Counter
}

// errOwnedHere marks a replica whose responsible turned out to be this
// peer after all.
var errOwnedHere = errors.New("dht: republish: replica is owned here")

// NewRepublisher builds a republisher over ring's local store; its
// metrics land in the ring's registry.
func NewRepublisher(ring Ring, st *LocalStore, cfg RepublishConfig) *Republisher {
	cfg.defaults()
	r := &Republisher{ring: ring, store: st, cfg: cfg}
	// One try per replica per round; a push that resolves back to this
	// peer is not a push at all.
	r.route = NewRouter(ring, RouteConfig{
		Timeout: cfg.RPCTimeout,
		Local: func(string, network.Message) (network.Message, error) {
			return nil, errOwnedHere
		},
	})
	reg := ring.Obs()
	r.rounds = reg.Counter("dcdht_republish_rounds_total", "Republish rounds run.")
	r.pushed = reg.Counter("dcdht_republish_pushed_total", "Replicas re-pushed to their current owner.")
	r.skipped = reg.Counter("dcdht_republish_skipped_total", "Replicas skipped because this peer still owns them.")
	r.fails = reg.Counter("dcdht_republish_failures_total", "Re-pushes that failed (lookup or put error).")
	return r
}

// Start launches the background round loop. No-op when Every is zero.
func (r *Republisher) Start() {
	if r.cfg.Every <= 0 {
		return
	}
	env := r.ring.Env()
	rng := env.Rand("republish:" + string(r.ring.Self().Addr))
	env.Go(func() {
		for r.ring.Alive() {
			jitter := time.Duration(rng.Int63n(int64(r.cfg.Every)/4 + 1))
			if err := env.Sleep(r.cfg.Every + jitter); err != nil {
				return
			}
			if !r.ring.Alive() {
				return
			}
			r.RunOnce(context.Background())
		}
	})
}

// RunOnce performs one republish round and returns how many replicas
// were re-pushed. Exported so tests and harnesses can drive rounds
// explicitly.
func (r *Republisher) RunOnce(ctx context.Context) int {
	r.rounds.Inc()
	items := r.store.Snapshot()
	sort.Slice(items, func(i, j int) bool {
		if items[i].RingID != items[j].RingID {
			return items[i].RingID < items[j].RingID
		}
		return items[i].Qual < items[j].Qual
	})
	if len(items) == 0 {
		return 0
	}
	n := r.cfg.PerRound
	if n > len(items) {
		n = len(items)
	}
	start := r.cursor % len(items)
	r.cursor = (start + n) % len(items)

	pushed := 0
	for i := 0; i < n; i++ {
		it := items[(start+i)%len(items)]
		if r.ring.OwnsID(it.RingID) {
			r.skipped.Inc()
			continue
		}
		_, err := r.route.Call(ctx, it.RingID, MethodPut, PutReq{
			RingID: it.RingID, Qual: it.Qual, Val: it.Val, Mode: PutIfNewer,
		})
		if errors.Is(err, errOwnedHere) {
			r.skipped.Inc()
			continue
		}
		if err != nil {
			r.fails.Inc()
			continue
		}
		pushed++
		r.pushed.Inc()
	}
	return pushed
}

// Pushed returns the cumulative count of re-pushed replicas.
func (r *Republisher) Pushed() uint64 { return r.pushed.Value() }

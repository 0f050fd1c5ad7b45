// Package gateway implements a front-end tier that multiplexes many
// clients over a small pool of DHT backends. It is the deployability
// layer the ROADMAP's "millions of clients" north star calls for: the
// ring keeps its replica fan-out and KTS traffic, while clients talk to
// a stateless gateway that
//
//   - balances operations over the backend pool (round-robin rotation +
//     least-inflight among healthy backends, with error cooldown),
//   - single-flights concurrent retrieves for the same (key, consistency
//     class), so N concurrent hot-key readers cost one backend op,
//   - answers Bounded and Eventual reads from a gateway-local last-ts
//     cache — the KTS peer-cache semantics from docs/CONSISTENCY.md
//     applied one tier up — without touching KTS at all, and
//   - fans batch operations out across the pool.
//
// Session floors are respected everywhere: a coalesced waiter only
// accepts the shared result when its timestamp is at or above the
// waiter's floor, so read-your-writes survives the extra tier even when
// a write races an in-progress flight.
//
// The package is environment-portable: batch fan-outs join through
// env.Join and coalesced waiters poll with env.Sleep, the blocking
// shapes that are legal under the simulation kernel and work unchanged
// over the real clock.
package gateway

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/obs"
)

// flightPoll is how often a coalesced waiter re-checks its flight.
const flightPoll = time.Millisecond

// Backend is one pooled DHT client: the two client operations, plus
// asking KTS for a last timestamp. The public dcdht.Gateway adapts
// dcdht.Client values; the experiment harness pools peer stacks as they
// stand. A Gateway is itself a dht.Ops, so workloads drive it directly.
type Backend interface {
	dht.Ops
	LastTS(ctx context.Context, k core.Key) (core.Timestamp, error)
}

var _ dht.Ops = (*Gateway)(nil)

// Config parameterizes a Gateway.
type Config struct {
	// Env supplies time, sleeping and goroutines. Required: the
	// simulation kernel and the real clock both satisfy it.
	Env network.Env
	// Obs receives the dcdht_gw_* metric families. Nil keeps them
	// unexported without disabling the gateway. A registry serves one
	// gateway: Stats reads these families, so two gateways on one
	// registry would each read the sum of both.
	Obs *obs.Registry
}

// Stats are the gateway's cumulative raw counters, read from its
// dcdht_gw_* families; they count with or without a registry (the
// experiment figure uses them).
type Stats struct {
	// Flights counts retrieve flights that actually hit a backend.
	Flights uint64 `json:"flights"`
	// Coalesced counts retrieves served by joining another flight.
	Coalesced uint64 `json:"coalesced"`
	// FlightRetries counts waiters that rejected the shared result
	// (error, or timestamp below their session floor) and re-read.
	FlightRetries uint64 `json:"flight_retries"`
	// CacheHits counts last-ts cache consults that found a usable entry.
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses counts consults that found nothing usable.
	CacheMisses uint64 `json:"cache_misses"`
	// CacheServedGets counts bounded gets answered via the cache floor.
	CacheServedGets uint64 `json:"cache_served_gets"`
	// CacheServedLastTS counts last_ts calls answered purely from the cache.
	CacheServedLastTS uint64 `json:"cache_served_last_ts"`
	// CacheFallbacks counts cache-path reads that fell back to the
	// caller's full policy after the cheap read failed.
	CacheFallbacks uint64 `json:"cache_fallbacks"`
	// BackendOps counts operations actually sent to backends.
	BackendOps uint64 `json:"backend_ops"`
	// BackendErrors counts backend operations that returned an error.
	BackendErrors uint64 `json:"backend_errors"`
}

// flightKey identifies one coalescable read: the key plus a consistency
// class. Reads with different acceptance strengths never share a
// flight.
type flightKey struct {
	key   core.Key
	class string
}

// classOf buckets a read policy into a flight class. Session-floor
// reads share one class even when floors differ — each waiter
// revalidates the shared result against its own floor before accepting.
func classOf(pol dht.ReadPolicy) string {
	if pol.FloorFirst && !pol.Floor.IsZero() {
		return "floor"
	}
	switch pol.Level {
	case dht.LevelBounded:
		return "bounded/" + pol.Bound.String()
	case dht.LevelEventual:
		return "eventual"
	default:
		return "current"
	}
}

// flight is one in-progress backend retrieve that concurrent readers of
// the same flightKey wait on. Fields are guarded by the gateway mutex.
type flight struct {
	done bool
	res  dht.OpResult
	err  error
}

// beMetrics are the per-backend metric instruments, resolved once at
// construction so the hot path never formats labels.
type beMetrics struct {
	ops      *obs.Counter
	errs     *obs.Counter
	inflight *obs.Gauge
}

// gwMetrics are the gateway's dcdht_gw_* families.
type gwMetrics struct {
	ops           *obs.CounterVec
	flights       *obs.Counter
	coalesced     *obs.Counter
	flightRetries *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	servedGets    *obs.Counter
	servedLastTS  *obs.Counter
	cacheFallback *obs.Counter
}

func newGWMetrics(r *obs.Registry) gwMetrics {
	served := r.CounterVec("dcdht_gw_cache_served_total",
		"Operations answered from the gateway cache without touching KTS.", "op")
	return gwMetrics{
		ops: r.CounterVec("dcdht_gw_ops_total",
			"Client operations accepted by the gateway.", "op"),
		flights: r.Counter("dcdht_gw_flights_total",
			"Retrieve flights that actually hit a backend."),
		coalesced: r.Counter("dcdht_gw_coalesced_total",
			"Retrieves served by joining another reader's flight."),
		flightRetries: r.Counter("dcdht_gw_flight_retries_total",
			"Coalesced waiters that rejected the shared result (floor or error) and re-read."),
		cacheHits: r.Counter("dcdht_gw_cache_hits_total",
			"Gateway last-ts cache consults that found a usable entry."),
		cacheMisses: r.Counter("dcdht_gw_cache_misses_total",
			"Gateway last-ts cache consults that found nothing usable."),
		servedGets:   served.With("get"),
		servedLastTS: served.With("last_ts"),
		cacheFallback: r.Counter("dcdht_gw_cache_fallback_total",
			"Cache-floor reads that failed and fell back to the full bounded policy."),
	}
}

// Gateway is the front-end tier. It is safe for concurrent use by any
// number of clients.
type Gateway struct {
	env      network.Env
	backends []Backend
	bal      *balancer
	cache    dht.LastTSCache // the KTS peer cache's semantics, one tier up
	metrics  gwMetrics
	perBE    []beMetrics

	mu      sync.Mutex
	flights map[flightKey]*flight
}

// New builds a Gateway over the given backend pool.
func New(backends []Backend, cfg Config) (*Gateway, error) {
	if len(backends) == 0 {
		return nil, errors.New("gateway: no backends")
	}
	if cfg.Env == nil {
		return nil, errors.New("gateway: Config.Env is required")
	}
	g := &Gateway{
		env:      cfg.Env,
		backends: backends,
		bal:      newBalancer(len(backends), cfg.Env.Now),
		metrics:  newGWMetrics(cfg.Obs),
		flights:  make(map[flightKey]*flight),
	}
	g.perBE = make([]beMetrics, len(backends))
	beOps := cfg.Obs.CounterVec("dcdht_gw_backend_ops_total",
		"Operations forwarded to each backend.", "backend")
	beErrs := cfg.Obs.CounterVec("dcdht_gw_backend_errors_total",
		"Forwarded operations that returned an error, per backend.", "backend")
	beInfl := cfg.Obs.GaugeVec("dcdht_gw_backend_inflight",
		"Operations currently inflight on each backend.", "backend")
	for i := range backends {
		l := strconv.Itoa(i)
		g.perBE[i] = beMetrics{
			ops:      beOps.With(l),
			errs:     beErrs.With(l),
			inflight: beInfl.With(l),
		}
	}
	return g, nil
}

// Backends reports the pool size.
func (g *Gateway) Backends() int { return len(g.backends) }

// CacheLen reports the number of keys in the gateway last-ts cache.
func (g *Gateway) CacheLen() int { return g.cache.Len() }

// Stats returns a snapshot of the gateway's cumulative counters.
func (g *Gateway) Stats() Stats {
	m := &g.metrics
	st := Stats{
		Flights:           m.flights.Value(),
		Coalesced:         m.coalesced.Value(),
		FlightRetries:     m.flightRetries.Value(),
		CacheHits:         m.cacheHits.Value(),
		CacheMisses:       m.cacheMisses.Value(),
		CacheServedGets:   m.servedGets.Value(),
		CacheServedLastTS: m.servedLastTS.Value(),
		CacheFallbacks:    m.cacheFallback.Value(),
	}
	for _, be := range g.perBE {
		st.BackendOps += be.ops.Value()
		st.BackendErrors += be.errs.Value()
	}
	return st
}

// Insert writes k through one pooled backend and feeds the granted
// timestamp to the gateway cache (a Put's timestamp IS last_ts(k) at
// that moment, exactly as the KTS peer cache reasons).
func (g *Gateway) Insert(ctx context.Context, k core.Key, data []byte) (dht.OpResult, error) {
	g.metrics.ops.With("put").Inc()
	res, err := g.backendDo(ctx, func(b Backend) (dht.OpResult, error) {
		return b.Insert(ctx, k, data)
	})
	if err == nil {
		g.cache.Note(k, res.TS, g.env.Now())
	}
	return res, err
}

// Retrieve reads k at the given policy. Bounded reads first consult the
// gateway cache: a fresh-enough entry turns the read into a floor-first
// backend read (zero KTS messages) whose result is re-labelled
// WithinBound with the cache floor and age — the same currency the KTS
// peer cache grants, one tier earlier. All reads are coalesced per
// (key, class).
func (g *Gateway) Retrieve(ctx context.Context, k core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	g.metrics.ops.With("get").Inc()
	eff := pol
	rewrite := false
	var cfloor core.Timestamp
	var age time.Duration
	if pol.Level == dht.LevelBounded && !pol.FloorFirst {
		ts, a, ok := g.cache.Get(k, g.env.Now)
		if ok && a <= pol.Bound {
			g.metrics.cacheHits.Inc()
			cfloor, age = ts.Max(pol.Floor), a
			eff = dht.ReadPolicy{Floor: cfloor, FloorFirst: true}
			rewrite = true
		} else {
			g.metrics.cacheMisses.Inc()
		}
	}
	res, err := g.coalesced(ctx, k, eff)
	if rewrite {
		if err != nil {
			// The cheap path failed (e.g. no replica at the floor was
			// reachable): pay full price rather than surface an error
			// the original policy could have absorbed.
			g.metrics.cacheFallback.Inc()
			res, err = g.coalesced(ctx, k, pol)
		} else {
			res.Currency = dht.CurrencyWithinBound
			res.Floor, res.FloorAge = cfloor, age
			g.metrics.servedGets.Inc()
		}
	}
	if err == nil && res.Currency == dht.CurrencyProven {
		// A proven result's floor is the authoritative last_ts target:
		// safe to cache. Weaker verdicts are not authoritative and
		// must not feed the cache.
		g.cache.Note(k, res.Floor, g.env.Now())
	}
	return res, err
}

// LastTS answers last_ts(k) under the given read policy. Bounded and
// Eventual consults are served purely from the gateway cache when a
// usable entry exists (zero backend and KTS messages); everything else
// forwards to a backend, and the authoritative answer feeds the cache.
func (g *Gateway) LastTS(ctx context.Context, k core.Key, pol dht.ReadPolicy) (core.Timestamp, error) {
	g.metrics.ops.With("last_ts").Inc()
	if !pol.FloorFirst {
		switch pol.Level {
		case dht.LevelEventual:
			if ts, _, ok := g.cache.Get(k, g.env.Now); ok {
				g.serveLastTSFromCache()
				return ts.Max(pol.Floor), nil
			}
		case dht.LevelBounded:
			if ts, a, ok := g.cache.Get(k, g.env.Now); ok && a <= pol.Bound {
				g.serveLastTSFromCache()
				return ts.Max(pol.Floor), nil
			}
		}
	}
	var ts core.Timestamp
	_, err := g.backendDo(ctx, func(b Backend) (dht.OpResult, error) {
		var berr error
		ts, berr = b.LastTS(ctx, k)
		return dht.OpResult{}, berr
	})
	if err == nil {
		g.cache.Note(k, ts, g.env.Now())
	}
	return ts, err
}

func (g *Gateway) serveLastTSFromCache() {
	g.metrics.cacheHits.Inc()
	g.metrics.servedLastTS.Inc()
}

// Item is one element of a batch insert.
type Item struct {
	Key  core.Key
	Data []byte
}

// ItemResult pairs a batch element with its outcome, in input order.
type ItemResult struct {
	Res dht.OpResult
	Err error
}

// InsertMulti writes a batch, each element through its own pooled
// backend picked by the balancer, concurrently.
func (g *Gateway) InsertMulti(ctx context.Context, items []Item) []ItemResult {
	g.metrics.ops.With("put_multi").Inc()
	out := make([]ItemResult, len(items))
	g.fanOut(len(items), out, func(i int) (dht.OpResult, error) {
		return g.Insert(ctx, items[i].Key, items[i].Data)
	})
	return out
}

// RetrieveMulti reads a batch of keys at one policy, concurrently; each
// element goes through the normal coalescing path, so duplicate hot
// keys inside one batch (or across batches) still cost one backend op.
func (g *Gateway) RetrieveMulti(ctx context.Context, keys []core.Key, pol dht.ReadPolicy) []ItemResult {
	g.metrics.ops.With("get_multi").Inc()
	out := make([]ItemResult, len(keys))
	g.fanOut(len(keys), out, func(i int) (dht.OpResult, error) {
		return g.Retrieve(ctx, keys[i], pol)
	})
	return out
}

// fanOut runs n element ops concurrently through the environment and
// joins them. If the join itself fails (environment shut down), the
// unfinished elements report that error.
func (g *Gateway) fanOut(n int, out []ItemResult, op func(i int) (dht.OpResult, error)) {
	done := make([]bool, n)
	jerr := g.env.Join(n, func(i int) {
		res, err := op(i)
		out[i] = ItemResult{Res: res, Err: err}
		done[i] = true
	})
	if jerr != nil {
		for i := range out {
			if !done[i] {
				out[i] = ItemResult{Err: jerr}
			}
		}
	}
}

// coalesced funnels a retrieve through the per-(key, class) flight map:
// the first reader becomes the leader and pays for the backend op,
// concurrent readers wait on it and revalidate the shared result.
func (g *Gateway) coalesced(ctx context.Context, k core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	fk := flightKey{key: k, class: classOf(pol)}
	g.mu.Lock()
	if f, ok := g.flights[fk]; ok {
		g.mu.Unlock()
		return g.awaitFlight(ctx, f, k, pol)
	}
	f := &flight{}
	g.flights[fk] = f
	g.mu.Unlock()
	g.metrics.flights.Inc()

	res, err := g.retrieveBackend(ctx, k, pol)
	g.mu.Lock()
	f.res, f.err, f.done = res, err, true
	delete(g.flights, fk)
	g.mu.Unlock()
	return res, err
}

// awaitFlight polls a leader's flight until it completes. The shared
// result is accepted only when it succeeded AND carries a timestamp at
// or above this waiter's floor; otherwise the waiter pays for its own
// read — this is what makes a write racing the flight safe: the
// writer's session floor rose past the flight's result, so the floor
// check forces a fresh read instead of serving the pre-write value.
func (g *Gateway) awaitFlight(ctx context.Context, f *flight, k core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	for {
		g.mu.Lock()
		done, res, err := f.done, f.res, f.err
		g.mu.Unlock()
		if done {
			if err == nil && !res.TS.Less(pol.Floor) {
				g.metrics.coalesced.Inc()
				return res, nil
			}
			g.metrics.flightRetries.Inc()
			return g.retrieveBackend(ctx, k, pol)
		}
		if serr := network.SleepCtx(ctx, g.env, flightPoll); serr != nil {
			return dht.OpResult{}, serr
		}
	}
}

// retrieveBackend sends one retrieve to a balancer-picked backend.
func (g *Gateway) retrieveBackend(ctx context.Context, k core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	return g.backendDo(ctx, func(b Backend) (dht.OpResult, error) {
		return b.Retrieve(ctx, k, pol)
	})
}

// backendDo acquires a backend slot, runs fn against it, and folds the
// outcome into the balancer's health view and the per-backend metrics.
func (g *Gateway) backendDo(ctx context.Context, fn func(Backend) (dht.OpResult, error)) (dht.OpResult, error) {
	if err := network.CtxError(ctx); err != nil {
		return dht.OpResult{}, err
	}
	i := g.bal.acquire()
	g.perBE[i].inflight.Add(1)
	res, err := fn(g.backends[i])
	g.perBE[i].inflight.Add(-1)
	g.perBE[i].ops.Inc()
	herr := healthErr(err)
	if herr != nil {
		g.perBE[i].errs.Inc()
	}
	g.bal.release(i, herr)
	return res, err
}

// healthErr filters application outcomes out of backend-health
// accounting: a key with no provably-current replica or no replica at
// all answers the same on every backend, so it must neither bench the
// backend nor count as a backend error.
func healthErr(err error) error {
	if errors.Is(err, core.ErrNoCurrentReplica) || errors.Is(err, core.ErrNotFound) {
		return nil
	}
	return err
}

package dcdht

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/obs"
)

// GatewayConfig parameterizes a Gateway front-end.
type GatewayConfig struct {
	// CooldownAfter benches a backend after this many consecutive
	// errors (0 selects the default, 3).
	CooldownAfter int
	// Cooldown is how long a benched backend sits out before the
	// balancer considers it healthy again (0 selects the default, 2s).
	Cooldown time.Duration
	// Seed seeds the gateway's derived random streams; 0 is a valid
	// fixed seed.
	Seed int64
	// Obs receives the gateway's dcdht_gw_* metric families. Nil
	// creates a private registry, readable via Metrics.
	Obs *MetricsRegistry
}

// GatewayStats are the gateway's cumulative raw counters — coalescing,
// cache and backend traffic — for tests and experiment figures.
type GatewayStats = gateway.Stats

// Gateway is the front-end tier over a pool of backend Clients: many
// application clients multiplex over few ring connections. It
// implements Client, so Sessions, workloads and the scenario engine run
// unchanged on top of it, and adds three behaviours the ring itself
// does not have:
//
//   - load balancing: each operation goes to a healthy, least-loaded
//     backend (round-robin rotation breaks ties; backends accumulating
//     consecutive errors are benched briefly);
//   - hot-key coalescing: concurrent Gets for the same key at the same
//     consistency class share one backend operation, with each caller's
//     session floor revalidated before it accepts the shared result;
//   - a gateway-local last-ts cache: Bounded and Eventual reads (and
//     LastTS asks at those levels) can be answered with zero KTS
//     messages, exactly mirroring the peer-side KTS cache semantics of
//     docs/CONSISTENCY.md one tier earlier.
//
// WithIssuer and WithAlgorithm(AlgBRK) fail with ErrBadOption: the
// gateway picks the issuing backend itself, and BRK has no timestamps
// for the coalescing floor checks or the cache to reason about.
//
// See docs/GATEWAY.md for the architecture and the HTTP front-end.
type Gateway struct {
	gw       *gateway.Gateway
	env      *network.RealEnv
	obs      *obs.Registry
	httpReqs *obs.CounterVec
}

// clientBackend adapts a Client to the internal gateway backend
// interface. Key, Timestamp and Result are aliases of the internal
// types, so the adaptation is only about replaying read policies
// through the option machinery.
type clientBackend struct{ c Client }

func (b clientBackend) Insert(ctx context.Context, k core.Key, data []byte) (dht.OpResult, error) {
	return b.c.Put(ctx, k, data)
}

func (b clientBackend) Retrieve(ctx context.Context, k core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	return b.c.Get(ctx, k, withPolicy(pol))
}

func (b clientBackend) LastTS(ctx context.Context, k core.Key) (core.Timestamp, error) {
	return b.c.LastTS(ctx, k)
}

// NewGateway builds a front-end over the given backend clients
// (typically ephemeral Nodes joined to the ring, or a SimNetwork's
// facade repeated per connection). At least one backend is required.
func NewGateway(backends []Client, cfg GatewayConfig) (*Gateway, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("dcdht: gateway needs at least one backend")
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	env := network.NewRealEnv(cfg.Seed)
	pool := make([]gateway.Backend, len(backends))
	for i, c := range backends {
		pool[i] = clientBackend{c: c}
	}
	gw, err := gateway.New(pool, gateway.Config{
		Env:           env,
		Obs:           reg,
		CooldownAfter: cfg.CooldownAfter,
		Cooldown:      cfg.Cooldown,
	})
	if err != nil {
		env.Close()
		return nil, fmt.Errorf("dcdht: %w", err)
	}
	return &Gateway{
		gw:  gw,
		env: env,
		obs: reg,
		httpReqs: reg.CounterVec("dcdht_gw_http_requests_total",
			"HTTP front-end requests served, by route and status code.", "route", "code"),
	}, nil
}

// Close releases the gateway's environment. Backends are owned by the
// caller and are not closed.
func (g *Gateway) Close() error {
	g.env.Close()
	return nil
}

// Metrics returns the gateway's registry (the dcdht_gw_* families).
func (g *Gateway) Metrics() *MetricsRegistry { return g.obs }

// Stats returns the gateway's cumulative raw counters.
func (g *Gateway) Stats() GatewayStats { return g.gw.Stats() }

// resolve folds the options and rejects the ones a gateway cannot
// honor, mirroring how a Node rejects WithIssuer.
func (g *Gateway) resolve(opts []OpOption) (opConfig, error) {
	oc, err := resolveOpts(opts)
	if err != nil {
		return oc, err
	}
	if oc.issuerSet {
		return oc, fmt.Errorf("dcdht: WithIssuer through a gateway (the balancer picks the backend): %w", ErrBadOption)
	}
	if oc.alg == AlgBRK {
		return oc, fmt.Errorf("dcdht: BRK through a gateway (no timestamps to coalesce or cache): %w", ErrBadOption)
	}
	return oc, nil
}

// Put stores data under key through a balancer-picked backend; the
// granted timestamp primes the gateway's last-ts cache.
func (g *Gateway) Put(ctx context.Context, key Key, data []byte, opts ...OpOption) (Result, error) {
	if _, err := g.resolve(opts); err != nil {
		return Result{}, err
	}
	return g.gw.Insert(ctx, key, data)
}

// Get reads key at the requested consistency. Concurrent Gets for the
// same (key, consistency class) coalesce into one backend operation;
// Bounded reads are answered via the gateway cache when a fresh-enough
// last-ts entry exists, at zero KTS cost.
func (g *Gateway) Get(ctx context.Context, key Key, opts ...OpOption) (Result, error) {
	oc, err := g.resolve(opts)
	if err != nil {
		return Result{}, err
	}
	return g.gw.Retrieve(ctx, key, oc.readPolicy())
}

// LastTS returns the last timestamp generated for key. At
// WithConsistency(Bounded(d)) or WithConsistency(Eventual) the answer
// may come straight from the gateway cache with zero backend and KTS
// messages; the default (Current) always asks KTS through a backend.
func (g *Gateway) LastTS(ctx context.Context, key Key, opts ...OpOption) (Timestamp, error) {
	oc, err := g.resolve(opts)
	if err != nil {
		return Timestamp{}, err
	}
	return g.gw.LastTS(ctx, key, oc.readPolicy())
}

// NewSession opens a session over the gateway: per-key floors provide
// read-your-writes and monotonic reads across the extra tier (coalesced
// results are revalidated against the session floor before being
// served).
func (g *Gateway) NewSession(defaults ...OpOption) *Session {
	return NewSession(g, defaults...)
}

// PutMulti stores a batch, spreading the writes across the backend pool
// concurrently.
func (g *Gateway) PutMulti(ctx context.Context, items []KV, opts ...OpOption) ([]MultiResult, error) {
	if _, err := g.resolve(opts); err != nil {
		return nil, err
	}
	gitems := make([]gateway.Item, len(items))
	for i, it := range items {
		gitems[i] = gateway.Item{Key: it.Key, Data: it.Data}
	}
	out := g.gw.InsertMulti(ctx, gitems)
	res := make([]MultiResult, len(out))
	for i, r := range out {
		res[i] = MultiResult{Key: items[i].Key, Result: r.Res, Err: r.Err}
	}
	return res, nil
}

// GetMulti retrieves a batch concurrently; duplicate hot keys inside
// the batch coalesce like any other concurrent reads.
func (g *Gateway) GetMulti(ctx context.Context, keys []Key, opts ...OpOption) ([]MultiResult, error) {
	oc, err := g.resolve(opts)
	if err != nil {
		return nil, err
	}
	out := g.gw.RetrieveMulti(ctx, keys, oc.readPolicy())
	res := make([]MultiResult, len(out))
	for i, r := range out {
		res[i] = MultiResult{Key: keys[i], Result: r.Res, Err: r.Err}
	}
	return res, nil
}

package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/gateway"
	"repro/internal/workload"
)

// The gateway figure: the front-end tier's currency/cost trade under
// hot-key skew. Two arms run the identical Zipf workload spec on
// deployments built from the same seed — one issuing every operation
// directly from random peers (the paper's harness shape), one issuing
// through a gateway pooled over a few backend peers — and the figure
// compares KTS traffic, hot-key coalescing, and latency quantiles.

// GatewayOptions parameterizes the gateway figure beyond the shared
// exp.Options.
type GatewayOptions struct {
	// Backends is the gateway's backend pool size (default 4).
	Backends int
	// ZipfS is the Zipf skew exponent; the default 1.6 concentrates
	// most reads on a handful of hot keys (well past a 0.99 skew).
	ZipfS float64
	// Concurrency is the closed-loop worker count (default 24): the
	// concurrency is what gives same-key reads the chance to overlap
	// and coalesce.
	Concurrency int
	// Ops bounds each arm by operation count (default 600) so both
	// arms execute exactly the same generated stream.
	Ops int
	// Keys is the keyspace size (default 8; small keeps it hot).
	Keys int
	// ReadRatio is the read fraction; nil selects the default 0.9.
	ReadRatio *float64
	// BoundedFrac and EventualFrac shape the read consistency mix
	// (defaults 0.15 and 0.05; the remainder reads at Current).
	BoundedFrac  float64
	EventualFrac float64
	// Bound is the staleness bound for the Bounded fraction (default 30s).
	Bound time.Duration
	// Peers overrides the deployment size (default 100 quick / 400 full).
	Peers int
}

func (gwo GatewayOptions) withDefaults(full bool) GatewayOptions {
	if gwo.Backends <= 0 {
		gwo.Backends = 4
	}
	if gwo.ZipfS == 0 {
		gwo.ZipfS = 1.6
	}
	if gwo.Concurrency <= 0 {
		gwo.Concurrency = 24
	}
	if gwo.Ops <= 0 {
		gwo.Ops = 600
	}
	if gwo.Keys <= 0 {
		gwo.Keys = 8
	}
	if gwo.Bound <= 0 {
		gwo.Bound = 30 * time.Second
	}
	if gwo.Peers <= 0 {
		gwo.Peers = 100
		if full {
			gwo.Peers = 400
		}
	}
	return gwo
}

// spec translates the options into the one workload spec both arms run.
func (gwo GatewayOptions) spec(seed int64) workload.Spec {
	return workload.Spec{
		Pattern:      workload.Zipf,
		Seed:         seed,
		ReadRatio:    gwo.ReadRatio,
		ZipfS:        gwo.ZipfS,
		Concurrency:  gwo.Concurrency,
		Ops:          gwo.Ops,
		Keys:         gwo.Keys,
		BoundedFrac:  gwo.BoundedFrac,
		EventualFrac: gwo.EventualFrac,
		Bound:        gwo.Bound,
	}
}

// GatewayArm is one arm's outcome: the workload report plus the KTS
// traffic the whole deployment generated while serving it, and — for
// the gateway arm — the gateway's own coalescing and cache counters.
type GatewayArm struct {
	Arm string `json:"arm"`
	workload.Report
	// KTSGenTS / KTSLastTS count client-side KTS requests issued
	// deployment-wide during the arm (dcdht_kts_*_requests_total).
	KTSGenTS  float64 `json:"kts_gents_requests"`
	KTSLastTS float64 `json:"kts_lastts_requests"`
	// Gateway carries the gateway arm's coalescing/cache counters.
	Gateway *gateway.Stats `json:"gateway,omitempty"`
	// CoalescingFactor is reads-served-per-backend-read on the
	// coalescing path: (flights + coalesced) / flights.
	CoalescingFactor float64 `json:"coalescing_factor,omitempty"`
}

// GatewayResult is the figure's machine-readable document
// (BENCH_gateway.json).
type GatewayResult struct {
	Peers    int     `json:"peers"`
	Backends int     `json:"backends"`
	ZipfS    float64 `json:"zipf_s"`
	Seed     int64   `json:"seed"`
	Direct   GatewayArm
	GW       GatewayArm `json:"gateway_arm"`
	// KTSSavedPct is the percentage of the direct arm's KTS requests
	// the gateway arm avoided.
	KTSSavedPct float64 `json:"kts_saved_pct"`
}

// gatewayClient adapts the gateway to the workload engine's client.
type gatewayClient struct{ g *gateway.Gateway }

func (c gatewayClient) Put(ctx context.Context, key core.Key, data []byte) (dht.OpResult, error) {
	return c.g.Insert(ctx, key, data)
}

func (c gatewayClient) Get(ctx context.Context, key core.Key) (dht.OpResult, error) {
	return c.g.Retrieve(ctx, key, dht.ReadPolicy{})
}

func (c gatewayClient) GetWith(ctx context.Context, key core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	return c.g.Retrieve(ctx, key, pol)
}

// ktsRequests reads the deployment-wide client-side KTS request
// counters.
func (d *Deployment) ktsRequests() (gents, lastts float64) {
	snap := d.Obs.Snapshot()
	return snap.Get("dcdht_kts_gents_requests_total").Total(),
		snap.Get("dcdht_kts_lastts_requests_total").Total()
}

// GatewayComparison runs the two arms on same-seed deployments and
// returns the paired outcome.
func GatewayComparison(o Options, gwo GatewayOptions) (*GatewayResult, error) {
	gwo = gwo.withDefaults(o.Full)
	spec := gwo.spec(o.seed())
	res := &GatewayResult{
		Peers:    gwo.Peers,
		Backends: gwo.Backends,
		ZipfS:    gwo.ZipfS,
		Seed:     o.seed(),
	}

	newDeployment := func() *Deployment {
		sc := Table1Scenario(AlgUMSDirect, gwo.Peers, o.seed())
		d := NewDeployment(DeployConfig{
			Peers:    gwo.Peers,
			Replicas: sc.Replicas,
			Seed:     o.seed(),
			Net:      sc.Net,
			Chord:    sc.Chord,
		})
		d.RunFor(sc.Warmup)
		return d
	}

	// Arm 1: direct issue from random live peers.
	d := newDeployment()
	rep, err := d.RunWorkload(context.Background(), spec)
	if err != nil {
		d.K.Stop()
		return nil, fmt.Errorf("exp: gateway figure, direct arm: %w", err)
	}
	res.Direct = GatewayArm{Arm: "direct", Report: *rep}
	res.Direct.KTSGenTS, res.Direct.KTSLastTS = d.ktsRequests()
	d.K.Stop()
	o.progress("gateway-direct   ops=%5d %6.2f ops/s  read p50=%7.0fms p99=%7.0fms  kts=%5.0f",
		rep.Ops, rep.OpsPerSec, rep.Reads.P50Ms, rep.Reads.P99Ms,
		res.Direct.KTSGenTS+res.Direct.KTSLastTS)

	// Arm 2: the same spec through a gateway pooled over the first
	// Backends peers, on a fresh same-seed deployment.
	d = newDeployment()
	pool := make([]gateway.Backend, gwo.Backends)
	for i := 0; i < gwo.Backends; i++ {
		pool[i] = d.Peers[i%len(d.Peers)].Stack
	}
	gw, err := gateway.New(pool, gateway.Config{Env: d.Net.Env(), Obs: d.Obs})
	if err != nil {
		d.K.Stop()
		return nil, fmt.Errorf("exp: gateway figure: %w", err)
	}
	rep, err = d.RunWorkloadWith(context.Background(), spec, gatewayClient{g: gw})
	if err != nil {
		d.K.Stop()
		return nil, fmt.Errorf("exp: gateway figure, gateway arm: %w", err)
	}
	st := gw.Stats()
	res.GW = GatewayArm{Arm: "gateway", Report: *rep, Gateway: &st}
	res.GW.KTSGenTS, res.GW.KTSLastTS = d.ktsRequests()
	if st.Flights > 0 {
		res.GW.CoalescingFactor = float64(st.Flights+st.Coalesced) / float64(st.Flights)
	}
	d.K.Stop()

	direct := res.Direct.KTSGenTS + res.Direct.KTSLastTS
	through := res.GW.KTSGenTS + res.GW.KTSLastTS
	if direct > 0 {
		res.KTSSavedPct = 100 * (direct - through) / direct
	}
	o.progress("gateway-pooled   ops=%5d %6.2f ops/s  read p50=%7.0fms p99=%7.0fms  kts=%5.0f  coalesce=%.2fx saved=%.1f%%",
		rep.Ops, rep.OpsPerSec, rep.Reads.P50Ms, rep.Reads.P99Ms,
		through, res.GW.CoalescingFactor, res.KTSSavedPct)
	return res, nil
}

// FigureGateway tabulates the comparison: per-arm throughput, latency
// quantiles, KTS traffic, and the gateway's coalescing and cache work.
func FigureGateway(o Options, gwo GatewayOptions) (*Table, *GatewayResult, error) {
	res, err := GatewayComparison(o, gwo)
	if err != nil {
		return nil, nil, err
	}
	t := NewTable(
		fmt.Sprintf("Gateway: hot-key coalescing front-end vs direct issue (Zipf s=%.2f, %d backends)",
			res.ZipfS, res.Backends),
		"arm", "workload outcome",
		[]string{"ops/s", "read p50", "read p99", "kts reqs", "flights", "coalesced", "coalesce x", "cache served"})
	for _, arm := range []*GatewayArm{&res.Direct, &res.GW} {
		t.Set(arm.Arm, "ops/s", arm.OpsPerSec)
		t.Set(arm.Arm, "read p50", arm.Reads.P50Ms)
		t.Set(arm.Arm, "read p99", arm.Reads.P99Ms)
		t.Set(arm.Arm, "kts reqs", arm.KTSGenTS+arm.KTSLastTS)
		if arm.Gateway != nil {
			t.Set(arm.Arm, "flights", float64(arm.Gateway.Flights))
			t.Set(arm.Arm, "coalesced", float64(arm.Gateway.Coalesced))
			t.Set(arm.Arm, "coalesce x", arm.CoalescingFactor)
			t.Set(arm.Arm, "cache served", float64(arm.Gateway.CacheServedGets+arm.Gateway.CacheServedLastTS))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("both arms run the identical %d-op Zipf spec on same-seed deployments; latencies are simulated ms;", res.Direct.Ops),
		fmt.Sprintf("the gateway arm saved %.1f%% of the direct arm's KTS requests (coalescing %.2fx on the hot keys);",
			res.KTSSavedPct, res.GW.CoalescingFactor),
		"the same seed replays this table bit-identically (gateway determinism test and CI double-run)")
	return t, res, nil
}

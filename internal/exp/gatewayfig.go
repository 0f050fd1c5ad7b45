package exp

import (
	"context"
	"flag"
	"fmt"
	"time"

	"repro/internal/gateway"
	"repro/internal/workload"
)

// The gateway figure: the front-end tier's currency/cost trade under
// hot-key skew. Two arms run the identical Zipf workload spec on
// deployments built from the same seed — one issuing every operation
// directly from random peers (the paper's harness shape), one issuing
// through a gateway pooled over a few backend peers — and the figure
// compares KTS traffic, hot-key coalescing, and latency quantiles.

// gatewayParams are the gateway figure's parameters.
type gatewayParams struct{ peers, ops int }

func (p *gatewayParams) declare(fs *flag.FlagSet, o Options) {
	fs.IntVar(&p.peers, "peers", pick(o, 100, 400), "deployment size per arm")
	fs.IntVar(&p.ops, "ops", 600, "operations per arm; both arms run the same stream")
}

// gatewayBackends is the gateway's backend pool size.
const gatewayBackends = 4

// spec is the one Zipf workload both arms run, bounded by operation
// count so both execute exactly the same generated stream. A 1.6 skew
// over 8 keys concentrates most reads on a handful of hot keys (well
// past a 0.99 skew), and 24 closed-loop workers give same-key reads the
// chance to overlap and coalesce. 15% of reads are Bounded (30 s), 5%
// Eventual and the rest Current; reads are the engine's default 90%.
func (p *gatewayParams) spec(seed int64) workload.Spec {
	return workload.Spec{
		Pattern:      workload.Zipf,
		Seed:         seed,
		ZipfS:        1.6,
		Concurrency:  24,
		Ops:          p.ops,
		Keys:         8,
		BoundedFrac:  0.15,
		EventualFrac: 0.05,
		Bound:        30 * time.Second,
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

// Validate checks the paired provenance, strictly fewer KTS requests
// through the gateway, and the coalescing acceptance floor.
func (res *GatewayResult) Validate() error {
	if res.Peers <= 0 || res.Backends <= 0 {
		return fmt.Errorf("gateway: missing deployment shape: peers=%d backends=%d", res.Peers, res.Backends)
	}
	if res.ZipfS < 0.99 {
		return fmt.Errorf("gateway: zipf skew %.2f below the 0.99 hot-key regime", res.ZipfS)
	}
	if res.Direct.Arm != "direct" || res.GW.Arm != "gateway" {
		return fmt.Errorf("gateway: arm labels %q/%q, want direct/gateway", res.Direct.Arm, res.GW.Arm)
	}
	if res.Direct.Ops <= 0 || res.Direct.Ops != res.GW.Ops {
		return fmt.Errorf("gateway: arms ran different op counts: direct %d vs gateway %d", res.Direct.Ops, res.GW.Ops)
	}
	directKTS := res.Direct.KTSGenTS + res.Direct.KTSLastTS
	gwKTS := res.GW.KTSGenTS + res.GW.KTSLastTS
	if !(gwKTS < directKTS) {
		return fmt.Errorf("gateway: KTS traffic %.0f not strictly below direct %.0f", gwKTS, directKTS)
	}
	st := res.GW.Gateway
	if st == nil {
		return fmt.Errorf("gateway: gateway arm carries no gateway counters")
	}
	if st.Flights == 0 {
		return fmt.Errorf("gateway: gateway arm reports zero flights")
	}
	// The figure's acceptance floor: reads served per backend read on
	// the coalescing path.
	if res.GW.CoalescingFactor < 2.0 {
		return fmt.Errorf("gateway: coalescing factor %.2fx below the 2x acceptance floor", res.GW.CoalescingFactor)
	}
	if st.BackendErrors != 0 {
		return fmt.Errorf("gateway: gateway arm saw %d backend errors", st.BackendErrors)
	}
	if st.CacheServedGets+st.CacheServedLastTS == 0 {
		return fmt.Errorf("gateway: gateway cache served nothing under a hot-key zipf mix")
	}
	if res.KTSSavedPct <= 0 {
		return fmt.Errorf("gateway: kts_saved_pct %.1f not positive", res.KTSSavedPct)
	}
	return nil
}

// ktsRequests reads the deployment-wide client-side KTS request
// counters.
func (d *Deployment) ktsRequests() (gents, lastts float64) {
	snap := d.Obs.Snapshot()
	return snap.Get("dcdht_kts_gents_requests_total").Total(),
		snap.Get("dcdht_kts_lastts_requests_total").Total()
}

// run plays the two arms on same-seed deployments and tabulates each
// arm's throughput, latency quantiles and KTS traffic, and the
// gateway's coalescing and cache work.
func (p *gatewayParams) run(o Options) (*Table, *GatewayResult, error) {
	spec := p.spec(o.Seed)
	res := &GatewayResult{
		Peers:    p.peers,
		Backends: gatewayBackends,
		ZipfS:    spec.ZipfS,
		Seed:     o.Seed,
	}

	newDeployment := func() *Deployment {
		d := NewDeployment(Table1Deployment(p.peers, o.Seed))
		d.RunFor(table1Warmup)
		return d
	}

	// Arm 1: direct issue from random live peers.
	d := newDeployment()
	rep, err := d.RunWorkload(context.Background(), spec)
	if err != nil {
		d.K.Stop()
		return nil, nil, fmt.Errorf("exp: gateway figure, direct arm: %w", err)
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
	pool := make([]gateway.Backend, gatewayBackends)
	for i := range pool {
		pool[i] = d.Peers[i%len(d.Peers)].Stack
	}
	gw, err := gateway.New(pool, gateway.Config{Env: d.Net.Env(), Obs: d.Obs})
	if err != nil {
		d.K.Stop()
		return nil, nil, fmt.Errorf("exp: gateway figure: %w", err)
	}
	rep, err = d.RunWorkloadWith(context.Background(), spec, gw)
	if err != nil {
		d.K.Stop()
		return nil, nil, fmt.Errorf("exp: gateway figure, gateway arm: %w", err)
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

	t := NewTable(
		fmt.Sprintf("Gateway: hot-key coalescing front-end vs direct issue (Zipf s=%.2f, %d backends)",
			res.ZipfS, res.Backends),
		"arm", "workload outcome",
		[]string{"ops/s", "read p50", "read p99", "kts reqs", "flights", "coalesced", "coalesce x", "cache served"})
	for _, arm := range []*GatewayArm{&res.Direct, &res.GW} {
		vals := []float64{arm.OpsPerSec, arm.Reads.P50Ms, arm.Reads.P99Ms, arm.KTSGenTS + arm.KTSLastTS}
		if st := arm.Gateway; st != nil {
			vals = append(vals, float64(st.Flights), float64(st.Coalesced), arm.CoalescingFactor,
				float64(st.CacheServedGets+st.CacheServedLastTS))
		}
		t.Row(arm.Arm, vals...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("both arms run the identical %d-op Zipf spec on same-seed deployments; latencies are simulated ms;", res.Direct.Ops),
		fmt.Sprintf("the gateway arm saved %.1f%% of the direct arm's KTS requests (coalescing %.2fx on the hot keys);",
			res.KTSSavedPct, res.GW.CoalescingFactor),
		"the same seed replays this table bit-identically (gateway determinism test and CI double-run)")
	return t, res, nil
}

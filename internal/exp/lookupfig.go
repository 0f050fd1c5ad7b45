package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/onehop"
	"repro/internal/peer"
)

// The lookup figure: the cost model's last big lever. Every UMS/BRK
// operation pays one ring lookup per replica, so routing hops dominate
// Get latency at scale. Three arms run the identical sample stream on
// same-seed deployments — chord's authoritative Ring.Lookup, chord as
// an operation resolves an owner (Guess from routing state and learned
// arcs at zero messages, Lookup only when it declines), and the onehop
// full-table ring — and the figure compares mean hops, simulated
// latency, and the maintenance traffic each substrate pays for its
// routing state (the D1HT trade: O(1) lookups bought with O(n)
// membership-event fan-out under churn).

// LookupArm names one contender.
const (
	LookupArmChord  = "chord"
	LookupArmCache  = "chord+cache"
	LookupArmOneHop = "onehop"
)

// LookupArms lists the contenders in plotting order.
var LookupArms = []string{LookupArmChord, LookupArmCache, LookupArmOneHop}

// LookupOptions parameterizes the lookup figure beyond the shared
// exp.Options.
type LookupOptions struct {
	// Peers lists the deployment sizes; nil selects the default
	// (100/300/1000 quick, 100/1000/10000 full).
	Peers []int
	// Samples is the number of lookups measured per point (default 200).
	Samples int
	// Warmup settles the assembled overlay before measuring
	// (default 30s simulated).
	Warmup time.Duration
	// MaintWindow is the churn-and-maintenance observation window whose
	// network traffic is charged to routing-state upkeep (default 60s).
	MaintWindow time.Duration
	// ChurnEvents is the number of graceful leave+join pairs played
	// inside the maintenance window (default 3) — what makes the onehop
	// event fan-out visible.
	ChurnEvents int
}

func (lo LookupOptions) withDefaults(full bool) LookupOptions {
	if len(lo.Peers) == 0 {
		lo.Peers = []int{100, 300, 1000}
		if full {
			lo.Peers = []int{100, 1000, 10000}
		}
	}
	if lo.Samples <= 0 {
		lo.Samples = 200
	}
	if lo.Warmup <= 0 {
		lo.Warmup = 30 * time.Second
	}
	if lo.MaintWindow <= 0 {
		lo.MaintWindow = time.Minute
	}
	if lo.ChurnEvents <= 0 {
		lo.ChurnEvents = 3
	}
	return lo
}

// LookupPoint is one (arm, peers) measurement.
type LookupPoint struct {
	Arm     string `json:"arm"`
	Peers   int    `json:"peers"`
	Samples int    `json:"samples"`
	// MeanHops / MaxHops count remote probes per lookup as reported by
	// the ring (dead probes included — the pinned accounting contract).
	MeanHops float64 `json:"mean_hops"`
	MaxHops  int     `json:"max_hops"`
	// MeanLatencyMs is simulated wall time per lookup.
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	// LookupMsgs is the metered message total for the sample stream.
	LookupMsgs int `json:"lookup_msgs"`
	// MaintMsgsPerPeerMin is routing-state upkeep traffic, normalized:
	// messages per peer per simulated minute over a window holding
	// ChurnEvents leave+join pairs.
	MaintMsgsPerPeerMin float64 `json:"maint_msgs_per_peer_min"`
	// WrongOwner counts lookups that resolved to a node which does not
	// claim the target — the figure's safety check; must be zero.
	WrongOwner int `json:"wrong_owner"`
	// CacheHitRate and StaleFallbacks describe the chord+cache arm
	// (zero elsewhere): the share of samples a learned arc answered
	// correctly at zero messages, and the guesses whose named peer did
	// not claim the target — each charged the hop an operation would
	// waste on it before its fallback Lookup.
	CacheHitRate   float64 `json:"cache_hit_rate"`
	StaleFallbacks uint64  `json:"stale_fallbacks"`
	// OneHopTableSize is the issuer's routing-table size on the onehop
	// arm (zero elsewhere) — the memory side of the trade.
	OneHopTableSize int `json:"onehop_table_size,omitempty"`
}

// LookupResult is the figure's machine-readable document
// (BENCH_lookup.json).
type LookupResult struct {
	Seed        int64         `json:"seed"`
	Samples     int           `json:"samples"`
	ChurnEvents int           `json:"churn_events"`
	Points      []LookupPoint `json:"points"`
}

// lookupDeployment builds one arm's deployment at the given size. The
// two chord arms share it: they differ in how a sample is resolved.
func lookupDeployment(arm string, peers int, seed int64) *Deployment {
	sc := Table1Scenario(AlgUMSDirect, peers, seed)
	cfg := DeployConfig{
		Peers:    peers,
		Replicas: sc.Replicas,
		Seed:     seed,
		Net:      sc.Net,
		Chord:    sc.Chord,
	}
	if arm == LookupArmOneHop {
		cfg.Ring = peer.RingOneHop
		cfg.OneHop = onehop.Config{
			PingEvery:  sc.Chord.CheckPredEvery,
			RPCTimeout: sc.Chord.RPCTimeout,
		}
	}
	return NewDeployment(cfg)
}

// measureLookupPoint runs one (arm, peers) cell: assemble, settle, play
// the churn window (charged to maintenance), re-settle, then meter the
// sample stream from a fixed issuer — the client's-eye view learned
// arcs accelerate.
func measureLookupPoint(arm string, peers int, o Options, lo LookupOptions) (LookupPoint, error) {
	d := lookupDeployment(arm, peers, o.seed())
	defer d.K.Stop()
	pt := LookupPoint{Arm: arm, Peers: peers, Samples: lo.Samples}
	d.RunFor(lo.Warmup)

	// Maintenance window: graceful leave+join churn spread evenly, the
	// whole window's traffic charged to routing-state upkeep. No lookups
	// run here, so the delta is exactly what the substrate pays to keep
	// its tables current.
	churnRng := d.K.NewRand("lookup-churn")
	maintStart := d.Net.TotalMessages()
	slice := lo.MaintWindow / time.Duration(lo.ChurnEvents+1)
	for i := 0; i < lo.ChurnEvents; i++ {
		d.RunFor(slice)
		ok := d.Do(func() {
			if p := d.RandomLivePeer(churnRng); p != nil {
				d.Depart(p, false)
			}
			d.SpawnJoin(churnRng)
		})
		if !ok {
			return pt, fmt.Errorf("exp: lookup figure: churn stalled (%s, n=%d): %w", arm, peers, core.ErrTimeout)
		}
	}
	d.RunFor(slice)
	maintMsgs := d.Net.TotalMessages() - maintStart
	pt.MaintMsgsPerPeerMin = float64(maintMsgs) / float64(peers) /
		(float64(lo.MaintWindow) / float64(time.Minute))

	// Let every arm reconverge before measuring routing quality.
	d.RunFor(lo.Warmup)

	issuer := d.LivePeers()[0]
	rng := d.K.NewRand("lookup-samples")
	env := d.Net.Env()
	meter := &network.Meter{}
	var totalHops, latSamples, learnedHits int
	var totalLat time.Duration
	owns := func(ref dht.NodeRef, id core.ID) bool {
		resolved := lookupLiveByID(d, ref.ID)
		return resolved != nil && resolved.Node.OwnsID(id)
	}
	ok := d.Do(func() {
		ctx := network.WithMeter(context.Background(), meter)
		for i := 0; i < lo.Samples; i++ {
			id := core.ID(rng.Uint64())
			t0 := env.Now()
			hops := 0
			if arm == LookupArmCache {
				// What dht.Router does: take the ring's guess, and pay
				// for the authoritative lookup only when it names nobody
				// or the named peer would turn the operation away (one
				// wasted hop).
				if ref, src := issuer.Node.Guess(id); src != dht.NoGuess && owns(ref, id) {
					if src == dht.GuessLearned {
						learnedHits++
					}
					latSamples++
					continue
				} else if src != dht.NoGuess {
					pt.StaleFallbacks++
					issuer.Node.GuessMissed(ref)
					hops = 1
				}
			}
			ref, walked, err := issuer.Node.Lookup(ctx, id)
			if err != nil {
				pt.WrongOwner++
				continue
			}
			hops += walked
			totalLat += env.Now() - t0
			latSamples++
			totalHops += hops
			if hops > pt.MaxHops {
				pt.MaxHops = hops
			}
			if !owns(ref, id) {
				pt.WrongOwner++
			}
		}
	})
	if !ok {
		return pt, fmt.Errorf("exp: lookup figure: sampling stalled (%s, n=%d): %w", arm, peers, core.ErrTimeout)
	}
	pt.MeanHops = float64(totalHops) / float64(lo.Samples)
	if latSamples > 0 {
		pt.MeanLatencyMs = float64(totalLat) / float64(time.Millisecond) / float64(latSamples)
	}
	pt.LookupMsgs = meter.Msgs
	pt.CacheHitRate = float64(learnedHits) / float64(lo.Samples)
	if hop, isOneHop := issuer.Node.(*onehop.Node); isOneHop {
		pt.OneHopTableSize = hop.TableSize()
	}
	return pt, nil
}

// lookupLiveByID returns the live peer with the given ring identity.
func lookupLiveByID(d *Deployment, id core.ID) *Peer {
	for _, p := range d.LivePeers() {
		if p.Node.Self().ID == id {
			return p
		}
	}
	return nil
}

// LookupComparison measures every (arm, peers) cell.
func LookupComparison(o Options, lo LookupOptions) (*LookupResult, error) {
	lo = lo.withDefaults(o.Full)
	res := &LookupResult{
		Seed:        o.seed(),
		Samples:     lo.Samples,
		ChurnEvents: lo.ChurnEvents,
	}
	for _, peers := range lo.Peers {
		for _, arm := range LookupArms {
			pt, err := measureLookupPoint(arm, peers, o, lo)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pt)
			o.progress("lookup %-12s n=%-6d hops=%5.2f (max %2d) lat=%6.1fms maint=%7.1f msg/peer/min hit=%4.2f wrong=%d",
				pt.Arm, pt.Peers, pt.MeanHops, pt.MaxHops, pt.MeanLatencyMs,
				pt.MaintMsgsPerPeerMin, pt.CacheHitRate, pt.WrongOwner)
		}
	}
	return res, nil
}

// FigureLookup tabulates the head-to-head: hops, latency and
// maintenance traffic per substrate and scale.
func FigureLookup(o Options, lo LookupOptions) (*Table, *LookupResult, error) {
	res, err := LookupComparison(o, lo)
	if err != nil {
		return nil, nil, err
	}
	t := NewTable(
		"Lookup acceleration: chord vs chord+cache vs onehop (hops, latency, maintenance)",
		"arm/n", "measurement",
		[]string{"mean hops", "max hops", "latency ms", "maint msg/peer/min", "cache hit", "wrong owner"})
	for _, pt := range res.Points {
		row := fmt.Sprintf("%s/n=%d", pt.Arm, pt.Peers)
		t.Set(row, "mean hops", pt.MeanHops)
		t.Set(row, "max hops", float64(pt.MaxHops))
		t.Set(row, "latency ms", pt.MeanLatencyMs)
		t.Set(row, "maint msg/peer/min", pt.MaintMsgsPerPeerMin)
		t.Set(row, "cache hit", pt.CacheHitRate)
		t.Set(row, "wrong owner", float64(pt.WrongOwner))
	}
	t.Notes = append(t.Notes,
		"every arm replays the identical sample stream on a same-seed deployment; latencies are simulated ms;",
		fmt.Sprintf("maintenance traffic is the whole network's messages over a %d-event churn window, normalized per peer per minute;", res.ChurnEvents),
		"onehop buys its one-hop lookups with O(n) membership-event fan-out — visible in the maintenance column;",
		"the same seed replays this table bit-identically (lookup determinism test and CI double-run)")
	return t, res, nil
}

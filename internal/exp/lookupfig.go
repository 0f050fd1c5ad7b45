package exp

import (
	"context"
	"flag"
	"fmt"
	"sort"
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

// lookupParams are the lookup figure's parameters.
type lookupParams struct {
	peers          intList
	samples, churn int
	warmup, maint  time.Duration
}

func (p *lookupParams) declare(fs *flag.FlagSet, o Options) {
	p.peers = pick(o, intList{100, 300, 1000}, intList{100, 1000, 10000})
	fs.Var(&p.peers, "peers", "comma-separated deployment sizes")
	fs.IntVar(&p.samples, "samples", 200, "measured lookups per (arm, size) point")
	// The churn is what makes the onehop event fan-out visible.
	fs.IntVar(&p.churn, "churn", 3, "graceful leave+join pairs played inside the maintenance window")
	fs.DurationVar(&p.warmup, "warmup", 30*time.Second, "settle window of simulated time before (and after) the churn window")
	fs.DurationVar(&p.maint, "maint", time.Minute, "churn-and-maintenance window whose traffic is charged to routing-state upkeep")
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

// Validate checks that every point is safe (wrong_owner == 0) and that
// at each deployment size onehop stays within the 1.1-hop ceiling and
// strictly below chord, while resolving through learned arcs never
// costs more hops than the authoritative lookup alone and answers at
// least once.
func (res *LookupResult) Validate() error {
	if len(res.Points) == 0 {
		return fmt.Errorf("lookup: empty point set")
	}
	if res.Samples <= 0 {
		return fmt.Errorf("lookup: samples %d not positive", res.Samples)
	}
	byKey := map[string]LookupPoint{}
	var sizes []int
	for i, p := range res.Points {
		switch p.Arm {
		case LookupArmChord, LookupArmCache, LookupArmOneHop:
		default:
			return fmt.Errorf("lookup: point %d: unknown arm %q", i, p.Arm)
		}
		if p.Peers <= 0 || p.Samples <= 0 {
			return fmt.Errorf("lookup: point %d (%s): missing shape: peers=%d samples=%d", i, p.Arm, p.Peers, p.Samples)
		}
		if p.WrongOwner != 0 {
			return fmt.Errorf("lookup: point %d (%s/n=%d): %d lookups resolved a node that does not own the target", i, p.Arm, p.Peers, p.WrongOwner)
		}
		if p.MeanHops < 0 || p.MeanLatencyMs < 0 || p.MaintMsgsPerPeerMin < 0 {
			return fmt.Errorf("lookup: point %d (%s/n=%d): negative costs: hops=%v lat=%v maint=%v",
				i, p.Arm, p.Peers, p.MeanHops, p.MeanLatencyMs, p.MaintMsgsPerPeerMin)
		}
		key := fmt.Sprintf("%s/%d", p.Arm, p.Peers)
		if _, dup := byKey[key]; dup {
			return fmt.Errorf("lookup: duplicate point %s", key)
		}
		byKey[key] = p
		if p.Arm == LookupArmChord {
			sizes = append(sizes, p.Peers)
		}
	}
	sort.Ints(sizes)
	for _, n := range sizes {
		chord, ok1 := byKey[fmt.Sprintf("%s/%d", LookupArmChord, n)]
		cache, ok2 := byKey[fmt.Sprintf("%s/%d", LookupArmCache, n)]
		oneh, ok3 := byKey[fmt.Sprintf("%s/%d", LookupArmOneHop, n)]
		if !ok1 || !ok2 || !ok3 {
			return fmt.Errorf("lookup: n=%d: missing an arm (want chord, chord+cache and onehop)", n)
		}
		if oneh.MeanHops > 1.1 {
			return fmt.Errorf("lookup: n=%d: onehop mean hops %.3f exceeds the 1.1 acceptance ceiling", n, oneh.MeanHops)
		}
		if !(oneh.MeanHops < chord.MeanHops) {
			return fmt.Errorf("lookup: n=%d: onehop mean hops %.3f not strictly below chord's %.3f", n, oneh.MeanHops, chord.MeanHops)
		}
		if cache.MeanHops > chord.MeanHops {
			return fmt.Errorf("lookup: n=%d: chord+cache mean hops %.3f worse than plain chord's %.3f", n, cache.MeanHops, chord.MeanHops)
		}
		if cache.CacheHitRate <= 0 {
			return fmt.Errorf("lookup: n=%d: chord+cache reports a zero hit rate — no learned arc ever answered", n)
		}
		if oneh.OneHopTableSize <= 0 {
			return fmt.Errorf("lookup: n=%d: onehop reports no routing table", n)
		}
	}
	return nil
}

// lookupDeployment builds one arm's deployment at the given size. The
// two chord arms share it: they differ in how a sample is resolved.
func lookupDeployment(arm string, peers int, seed int64) *Deployment {
	cfg := Table1Deployment(peers, seed)
	if arm == LookupArmOneHop {
		cfg.Ring = peer.RingOneHop
	}
	return NewDeployment(cfg)
}

// measureLookupPoint runs one (arm, peers) cell: assemble, settle, play
// the churn window (charged to maintenance), re-settle, then meter the
// sample stream from a fixed issuer — the client's-eye view learned
// arcs accelerate.
func measureLookupPoint(arm string, peers int, o Options, lp *lookupParams) (LookupPoint, error) {
	d := lookupDeployment(arm, peers, o.Seed)
	defer d.K.Stop()
	pt := LookupPoint{Arm: arm, Peers: peers, Samples: lp.samples}
	d.RunFor(lp.warmup)

	// Maintenance window: graceful leave+join churn spread evenly, the
	// whole window's traffic charged to routing-state upkeep. No lookups
	// run here, so the delta is exactly what the substrate pays to keep
	// its tables current.
	churnRng := d.K.NewRand("lookup-churn")
	maintStart := d.Net.TotalMessages()
	slice := lp.maint / time.Duration(lp.churn+1)
	for i := 0; i < lp.churn; i++ {
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
		(float64(lp.maint) / float64(time.Minute))

	// Let every arm reconverge before measuring routing quality.
	d.RunFor(lp.warmup)

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
		for i := 0; i < lp.samples; i++ {
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
					if f, ok := issuer.Node.(dht.GuessForgetter); ok {
						f.GuessMissed(ref)
					}
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
	pt.MeanHops = float64(totalHops) / float64(lp.samples)
	if latSamples > 0 {
		pt.MeanLatencyMs = float64(totalLat) / float64(time.Millisecond) / float64(latSamples)
	}
	pt.LookupMsgs = meter.Msgs
	pt.CacheHitRate = float64(learnedHits) / float64(lp.samples)
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

// run measures every (arm, peers) cell and tabulates the head-to-head:
// hops, latency and maintenance traffic per substrate and scale.
func (p *lookupParams) run(o Options) (*Table, *LookupResult, error) {
	if p.samples <= 0 || p.maint <= 0 {
		return nil, nil, fmt.Errorf("exp: lookup figure needs positive samples and maint, got %d and %v", p.samples, p.maint)
	}
	res := &LookupResult{
		Seed:        o.Seed,
		Samples:     p.samples,
		ChurnEvents: p.churn,
	}
	for _, peers := range p.peers {
		for _, arm := range LookupArms {
			pt, err := measureLookupPoint(arm, peers, o, p)
			if err != nil {
				return nil, nil, err
			}
			res.Points = append(res.Points, pt)
			o.progress("lookup %-12s n=%-6d hops=%5.2f (max %2d) lat=%6.1fms maint=%7.1f msg/peer/min hit=%4.2f wrong=%d",
				pt.Arm, pt.Peers, pt.MeanHops, pt.MaxHops, pt.MeanLatencyMs,
				pt.MaintMsgsPerPeerMin, pt.CacheHitRate, pt.WrongOwner)
		}
	}
	t := NewTable(
		"Lookup acceleration: chord vs chord+cache vs onehop (hops, latency, maintenance)",
		"arm/n", "measurement",
		[]string{"mean hops", "max hops", "latency ms", "maint msg/peer/min", "cache hit", "wrong owner"})
	for _, pt := range res.Points {
		t.Row(fmt.Sprintf("%s/n=%d", pt.Arm, pt.Peers), pt.MeanHops, float64(pt.MaxHops),
			pt.MeanLatencyMs, pt.MaintMsgsPerPeerMin, pt.CacheHitRate, float64(pt.WrongOwner))
	}
	t.Notes = append(t.Notes,
		"every arm replays the identical sample stream on a same-seed deployment; latencies are simulated ms;",
		fmt.Sprintf("maintenance traffic is the whole network's messages over a %d-event churn window, normalized per peer per minute;", res.ChurnEvents),
		"onehop buys its one-hop lookups with O(n) membership-event fan-out — visible in the maintenance column;",
		"the same seed replays this table bit-identically (lookup determinism test and CI double-run)")
	return t, res, nil
}

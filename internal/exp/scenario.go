package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/kts"
	"repro/internal/network/simwire"
	"repro/internal/obs"
	"repro/internal/onehop"
	"repro/internal/peer"
	"repro/internal/repair"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/ums"
)

// Scenario is one experimental configuration: the knobs of Table 1 plus
// the algorithm under test and the measurement schedule.
type Scenario struct {
	Name      string
	Algorithm Algorithm

	// Topology.
	Peers    int
	Replicas int // |Hr|

	// Workload.
	Keys       int           // size of the replicated working set
	DataSize   int           // bytes per value
	Duration   time.Duration // measured experiment window
	Warmup     time.Duration // settle time before measurements
	Queries    int           // retrieve operations at uniform times (paper: 30)
	ChurnRate  float64       // peer departures per second (Table 1: 1)
	FailRate   float64       // fraction of departures that are failures (Table 1: 0.05)
	UpdateRate float64       // updates per key per hour (Table 1: 1)

	// Environment.
	Seed int64
	Net  simwire.Config
	// Ring picks the overlay substrate (zero value = peer.RingChord).
	Ring   peer.RingKind
	Chord  chord.Config
	CAN    can.Config
	OneHop onehop.Config
	// RepublishEvery/RepublishPerRound run the periodic republisher
	// (see DeployConfig).
	RepublishEvery    time.Duration
	RepublishPerRound int
	Grace             time.Duration
	Inspect           time.Duration
	// RLU enables the §4.3 Responsibility-Loss-Unaware KTS fallback
	// (ablation).
	RLU bool
	// DataHandoff re-enables replica handoff on responsibility changes
	// (ablation: the engineering improvement the paper's model omits).
	DataHandoff bool
	// Repair configures the replica-maintenance subsystem; the zero
	// value keeps it off (the paper's dynamics).
	Repair repair.Config
	// Durable backs every peer with a retained in-memory depot slot, so
	// scripted restart waves resume pre-crash replicas and counters
	// (the recovery figure's durable mode). Off = crash-and-forget.
	Durable bool
	// NoObs disables the deployment-wide metrics registry (see
	// DeployConfig.NoObs — it exists for the determinism proof, not as a
	// performance knob).
	NoObs bool
	// Script plays a scripted fault-and-condition scenario
	// (internal/scenario) over the measured window: event times are
	// relative to the end of warmup and initial load. Nil plays nothing.
	// Run panics on an invalid script — validate first when the script
	// comes from outside.
	Script *scenario.Script
}

// Table1Scenario returns the paper's default configuration (Table 1)
// scaled by peers; callers override individual fields per figure.
func Table1Scenario(alg Algorithm, peers int, seed int64) Scenario {
	return Scenario{
		Name:       fmt.Sprintf("%s/n=%d", alg, peers),
		Algorithm:  alg,
		Peers:      peers,
		Replicas:   10,
		Keys:       20,
		DataSize:   1000,
		Duration:   time.Hour,
		Warmup:     2 * time.Minute,
		Queries:    30,
		ChurnRate:  1,
		FailRate:   0.05,
		UpdateRate: 1,
		Seed:       seed,
		Net:        simwire.Table1(),
		Chord: chord.Config{
			StabilizeEvery:  30 * time.Second,
			FixFingersEvery: 45 * time.Second,
			CheckPredEvery:  30 * time.Second,
			RPCTimeout:      2 * time.Second,
		},
	}
}

// Result aggregates one scenario run.
type Result struct {
	Scenario Scenario

	RespTime stats.Summary // seconds per retrieve
	Msgs     stats.Summary // messages per retrieve
	Probed   stats.Summary // replicas probed per retrieve (nums)

	QueriesRun    int
	QueriesFailed int     // retrieve returned no data at all
	CurrentRate   float64 // fraction of retrieves that returned a provably current replica
	StaleReturns  int     // retrieves that fell back to most-recent-available

	UpdatesRun    int
	UpdatesFailed int
	ChurnEvents   int
	FailEvents    int

	// Repair aggregates the maintenance subsystem's work across all
	// peers (zero when the subsystem is off).
	Repair repair.Stats

	// Trace records the scripted scenario's applied events (nil when no
	// script ran). Bit-identical across replays of the same seed.
	Trace *scenario.Trace

	// Obs is the deployment-wide metrics snapshot taken at the end of the
	// run: op latency/msgs/verdicts, KTS cache behaviour, chord routing
	// and repair work, aggregated across every peer. All timings are
	// virtual, all counters deterministic — bit-identical across replays
	// of the same seed.
	Obs *obs.Snapshot

	TotalNetMsgs uint64 // every message the network carried
	SimEvents    uint64
	WallTime     time.Duration
}

// insert dispatches an insert through the scenario's algorithm. The
// harness drives virtual time and never abandons an operation, so ops
// run under a background context.
func (sc *Scenario) insert(p *Peer, k core.Key, data []byte) (dht.OpResult, error) {
	if sc.Algorithm == AlgBRK {
		return p.BRK.Insert(context.Background(), k, data)
	}
	return p.UMS.Insert(context.Background(), k, data)
}

// retrieve dispatches a retrieve through the scenario's algorithm.
func (sc *Scenario) retrieve(p *Peer, k core.Key) (dht.OpResult, error) {
	if sc.Algorithm == AlgBRK {
		return p.BRK.Retrieve(context.Background(), k)
	}
	return p.UMS.Retrieve(context.Background(), k)
}

// Run executes the scenario and returns aggregated metrics.
func Run(sc Scenario) *Result {
	wallStart := time.Now()
	cfg := DeployConfig{
		Peers:             sc.Peers,
		Replicas:          sc.Replicas,
		Seed:              sc.Seed,
		Net:               sc.Net,
		Ring:              sc.Ring,
		Chord:             sc.Chord,
		CAN:               sc.CAN,
		OneHop:            sc.OneHop,
		RepublishEvery:    sc.RepublishEvery,
		RepublishPerRound: sc.RepublishPerRound,
		KTS:               kts.Config{GraceDelay: sc.Grace, InspectEvery: sc.Inspect, RLU: sc.RLU},
		PaperDataModel:    !sc.DataHandoff,
		Repair:            sc.Repair,
		Durable:           sc.Durable,
		NoObs:             sc.NoObs,
	}
	if sc.Algorithm == AlgUMSIndirect {
		cfg.KTS.Mode = kts.ModeIndirect
	}
	d := NewDeployment(cfg)
	res := &Result{Scenario: sc}

	// Working set.
	keys := make([]core.Key, sc.Keys)
	for i := range keys {
		keys[i] = core.Key(fmt.Sprintf("data-%03d", i))
	}
	payload := func(rng interface{ Intn(int) int }, gen int, k core.Key) []byte {
		b := make([]byte, sc.DataSize)
		copy(b, fmt.Sprintf("%s#%d", k, gen))
		return b
	}

	// Let maintenance settle, then load the initial working set.
	d.RunFor(sc.Warmup)
	loadRng := d.K.NewRand("load")
	ok := d.Do(func() {
		for _, k := range keys {
			p := d.RandomLivePeer(loadRng)
			if _, err := sc.insert(p, k, payload(loadRng, 0, k)); err != nil {
				res.UpdatesFailed++
			}
		}
	})
	if !ok {
		panic("exp: initial load did not complete")
	}

	// Scripted scenario: events play out over the measured window,
	// relative to this moment (post-warmup, post-load).
	var eng *scenario.Engine
	if sc.Script != nil {
		var serr error
		eng, serr = d.PlayScript(*sc.Script)
		if serr != nil {
			panic(fmt.Sprintf("exp: scenario script: %v", serr))
		}
	}

	endAt := d.K.Now() + sc.Duration

	// Churn process: Poisson departures; each departure is a fail with
	// probability FailRate, otherwise a graceful leave; a replacement
	// joins immediately (population stays constant, as in §5.1).
	churnRng := d.K.NewRand("churn")
	if sc.ChurnRate > 0 {
		proc := &stats.PoissonProcess{Rate: sc.ChurnRate, Rng: d.K.NewRand("churn-times")}
		d.K.Go(func() {
			for {
				if err := d.Net.Env().Sleep(proc.Next()); err != nil {
					return
				}
				if d.K.Now() >= endAt {
					return
				}
				victim := d.RandomLivePeer(churnRng)
				if victim == nil {
					return
				}
				fail := stats.Bernoulli(churnRng, sc.FailRate)
				res.ChurnEvents++
				if fail {
					res.FailEvents++
				}
				d.Depart(victim, fail)
				d.SpawnJoin(churnRng)
			}
		})
	}

	// Update processes: one Poisson stream per key (Table 1: λ = 1/hour).
	if sc.UpdateRate > 0 {
		for i, k := range keys {
			k := k
			gen := 1
			updRng := d.K.NewRand(fmt.Sprintf("upd-%d", i))
			proc := &stats.PoissonProcess{Rate: sc.UpdateRate / 3600.0, Rng: updRng}
			d.K.Go(func() {
				for {
					if err := d.Net.Env().Sleep(proc.Next()); err != nil {
						return
					}
					if d.K.Now() >= endAt {
						return
					}
					p := d.RandomLivePeer(updRng)
					if p == nil {
						return
					}
					if _, err := sc.insert(p, k, payload(updRng, gen, k)); err != nil {
						res.UpdatesFailed++
					} else {
						res.UpdatesRun++
					}
					gen++
				}
			})
		}
	}

	// Queries at uniformly random times over the experiment window
	// (§5.1: "30 tests ... uniformly distributed over the total
	// experimental time").
	qRng := d.K.NewRand("queries")
	queriesDone := 0
	currentReturns := 0
	for q := 0; q < sc.Queries; q++ {
		at := stats.UniformDuration(qRng, sc.Duration)
		key := keys[qRng.Intn(len(keys))]
		d.K.After(at, func() {
			defer func() { queriesDone++ }()
			p := d.RandomLivePeer(qRng)
			if p == nil {
				res.QueriesFailed++
				return
			}
			r, err := sc.retrieve(p, key)
			res.QueriesRun++
			res.RespTime.AddDuration(r.Elapsed)
			res.Msgs.Add(float64(r.Msgs))
			res.Probed.Add(float64(r.Probed))
			switch {
			case err == nil:
				if r.Current() {
					currentReturns++
				}
			case ums.IsNoCurrent(err):
				res.StaleReturns++
			default:
				res.QueriesFailed++
			}
		})
	}

	// Drive the whole experiment, plus slack for in-flight operations.
	d.K.Run(endAt + 2*time.Minute)
	for i := 0; i < 100 && queriesDone < sc.Queries; i++ {
		d.K.Run(d.K.Now() + 10*time.Second)
	}

	if res.QueriesRun > 0 {
		// Fraction of retrieves returning a *provably* current replica.
		// BRK can never prove currency, so its rate is 0 by construction.
		res.CurrentRate = float64(currentReturns) / float64(res.QueriesRun)
	}
	res.Repair = d.RepairStats()
	if eng != nil {
		tr := eng.Trace()
		res.Trace = &tr
	}
	if d.Obs != nil {
		res.Obs = d.Obs.Snapshot()
	}
	res.TotalNetMsgs = d.Net.TotalMessages()
	res.SimEvents = d.K.Events()
	res.WallTime = time.Since(wallStart)
	d.K.Stop()
	return res
}

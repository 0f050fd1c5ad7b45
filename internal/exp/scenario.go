package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/kts"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/repair"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/ums"
)

// Scenario is one experimental configuration: the deployment it runs on
// plus the algorithm under test, the workload of Table 1 and the
// measurement schedule.
type Scenario struct {
	Name      string
	Algorithm Algorithm

	Keys       int           // size of the replicated working set
	DataSize   int           // bytes per value
	Duration   time.Duration // measured experiment window
	Warmup     time.Duration // settle time before measurements
	Queries    int           // retrieve operations at uniform times (paper: 30)
	ChurnRate  float64       // peer departures per second (Table 1: 1)
	FailRate   float64       // fraction of departures that are failures (Table 1: 0.05)
	UpdateRate float64       // updates per key per hour (Table 1: 1)
	// Clients is the issuing pool: the first Clients peers issue the
	// load, the updates and the queries round-robin (Deployment.issuer);
	// zero issues each from a random live peer.
	Clients int
	// Read is the queries' acceptance policy; the zero value is the
	// paper's provably-current retrieve. BRK ignores it.
	Read dht.ReadPolicy
	// Script plays a scripted fault-and-condition scenario
	// (internal/scenario) over the measured window: event times are
	// relative to the end of warmup and initial load. Nil plays nothing.
	// Run panics on an invalid script — validate first when the script
	// comes from outside.
	Script *scenario.Script

	// DeployConfig is the deployment the scenario runs on; Run hands it
	// to NewDeployment whole, with the KTS mode the algorithm implies.
	DeployConfig
}

// table1Warmup is how long a Table 1 deployment settles before
// anything is measured.
const table1Warmup = 2 * time.Minute

// Table1Scenario returns the paper's default configuration (Table 1)
// scaled by peers, under the paper's data model (no replica handoff);
// callers override individual fields per figure.
func Table1Scenario(alg Algorithm, peers int, seed int64) Scenario {
	sc := Scenario{
		Name:         fmt.Sprintf("%s/n=%d", alg, peers),
		Algorithm:    alg,
		Keys:         20,
		DataSize:     1000,
		Duration:     time.Hour,
		Warmup:       table1Warmup,
		Queries:      30,
		ChurnRate:    1,
		FailRate:     0.05,
		UpdateRate:   1,
		DeployConfig: Table1Deployment(peers, seed),
	}
	sc.NoDataHandoff = true
	return sc
}

// Result aggregates one scenario run.
type Result struct {
	Scenario Scenario

	RespTime stats.Summary // seconds per retrieve
	Msgs     stats.Summary // messages per retrieve
	Probed   stats.Summary // replicas probed per retrieve (nums)

	QueriesRun    int
	QueriesFailed int     // retrieve returned no data at all, or found no live issuer
	CurrentRate   float64 // fraction of retrieves that returned a provably current replica
	StaleReturns  int     // retrieves that fell back to most-recent-available

	// Queries records every retrieve in the order they finished.
	Queries []Query

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
}

// Outcome is how one retrieve ended.
type Outcome int

const (
	QueryOK     Outcome = iota // a replica that met the read's acceptance test
	QueryStale                 // the most recent available replica (Figure 2's data_mr)
	QueryFailed                // no data, or no live peer to issue from
)

// Query is one retrieve's record.
type Query struct {
	Elapsed      time.Duration
	Msgs, Probes int
	Verdict      dht.Currency
	Outcome      Outcome
	// TS is the returned replica's timestamp; Truth is the key's last
	// acknowledged put when the read returned (Run's ground truth).
	TS, Truth core.Timestamp
	// KTS and Probe are the read's phase ledger: the time it charged to
	// timestamping and to replica probes. AskedKTS is set when it
	// charged a kts phase at all (a last_ts served in-process charges 0).
	KTS, Probe time.Duration
	AskedKTS   bool
	// OwnedAll: the issuer owned every Hr position of the key when it
	// issued the read, so an early probe had no remote position to take.
	OwnedAll bool
}

// Run executes the scenario and returns aggregated metrics.
func Run(sc Scenario) *Result {
	cfg := sc.DeployConfig
	alg := peer.UMS
	switch sc.Algorithm {
	case AlgBRK:
		alg = peer.BRK
	case AlgUMSIndirect:
		cfg.KTS.Mode = kts.ModeIndirect
	}
	return NewDeployment(cfg).run(sc, alg)
}

// run drives sc's workload on d with alg and stops d's kernel.
func (d *Deployment) run(sc Scenario, alg peer.Algorithm) *Result {
	// The harness drives virtual time and never abandons an operation, so
	// ops run under a background context.
	ctx := context.Background()
	res := &Result{Scenario: sc}

	// Working set.
	keys := make([]core.Key, sc.Keys)
	for i := range keys {
		keys[i] = core.Key(fmt.Sprintf("data-%03d", i))
	}
	// Ground truth: the last acknowledged timestamp of each key. Kernel
	// processes mutate it, and the kernel serializes them.
	lastTS := make(map[core.Key]core.Timestamp, len(keys))
	put := func(p *Peer, k core.Key, gen int) error {
		data := make([]byte, sc.DataSize)
		copy(data, fmt.Sprintf("%s#%d", k, gen))
		r, err := p.Put(ctx, alg, k, data)
		if err == nil && lastTS[k].Less(r.TS) {
			lastTS[k] = r.TS
		}
		return err
	}

	// Let maintenance settle, then load the initial working set.
	d.RunFor(sc.Warmup)
	pool := d.Peers[:min(sc.Clients, len(d.Peers))]
	loadRng := d.K.NewRand("load")
	ok := d.Do(func() {
		for i, k := range keys {
			if err := put(d.issuer(pool, i, loadRng), k, 0); err != nil {
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
					p := d.issuer(pool, i+gen, updRng)
					if p == nil {
						return
					}
					if err := put(p, k, gen); err != nil {
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
	metrics := obs.NewMetricsTracer(d.Obs)
	currentReturns := 0
	for q := 0; q < sc.Queries; q++ {
		at := stats.UniformDuration(qRng, sc.Duration)
		key := keys[qRng.Intn(len(keys))]
		d.K.After(at, func() {
			rec := Query{Outcome: QueryFailed}
			defer func() { res.Queries = append(res.Queries, rec) }()
			res.QueriesRun++
			p := d.issuer(pool, q, qRng)
			if p == nil {
				// No live peer to issue from: the query still ran, and
				// failed, keeping the outcome accounting exhaustive.
				res.QueriesFailed++
				return
			}
			rec.OwnedAll = true
			for _, h := range d.Set.Hr {
				rec.OwnedAll = rec.OwnedAll && p.Node.OwnsID(h.ID(key))
			}
			// The read reports to the deployment's metrics and to its
			// record's phase ledger.
			r, err := p.Get(obs.WithTracer(ctx, obs.Fanout{metrics, ledger{&rec}}), alg, key, sc.Read)
			res.RespTime.AddDuration(r.Elapsed)
			res.Msgs.Add(float64(r.Msgs))
			res.Probed.Add(float64(r.Probed))
			rec.Elapsed, rec.Msgs, rec.Probes = r.Elapsed, r.Msgs, r.Probed
			rec.Verdict, rec.TS, rec.Truth = r.Currency, r.TS, lastTS[key]
			switch {
			case err == nil:
				rec.Outcome = QueryOK
				if r.Current() {
					currentReturns++
				}
			case ums.IsNoCurrent(err):
				rec.Outcome = QueryStale
				res.StaleReturns++
			default:
				res.QueriesFailed++
			}
		})
	}

	// Drive the whole experiment, plus slack for in-flight operations.
	d.K.Run(endAt + 2*time.Minute)
	for i := 0; i < 100 && len(res.Queries) < sc.Queries; i++ {
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
	d.K.Stop()
	return res
}

// issuer names the peer that issues a stream's i-th operation:
// round-robin over pool, a dead pool peer falling through to the next
// live one, then to a random live peer drawn from rng (nil when none
// lives). An empty pool always draws the random live peer.
func (d *Deployment) issuer(pool []*Peer, i int, rng interface{ Intn(int) int }) *Peer {
	for j := range pool {
		if p := pool[(i+j)%len(pool)]; p.Alive() {
			return p
		}
	}
	return d.RandomLivePeer(rng)
}

// ledger is the tracer one retrieve carries beside the metrics tracer:
// it copies the retrieve's kts and probe phases into its record.
// Tracing consumes no randomness and no time, so it leaves the replay
// untouched.
type ledger struct{ q *Query }

func (l ledger) OpStart(obs.Op) {}

func (l ledger) OpEnd(r obs.OpResult) {
	for _, ph := range r.Phases {
		switch ph.Name {
		case obs.PhaseKTS:
			l.q.KTS, l.q.AskedKTS = ph.D, true
		case obs.PhaseProbe:
			l.q.Probe = ph.D
		}
	}
}

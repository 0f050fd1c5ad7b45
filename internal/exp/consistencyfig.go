package exp

import (
	"context"
	"flag"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/stats"
	"repro/internal/ums"
)

// The consistency figure: the paper's response-time-vs-currency
// tradeoff generalized to the consistency-level spectrum. The same
// churny UMS-Direct deployment serves retrieves at each level —
// Current (provably current, the paper's Figure 2), Bounded (a cached
// last-ts floor within a staleness bound, usually no KTS round trip)
// and Eventual (first reachable replica, never a KTS round trip) —
// with replica maintenance off and on, measuring per level what the
// level buys (messages and last_ts requests saved; on these WAN links
// not latency, since a Current read's first probe rides alongside a
// slow last_ts) and what it costs (observed staleness against the
// harness's ground-truth update log).

// ConsistencyLevels lists the compared levels in plotting order.
var ConsistencyLevels = []string{"current", "bounded", "eventual"}

// consistencyParams are the consistency figure's parameters.
type consistencyParams struct {
	levels                  string
	bound                   time.Duration
	peers, clients, queries int
	duration                time.Duration
}

func (p *consistencyParams) declare(fs *flag.FlagSet, o Options) {
	fs.StringVar(&p.levels, "levels", "all", "comma-separated consistency levels: current|bounded|eventual|all")
	fs.DurationVar(&p.bound, "bound", 5*time.Minute, "staleness bound for bounded reads, in simulated time")
	fs.IntVar(&p.peers, "peers", pick(o, 120, 1000), "deployment size")
	// Queries and updates are issued round-robin from a client pool, the
	// way application servers front a DHT — which is what lets bounded
	// reads find a warm last-ts cache.
	fs.IntVar(&p.clients, "clients", 4, "issuing client-pool size")
	fs.IntVar(&p.queries, "queries", pick(o, 60, 200), "measured retrieves per (level, repair) cell")
	fs.DurationVar(&p.duration, "duration", pick(o, 12*time.Minute, time.Hour), "measured window of simulated time per cell")
}

// parseLevel maps a level name to the UMS read level.
func parseLevel(name string) (dht.Level, error) {
	switch name {
	case "current":
		return dht.LevelCurrent, nil
	case "bounded":
		return dht.LevelBounded, nil
	case "eventual":
		return dht.LevelEventual, nil
	default:
		return 0, fmt.Errorf("exp: unknown consistency level %q (want current, bounded or eventual)", name)
	}
}

// ConsistencyPoint is one (level, repair) cell's outcome in
// machine-readable form; cmd/dcdht-bench serializes the set as
// BENCH_consistency.json (schema in docs/BENCHMARKS.md).
type ConsistencyPoint struct {
	Level    string  `json:"level"`
	Repair   bool    `json:"repair"`
	Peers    int     `json:"peers"`
	Clients  int     `json:"clients"`
	BoundSec float64 `json:"bound_sec,omitempty"`

	QueriesRun    int `json:"queries_run"`
	FailedQueries int `json:"failed_queries"`

	// Cost per retrieve.
	MsgsPerRetrieve   float64 `json:"msgs_per_retrieve"`
	RespTimeSec       float64 `json:"resp_time_sec"`
	ProbesPerRetrieve float64 `json:"probes_per_retrieve"`

	// Currency verdicts over the successful retrieves.
	Proven       int     `json:"proven"`
	WithinBound  int     `json:"within_bound"`
	SessionFloor int     `json:"session_floor"`
	Unknown      int     `json:"unknown"`
	ProvenRate   float64 `json:"proven_rate"`
	StaleReturns int     `json:"stale_returns"`

	// Observed staleness against the harness's ground truth: the
	// fraction of retrieves that returned data older than the last
	// successfully inserted timestamp, and how many versions behind
	// they were on average.
	ObservedStaleRate float64 `json:"observed_stale_rate"`
	VersionLagMean    float64 `json:"version_lag_mean"`

	// Sequencing, from each retrieve's phase ledger. KTSReqsPerRetrieve
	// is the share of retrieves that asked KTS for last_ts: all at
	// Current, the cache misses at Bounded, none at Eventual.
	// OverlappedReads counts the retrieves that finished below their kts
	// and probe phases laid end to end: their first probe went alongside
	// a slow last_ts. LedgerBreaks counts retrieves that contradict the
	// read path and must stay 0: a read that skips KTS (Eventual, a
	// Bounded cache hit) yet asked it, a read that waited on a remote
	// last_ts yet did not overlap its first probe with it (on the
	// figure's Table 1 links every remote last_ts is a WAN round trip,
	// far past the overlap threshold), or a read slower than its phases
	// in series.
	KTSReqsPerRetrieve float64 `json:"kts_reqs_per_retrieve"`
	OverlappedReads    int     `json:"overlapped_reads"`
	LedgerBreaks       int     `json:"ledger_breaks"`

	// KTSCacheHits counts last-ts cache consults that found an entry
	// across the client pool (the mechanism behind bounded's savings).
	KTSCacheHits uint64 `json:"kts_cache_hits"`
	// ReplicasHealed is the maintenance subsystem's work (repair runs).
	ReplicasHealed uint64 `json:"replicas_healed"`
}

// consistencyRun measures one (level, repair) cell on a fresh
// deployment built from the shared seed; every random choice comes off
// named kernel streams, so the same options replay the identical point.
func consistencyRun(o Options, cp *consistencyParams, levelName string, withRepair bool) ConsistencyPoint {
	level, err := parseLevel(levelName)
	if err != nil {
		panic(err) // run validated the names already
	}
	sc := Table1Scenario(AlgUMSDirect, cp.peers, o.Seed)
	cfg := sc.DeployConfig
	if withRepair {
		cfg.Repair = repair.Config{Every: 2 * time.Minute, PerRound: 8, ReadRepair: true}
	}
	d := NewDeployment(cfg)
	defer d.K.Stop()
	d.RunFor(sc.Warmup)

	point := ConsistencyPoint{
		Level:   levelName,
		Repair:  withRepair,
		Peers:   cp.peers,
		Clients: cp.clients,
	}
	if level == dht.LevelBounded {
		point.BoundSec = cp.bound.Seconds()
	}

	// The client pool: the first Clients peers of the deployment front
	// all traffic (queries and updates), like application servers in
	// front of a storage tier. A pool peer lost to churn falls through
	// to the next live one.
	pool := make([]*Peer, cp.clients)
	copy(pool, d.Peers[:min(cp.clients, len(d.Peers))])
	poolRng := d.K.NewRand("consistency-pool")
	clientPeer := func(i int) *Peer {
		for probe := 0; probe < len(pool); probe++ {
			if p := pool[(i+probe)%len(pool)]; p != nil && p.Alive() {
				return p
			}
		}
		return d.RandomLivePeer(poolRng)
	}

	// Ground truth: the last timestamp each key was successfully
	// inserted with. Mutated only inside kernel processes, which the
	// kernel serializes deterministically.
	keys := make([]core.Key, sc.Keys)
	lastTS := make(map[core.Key]core.Timestamp, sc.Keys)
	for i := range keys {
		keys[i] = core.Key(fmt.Sprintf("cons-%03d", i))
	}
	payload := func(k core.Key, gen int) []byte {
		b := make([]byte, sc.DataSize)
		copy(b, fmt.Sprintf("%s#%d", k, gen))
		return b
	}
	if ok := d.Do(func() {
		for i, k := range keys {
			if r, err := clientPeer(i).UMS.Insert(context.Background(), k, payload(k, 0)); err == nil {
				lastTS[k] = r.TS
			}
		}
	}); !ok {
		panic("exp: consistency figure: initial load did not complete")
	}

	endAt := d.K.Now() + cp.duration

	// Churn: Poisson departures with a high failure share, so replica
	// loss — the condition that separates the levels — actually occurs
	// within the window. Join-per-departure keeps the population.
	churnRng := d.K.NewRand("consistency-churn")
	churn := &stats.PoissonProcess{Rate: 0.05, Rng: d.K.NewRand("consistency-churn-times")}
	d.K.Go(func() {
		for {
			if err := d.Net.Env().Sleep(churn.Next()); err != nil {
				return
			}
			if d.K.Now() >= endAt {
				return
			}
			victim := d.RandomLivePeer(churnRng)
			if victim == nil {
				return
			}
			d.Depart(victim, stats.Bernoulli(churnRng, 0.3))
			d.SpawnJoin(churnRng)
		}
	})

	// Updates: one Poisson stream per key, issued from the pool (which
	// is what keeps the pool's last-ts caches warm, exactly as an
	// application tier's writes would).
	for i, k := range keys {
		i, k := i, k
		gen := 1
		updRng := d.K.NewRand(fmt.Sprintf("consistency-upd-%d", i))
		proc := &stats.PoissonProcess{Rate: 1.0 / 600, Rng: updRng}
		d.K.Go(func() {
			for {
				if err := d.Net.Env().Sleep(proc.Next()); err != nil {
					return
				}
				if d.K.Now() >= endAt {
					return
				}
				p := clientPeer(i + gen)
				if r, err := p.UMS.Insert(context.Background(), k, payload(k, gen)); err == nil {
					if lastTS[k].Less(r.TS) {
						lastTS[k] = r.TS
					}
				}
				gen++
			}
		})
	}

	// Queries at uniformly random times, round-robin over the pool, at
	// the cell's consistency level.
	var respTime, msgs, probes, lag stats.Summary
	staleObserved, ktsReqs := 0, 0
	qRng := d.K.NewRand("consistency-queries")
	queriesDone := 0
	for q := 0; q < cp.queries; q++ {
		q := q
		at := stats.UniformDuration(qRng, cp.duration)
		key := keys[qRng.Intn(len(keys))]
		d.K.After(at, func() {
			defer func() { queriesDone++ }()
			p := clientPeer(q)
			if p == nil {
				// No live peer to issue from: the query still ran (and
				// failed), keeping the verdict accounting exhaustive.
				point.QueriesRun++
				point.FailedQueries++
				return
			}
			pol := dht.ReadPolicy{Level: level, Bound: cp.bound}
			ledger := &readLedger{}
			r, err := p.UMS.RetrieveWith(obs.WithTracer(context.Background(), ledger), key, pol)
			point.QueriesRun++
			respTime.AddDuration(r.Elapsed)
			msgs.Add(float64(r.Msgs))
			probes.Add(float64(r.Probed))
			kts, askedKTS := ledger.phase(obs.PhaseKTS)
			probe, _ := ledger.phase(obs.PhaseProbe)
			overlapped := r.Elapsed < kts+probe
			skipsKTS := level == dht.LevelEventual || (err == nil && r.Currency == dht.CurrencyWithinBound)
			if askedKTS {
				ktsReqs++
			}
			if overlapped {
				point.OverlappedReads++
			}
			if (skipsKTS && askedKTS) || (kts > 0 && !overlapped) || r.Elapsed > kts+probe {
				point.LedgerBreaks++
			}
			returned := false
			switch {
			case err == nil:
				returned = true
				switch r.Currency {
				case dht.CurrencyProven:
					point.Proven++
				case dht.CurrencyWithinBound:
					point.WithinBound++
				case dht.CurrencySessionFloor:
					point.SessionFloor++
				default:
					point.Unknown++
				}
			case ums.IsNoCurrent(err):
				point.StaleReturns++
				returned = true
			default:
				point.FailedQueries++
			}
			if returned {
				truth := lastTS[key]
				if r.TS.Less(truth) {
					staleObserved++
					if truth.Hi == r.TS.Hi {
						lag.Add(float64(truth.Lo - r.TS.Lo))
					}
				} else {
					lag.Add(0)
				}
			}
		})
	}

	// Drive the window plus slack for stragglers.
	d.K.Run(endAt + 2*time.Minute)
	for i := 0; i < 100 && queriesDone < cp.queries; i++ {
		d.K.Run(d.K.Now() + 10*time.Second)
	}

	point.MsgsPerRetrieve = msgs.Mean()
	point.RespTimeSec = respTime.Mean()
	point.ProbesPerRetrieve = probes.Mean()
	point.VersionLagMean = lag.Mean()
	if returned := point.QueriesRun - point.FailedQueries; returned > 0 {
		point.ObservedStaleRate = float64(staleObserved) / float64(returned)
	}
	if point.QueriesRun > 0 {
		point.ProvenRate = float64(point.Proven) / float64(point.QueriesRun)
		point.KTSReqsPerRetrieve = float64(ktsReqs) / float64(point.QueriesRun)
	}
	for _, p := range pool {
		if p != nil {
			point.KTSCacheHits += p.KTS.CacheHits()
		}
	}
	point.ReplicasHealed = d.RepairStats().Healed
	return point
}

// readLedger is the tracer one figure retrieve carries: it keeps the
// retrieve's phase ledger. Tracing consumes no randomness and no time,
// so it leaves the replay untouched.
type readLedger struct{ phases []obs.Phase }

func (l *readLedger) OpStart(obs.Op)       {}
func (l *readLedger) OpEnd(r obs.OpResult) { l.phases = r.Phases }

// phase returns the time charged to the named phase and whether the
// retrieve charged it at all (a last_ts served locally charges 0).
func (l *readLedger) phase(name string) (time.Duration, bool) {
	for _, ph := range l.phases {
		if ph.Name == name {
			return ph.D, true
		}
	}
	return 0, false
}

// ConsistencyPoints is the consistency figure's document
// (BENCH_consistency.json).
type ConsistencyPoints []ConsistencyPoint

// run measures every requested level with replica maintenance off and
// on, each cell on a fresh same-seed deployment, and tabulates the
// per-retrieve cost and observed currency per level.
func (p *consistencyParams) run(o Options) (*Table, *ConsistencyPoints, error) {
	levels := names(p.levels, ConsistencyLevels)
	for _, l := range levels {
		if _, err := parseLevel(l); err != nil {
			return nil, nil, err
		}
	}
	points := make(ConsistencyPoints, 0, 2*len(levels))
	for _, withRepair := range []bool{false, true} {
		for _, level := range levels {
			pt := consistencyRun(o, p, level, withRepair)
			points = append(points, pt)
			o.progress("consistency-%-8s repair=%-5v msgs=%5.1f resp=%6.2fs proven=%3.0f%% stale=%3.0f%% lag=%.2f",
				level, withRepair, pt.MsgsPerRetrieve, pt.RespTimeSec,
				100*pt.ProvenRate, 100*pt.ObservedStaleRate, pt.VersionLagMean)
		}
	}
	t := NewTable("Consistency: retrieval cost vs observed currency by level (UMS-Direct)",
		"level", "cost / currency",
		[]string{"msgs", "resp (s)", "E(X) probes", "proven %", "stale %", "version lag"})
	for _, pt := range points {
		row := pt.Level
		if pt.Repair {
			row += "+repair"
		}
		t.Row(row, pt.MsgsPerRetrieve, pt.RespTimeSec, pt.ProbesPerRetrieve,
			100*pt.ProvenRate, 100*pt.ObservedStaleRate, pt.VersionLagMean)
	}
	t.Notes = append(t.Notes,
		"current proves currency against KTS last_ts; bounded accepts a cached floor within the bound (no KTS round trip on a warm cache);",
		"eventual takes the first reachable replica with no KTS contact — stale % and version lag are measured against the harness's ground-truth update log;",
		"queries and updates are issued round-robin from a small client pool, which is what keeps bounded's last-ts caches warm")
	return t, &points, nil
}

// Validate checks the document against the figure's invariants: every
// cell ran queries at sane costs and its verdicts account for them with
// an intact sequencing ledger; and per repair mode, when all three
// levels are present, Eventual and Bounded cost strictly fewer messages
// and last_ts requests than Current, Current proves currency whenever a
// current replica was reachable, and Eventual never claims currency.
func (ps ConsistencyPoints) Validate() error {
	if len(ps) == 0 {
		return fmt.Errorf("consistency: empty point set")
	}
	byKey := map[string]ConsistencyPoint{}
	for i, p := range ps {
		if _, err := parseLevel(p.Level); err != nil {
			return fmt.Errorf("consistency: point %d: %v", i, err)
		}
		if p.QueriesRun <= 0 {
			return fmt.Errorf("consistency: point %d (%s repair=%v): no queries ran", i, p.Level, p.Repair)
		}
		if p.Peers <= 0 || p.Clients <= 0 {
			return fmt.Errorf("consistency: point %d (%s): missing deployment shape: peers=%d clients=%d", i, p.Level, p.Peers, p.Clients)
		}
		if p.MsgsPerRetrieve <= 0 || p.RespTimeSec <= 0 || p.ProbesPerRetrieve <= 0 {
			return fmt.Errorf("consistency: point %d (%s): non-positive costs: msgs=%v resp=%v probes=%v",
				i, p.Level, p.MsgsPerRetrieve, p.RespTimeSec, p.ProbesPerRetrieve)
		}
		if got := p.Proven + p.WithinBound + p.SessionFloor + p.Unknown + p.StaleReturns + p.FailedQueries; got != p.QueriesRun {
			return fmt.Errorf("consistency: point %d (%s repair=%v): verdicts %d do not account for %d queries", i, p.Level, p.Repair, got, p.QueriesRun)
		}
		if p.LedgerBreaks != 0 {
			return fmt.Errorf("consistency: point %d (%s repair=%v): %d reads broke the sequencing ledger", i, p.Level, p.Repair, p.LedgerBreaks)
		}
		byKey[fmt.Sprintf("%s/%v", p.Level, p.Repair)] = p
	}
	for _, repaired := range []bool{false, true} {
		cur, ok1 := byKey[fmt.Sprintf("current/%v", repaired)]
		bnd, ok2 := byKey[fmt.Sprintf("bounded/%v", repaired)]
		ev, ok3 := byKey[fmt.Sprintf("eventual/%v", repaired)]
		if !ok1 || !ok2 || !ok3 {
			continue // a restricted levels run: only the cells present are checked
		}
		if !(ev.MsgsPerRetrieve < cur.MsgsPerRetrieve) || !(bnd.MsgsPerRetrieve < cur.MsgsPerRetrieve) {
			return fmt.Errorf("consistency: repair=%v: messages not strictly ordered: eventual %.2f / bounded %.2f vs current %.2f",
				repaired, ev.MsgsPerRetrieve, bnd.MsgsPerRetrieve, cur.MsgsPerRetrieve)
		}
		// Response time is not ordered: a Current read's first probe
		// rides alongside a slow last_ts, so skipping KTS saves requests,
		// not a serial round trip (docs/CONSISTENCY.md).
		if !(ev.KTSReqsPerRetrieve == 0 && 0 < bnd.KTSReqsPerRetrieve && bnd.KTSReqsPerRetrieve < cur.KTSReqsPerRetrieve) {
			return fmt.Errorf("consistency: repair=%v: last_ts requests not strictly ordered: eventual %.2f / bounded %.2f / current %.2f",
				repaired, ev.KTSReqsPerRetrieve, bnd.KTSReqsPerRetrieve, cur.KTSReqsPerRetrieve)
		}
		if cur.Proven+cur.StaleReturns+cur.FailedQueries != cur.QueriesRun ||
			cur.WithinBound+cur.SessionFloor+cur.Unknown != 0 {
			return fmt.Errorf("consistency: repair=%v: current must prove currency whenever a current replica is reachable: %+v", repaired, cur)
		}
		if ev.Proven+ev.WithinBound+ev.SessionFloor != 0 {
			return fmt.Errorf("consistency: repair=%v: eventual claims currency: %+v", repaired, ev)
		}
	}
	return nil
}

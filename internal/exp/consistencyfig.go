package exp

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/dht"
	"repro/internal/repair"
	"repro/internal/stats"
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
	for _, l := range []dht.Level{dht.LevelCurrent, dht.LevelBounded, dht.LevelEventual} {
		if l.String() == name {
			return l, nil
		}
	}
	return 0, fmt.Errorf("exp: unknown consistency level %q (want current, bounded or eventual)", name)
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
	// Bounded cache hit) yet asked it, a read that waited on last_ts (on
	// Table 1 links, always past the overlap threshold) yet did not
	// overlap its first probe with it, unless its issuer owned every
	// replica position (the early probe goes only to one it does not
	// own), or a read slower than its phases in series.
	KTSReqsPerRetrieve float64 `json:"kts_reqs_per_retrieve"`
	OverlappedReads    int     `json:"overlapped_reads"`
	LedgerBreaks       int     `json:"ledger_breaks"`

	// KTSCacheHits counts last-ts cache consults that found an entry,
	// deployment-wide (the mechanism behind bounded's savings).
	KTSCacheHits uint64 `json:"kts_cache_hits"`
	// ReplicasHealed is the maintenance subsystem's work (repair runs).
	ReplicasHealed uint64 `json:"replicas_healed"`
}

// consistencyRun measures one (level, repair) cell: a Table 1 scenario
// of UMS-Direct under heavy, failure-laden churn — so the replica loss
// that separates the levels occurs within the window — with frequent
// updates and the cell's level on every query, all issued from the
// client pool, whose writes keep the pool's last-ts caches warm as an
// application tier's would. Run replays it per seed.
func consistencyRun(o Options, cp *consistencyParams, level dht.Level, withRepair bool) ConsistencyPoint {
	sc := Table1Scenario(AlgUMSDirect, cp.peers, o.Seed)
	sc.Duration, sc.Queries = cp.duration, cp.queries
	sc.ChurnRate, sc.FailRate, sc.UpdateRate = 0.05, 0.3, 6
	sc.Clients = cp.clients
	sc.Read = dht.ReadPolicy{Level: level, Bound: cp.bound}
	if withRepair {
		sc.Repair = repair.Config{Every: 2 * time.Minute, PerRound: 8, ReadRepair: true}
	}
	r := Run(sc)

	point := ConsistencyPoint{
		Level:             level.String(),
		Repair:            withRepair,
		Peers:             cp.peers,
		Clients:           cp.clients,
		QueriesRun:        r.QueriesRun,
		FailedQueries:     r.QueriesFailed,
		StaleReturns:      r.StaleReturns,
		MsgsPerRetrieve:   r.Msgs.Mean(),
		RespTimeSec:       r.RespTime.Mean(),
		ProbesPerRetrieve: r.Probed.Mean(),
		KTSCacheHits:      uint64(r.Obs.Get("dcdht_kts_cache_hits_total").Total()),
		ReplicasHealed:    r.Repair.Healed,
	}
	if level == dht.LevelBounded {
		point.BoundSec = cp.bound.Seconds()
	}
	verdicts := [...]*int{dht.CurrencyUnknown: &point.Unknown, dht.CurrencySessionFloor: &point.SessionFloor,
		dht.CurrencyWithinBound: &point.WithinBound, dht.CurrencyProven: &point.Proven}
	var lag stats.Summary
	staleObserved, ktsReqs := 0, 0
	for _, q := range r.Queries {
		if q.Outcome == QueryOK {
			*verdicts[q.Verdict]++
		}
		if q.Outcome != QueryFailed {
			if q.TS.Less(q.Truth) {
				staleObserved++
				if q.Truth.Hi == q.TS.Hi {
					lag.Add(float64(q.Truth.Lo - q.TS.Lo))
				}
			} else {
				lag.Add(0)
			}
		}
		if q.AskedKTS {
			ktsReqs++
		}
		overlapped := q.Elapsed < q.KTS+q.Probe
		if overlapped {
			point.OverlappedReads++
		}
		skipsKTS := level == dht.LevelEventual || q.Verdict == dht.CurrencyWithinBound
		if (skipsKTS && q.AskedKTS) || (q.KTS > 0 && !overlapped && !q.OwnedAll) || q.Elapsed > q.KTS+q.Probe {
			point.LedgerBreaks++
		}
	}
	point.VersionLagMean = lag.Mean()
	if returned := point.QueriesRun - point.FailedQueries; returned > 0 {
		point.ObservedStaleRate = float64(staleObserved) / float64(returned)
	}
	if point.QueriesRun > 0 {
		point.ProvenRate = float64(point.Proven) / float64(point.QueriesRun)
		point.KTSReqsPerRetrieve = float64(ktsReqs) / float64(point.QueriesRun)
	}
	return point
}

// ConsistencyPoints is the consistency figure's document
// (BENCH_consistency.json).
type ConsistencyPoints []ConsistencyPoint

// run measures every requested level with replica maintenance off and
// on, each cell on a fresh same-seed deployment, and tabulates the
// per-retrieve cost and observed currency per level.
func (p *consistencyParams) run(o Options) (*Table, *ConsistencyPoints, error) {
	var levels []dht.Level
	for _, name := range names(p.levels, ConsistencyLevels) {
		l, err := parseLevel(name)
		if err != nil {
			return nil, nil, err
		}
		levels = append(levels, l)
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

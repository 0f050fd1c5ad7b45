package exp

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/scenario"
)

// The scenario figure: the same UMS-Direct workload driven through the
// scripted fault scenarios of internal/scenario — correlated churn
// waves, a 60/40 partition with heal, a degraded lossy WAN, a mass
// crash — each with the replica-maintenance subsystem off and on. Where
// the paper's figures vary one scalar knob (uniform churn, failure
// rate), this figure varies the *shape* of adversity and measures what
// it costs in currency, E(X) probes and response time, and how much of
// it maintenance wins back.

// ScenarioRepairModes are the repair configurations each scenario runs
// under, in plotting order: "on" is the repair figure's
// sweep+read-repair.
var ScenarioRepairModes = []string{"off", "on"}

// scenarioParams are the scenario figure's parameters.
type scenarioParams struct {
	scenarios string
	peers     int
	duration  time.Duration
	queries   int
}

func (p *scenarioParams) declare(fs *flag.FlagSet, o Options) {
	fs.StringVar(&p.scenarios, "scenarios", "all", "comma-separated scripted scenarios: calm|churn-wave|split-heal|lossy-wan|mass-crash|all")
	fs.IntVar(&p.peers, "peers", pick(o, 400, o.basePeers()), "deployment size")
	fs.DurationVar(&p.duration, "duration", o.duration(), "measured window of simulated time per run")
	fs.IntVar(&p.queries, "queries", 60, "measured retrieves per run (double the paper's 30: scenarios bend the tail)")
}

// ScenarioPoint is one (scenario, repair mode) outcome in
// machine-readable form; cmd/dcdht-bench serializes the set as
// BENCH_scenario.json (schema in docs/BENCHMARKS.md).
type ScenarioPoint struct {
	Scenario          string  `json:"scenario"`
	Repair            string  `json:"repair"` // off | on (sweep+read-repair)
	Peers             int     `json:"peers"`
	Seed              int64   `json:"seed"`
	DurationSec       float64 `json:"duration_sec"`
	EventsApplied     int     `json:"events_applied"`
	QueriesRun        int     `json:"queries_run"`
	CurrentRate       float64 `json:"current_rate"`
	ProbesPerRetrieve float64 `json:"probes_per_retrieve"` // observed E(X)
	RespTimeSec       float64 `json:"resp_time_sec"`
	MsgsPerRetrieve   float64 `json:"msgs_per_retrieve"`
	StaleReturns      int     `json:"stale_returns"`
	FailedQueries     int     `json:"failed_queries"`
	ChurnEvents       int     `json:"churn_events"`
	ReplicasHealed    uint64  `json:"replicas_healed"`
	ReadRepairs       uint64  `json:"read_repairs"`
	MaintenanceMsgs   uint64  `json:"maintenance_msgs"`
}

// ScenarioPoints is the scenario figure's document (BENCH_scenario.json).
type ScenarioPoints []ScenarioPoint

// Validate checks that every scenario ran in both repair modes and ran
// queries (calm, the control, plays no event at all).
func (ps ScenarioPoints) Validate() error {
	if len(ps) == 0 || len(ps)%len(ScenarioRepairModes) != 0 {
		return fmt.Errorf("scenario: %d points, want a pair per scenario", len(ps))
	}
	for i, p := range ps {
		if mode := ScenarioRepairModes[i%len(ScenarioRepairModes)]; p.Repair != mode {
			return fmt.Errorf("scenario: point %d (%s) has repair %q, want %q", i, p.Scenario, p.Repair, mode)
		}
		if p.Peers <= 0 || p.QueriesRun <= 0 {
			return fmt.Errorf("scenario: %s/%s: peers=%d queries_run=%d", p.Scenario, p.Repair, p.Peers, p.QueriesRun)
		}
		if p.CurrentRate < 0 || p.CurrentRate > 1 {
			return fmt.Errorf("scenario: %s/%s: current_rate %v outside [0,1]", p.Scenario, p.Repair, p.CurrentRate)
		}
	}
	return nil
}

// base is the configuration every (scenario, mode) run starts from:
// UMS-Direct with the paper's background churn kept on, so the scripted
// events land on top of realistic steady-state dynamics.
func (p *scenarioParams) base(o Options) Scenario {
	sc := o.table1(AlgUMSDirect, p.peers)
	sc.Duration = p.duration
	sc.Queries = p.queries
	return sc
}

// run plays each selected scenario with maintenance off and on, on the
// same seed, and tabulates currency, E(X), response time and failure
// counts per (scenario, repair mode).
func (p *scenarioParams) run(o Options) (*Table, *ScenarioPoints, error) {
	selected := names(p.scenarios, scenario.BuiltinNames())
	scripts := make([]scenario.Script, len(selected))
	for i, name := range selected {
		var err error
		if scripts[i], err = scenario.Builtin(name, p.duration); err != nil {
			return nil, nil, err
		}
	}
	points := make(ScenarioPoints, 0, len(selected)*len(ScenarioRepairModes))
	for i, name := range selected {
		for _, mode := range ScenarioRepairModes {
			sc := p.base(o)
			sc.Name = fmt.Sprintf("scenario-%s/repair-%s", name, mode)
			if mode == "on" {
				sc.Repair = repairConfigFor("sweep+read-repair")
			}
			sc.Script = &scripts[i]
			r := Run(sc)
			applied := 0
			if r.Trace != nil {
				applied = len(r.Trace.Applied)
			}
			points = append(points, ScenarioPoint{
				Scenario:          name,
				Repair:            mode,
				Peers:             sc.Peers,
				Seed:              sc.Seed,
				DurationSec:       sc.Duration.Seconds(),
				EventsApplied:     applied,
				QueriesRun:        r.QueriesRun,
				CurrentRate:       r.CurrentRate,
				ProbesPerRetrieve: r.Probed.Mean(),
				RespTimeSec:       r.RespTime.Mean(),
				MsgsPerRetrieve:   r.Msgs.Mean(),
				StaleReturns:      r.StaleReturns,
				FailedQueries:     r.QueriesFailed,
				ChurnEvents:       r.ChurnEvents,
				ReplicasHealed:    r.Repair.Healed,
				ReadRepairs:       r.Repair.ReadRepairs,
				MaintenanceMsgs:   r.Repair.Msgs,
			})
			o.progress("%-32s events=%2d current=%3.0f%% probes=%4.2f resp=%6.2fs stale=%d failed=%d healed=%d",
				sc.Name, applied, 100*r.CurrentRate, r.Probed.Mean(),
				r.RespTime.Mean(), r.StaleReturns, r.QueriesFailed, r.Repair.Healed)
		}
	}
	t := NewTable("Scenarios: currency and cost under scripted faults (UMS-Direct, repair off vs on)",
		"scenario/repair", "effect",
		[]string{"current %", "E(X) probes", "resp (s)", "stale", "failed", "events", "healed"})
	for _, pt := range points {
		t.Row(pt.Scenario+"/"+pt.Repair, 100*pt.CurrentRate, pt.ProbesPerRetrieve, pt.RespTimeSec,
			float64(pt.StaleReturns), float64(pt.FailedQueries), float64(pt.EventsApplied), float64(pt.ReplicasHealed))
	}
	t.Notes = append(t.Notes,
		"scripted scenarios (internal/scenario) on top of the paper's background churn;",
		"calm is the control; split-heal exercises the partition/heal path incl. ring re-merge;",
		"repair on = anti-entropy sweep + read-repair, same knobs as the repair figure;",
		"repair trades failed queries for available (sometimes stale) returns: after the hts",
		"responsible crashes, indirect init leaves last_ts past every replica until the next",
		"insert, so healed replicas count as stale, not provably current (see README repair notes)")
	return t, &points, nil
}

package exp

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/scenario"
)

// The recovery figure: kill-and-restart waves played twice on the same
// seed — once with volatile peers (a restarted peer comes back blank,
// the paper's fail-stop "crash-and-forget" model) and once with durable
// stores (a restarted peer resumes its retained replicas and counters
// and runs the §4.2.2 recovery strategy). The paper's model only ever
// replaces a failed peer with an empty newcomer; this figure measures
// what a real deployment's write-ahead log wins back: queries that find
// their pre-crash replicas, timestamps that continue instead of
// re-initializing, and the stale/failed retrieves that disappear.

// RecoveryModes are the storage modes every recovery scenario runs
// under, in plotting order.
var RecoveryModes = []string{"crash-forget", "durable"}

// recoveryParams are the recovery figure's parameters.
type recoveryParams struct {
	peers, queries int
	duration       time.Duration
}

func (p *recoveryParams) declare(fs *flag.FlagSet, o Options) {
	fs.IntVar(&p.peers, "peers", pick(o, 120, o.basePeers()), "deployment size")
	fs.IntVar(&p.queries, "queries", 60, "measured retrieves per storage mode")
	fs.DurationVar(&p.duration, "duration", o.duration(), "measured window of simulated time per storage mode")
}

// RecoveryScriptName names the kill-and-restart script the figure plays.
const RecoveryScriptName = "kill-restart-waves"

// RecoveryScript builds the figure's script over a window: two
// crash waves, each followed by a restart wave that revives every
// downed peer. Between a crash and its restart the affected arcs are
// simply gone (no replacements join), so the window in between measures
// loss and the window after measures what restart brought back.
func RecoveryScript(w time.Duration) scenario.Script {
	f := func(frac float64) time.Duration { return time.Duration(float64(w) * frac) }
	return scenario.Script{Name: RecoveryScriptName, Events: []scenario.Event{
		{At: f(0.15), Kind: scenario.KindCrashWave, Frac: 0.35, Over: f(0.05)},
		{At: f(0.30), Kind: scenario.KindRestartWave, Frac: 1.0, Over: f(0.05)},
		{At: f(0.55), Kind: scenario.KindCrashWave, Frac: 0.35, Over: f(0.05)},
		{At: f(0.70), Kind: scenario.KindRestartWave, Frac: 1.0, Over: f(0.05)},
	}}
}

// RecoveryPoint is one (mode) outcome in machine-readable form;
// cmd/dcdht-bench serializes the pair as BENCH_recovery.json (schema in
// docs/BENCHMARKS.md).
type RecoveryPoint struct {
	Mode              string  `json:"mode"` // crash-forget | durable
	Peers             int     `json:"peers"`
	Seed              int64   `json:"seed"`
	DurationSec       float64 `json:"duration_sec"`
	EventsApplied     int     `json:"events_applied"`
	Crashes           int     `json:"crashes"`
	Restarts          int     `json:"restarts"`
	FailedRestarts    int     `json:"failed_restarts"`
	QueriesRun        int     `json:"queries_run"`
	CurrentRate       float64 `json:"current_rate"`
	ProbesPerRetrieve float64 `json:"probes_per_retrieve"` // observed E(X)
	RespTimeSec       float64 `json:"resp_time_sec"`
	MsgsPerRetrieve   float64 `json:"msgs_per_retrieve"`
	StaleReturns      int     `json:"stale_returns"`
	FailedQueries     int     `json:"failed_queries"`
	UpdatesFailed     int     `json:"updates_failed"`
}

// RecoveryPoints is the recovery figure's document (BENCH_recovery.json).
type RecoveryPoints []RecoveryPoint

// Validate checks that exactly the two storage modes ran the same
// experiment, both played crash and restart waves and ran queries, and
// that retained state never made things worse: durable currency is at
// least crash-and-forget's and durable fails no more queries.
func (ps RecoveryPoints) Validate() error {
	if len(ps) != len(RecoveryModes) {
		return fmt.Errorf("recovery: %d points, want exactly the storage modes %v", len(ps), RecoveryModes)
	}
	for i, p := range ps {
		if p.Mode != RecoveryModes[i] {
			return fmt.Errorf("recovery: point %d is mode %q, want %q", i, p.Mode, RecoveryModes[i])
		}
		if p.QueriesRun <= 0 {
			return fmt.Errorf("recovery: mode %q ran no queries", p.Mode)
		}
		if p.Peers <= 0 || p.DurationSec <= 0 {
			return fmt.Errorf("recovery: mode %q: missing deployment shape: peers=%d duration=%v", p.Mode, p.Peers, p.DurationSec)
		}
		if p.Crashes <= 0 || p.Restarts <= 0 {
			return fmt.Errorf("recovery: mode %q: crashes=%d restarts=%d, want both waves played", p.Mode, p.Crashes, p.Restarts)
		}
		if p.CurrentRate < 0 || p.CurrentRate > 1 {
			return fmt.Errorf("recovery: mode %q: current_rate %v outside [0,1]", p.Mode, p.CurrentRate)
		}
	}
	cf, du := ps[0], ps[1]
	if cf.Seed != du.Seed || cf.Peers != du.Peers || cf.DurationSec != du.DurationSec {
		return fmt.Errorf("recovery: modes did not run the same experiment: %+v vs %+v", cf, du)
	}
	if du.CurrentRate < cf.CurrentRate {
		return fmt.Errorf("recovery: durable currency %.3f below crash-and-forget %.3f on seed %d",
			du.CurrentRate, cf.CurrentRate, du.Seed)
	}
	if du.FailedQueries > cf.FailedQueries {
		return fmt.Errorf("recovery: durable failed %d queries, crash-and-forget only %d on seed %d",
			du.FailedQueries, cf.FailedQueries, du.Seed)
	}
	return nil
}

// run plays the identical kill-and-restart script on the same seed in
// both storage modes, and tabulates currency, E(X), response time and
// loss per mode. Both start from UMS-Direct with background churn off,
// so the scripted waves are the only failures and the mode contrast is
// pure storage.
func (p *recoveryParams) run(o Options) (*Table, *RecoveryPoints, error) {
	points := make(RecoveryPoints, 0, len(RecoveryModes))
	for _, mode := range RecoveryModes {
		sc := o.table1(AlgUMSDirect, p.peers)
		sc.Duration = p.duration
		sc.ChurnRate = 0
		// Sparse replication puts the figure in the loss regime: a 35%
		// wave has a real chance of taking out every replica of some key,
		// which is exactly the case where the storage mode decides the
		// outcome.
		sc.Replicas = 3
		// Brisk ring maintenance: restart waves rejoin into arcs whose
		// neighbors just died, so stale fingers must heal inside the
		// window.
		sc.Chord.StabilizeEvery = 5 * time.Second
		sc.Chord.FixFingersEvery = 5 * time.Second
		sc.Chord.CheckPredEvery = 5 * time.Second
		sc.Queries = p.queries
		sc.Name = fmt.Sprintf("recovery/%s", mode)
		sc.Durable = mode == "durable"
		script := RecoveryScript(sc.Duration)
		sc.Script = &script
		r := Run(sc)
		pt := RecoveryPoint{
			Mode:              mode,
			Peers:             sc.Peers,
			Seed:              sc.Seed,
			DurationSec:       sc.Duration.Seconds(),
			QueriesRun:        r.QueriesRun,
			CurrentRate:       r.CurrentRate,
			ProbesPerRetrieve: r.Probed.Mean(),
			RespTimeSec:       r.RespTime.Mean(),
			MsgsPerRetrieve:   r.Msgs.Mean(),
			StaleReturns:      r.StaleReturns,
			FailedQueries:     r.QueriesFailed,
			UpdatesFailed:     r.UpdatesFailed,
		}
		if r.Trace != nil {
			pt.EventsApplied = len(r.Trace.Applied)
			for _, a := range r.Trace.Applied {
				switch a.Kind {
				case scenario.KindCrashWave:
					pt.Crashes++
				case scenario.KindRestartWave:
					if a.Note == "" {
						pt.Restarts++
					} else {
						pt.FailedRestarts++
					}
				}
			}
		}
		points = append(points, pt)
		o.progress("%-24s crashes=%2d restarts=%2d current=%3.0f%% stale=%d failed=%d",
			sc.Name, pt.Crashes, pt.Restarts, 100*pt.CurrentRate, pt.StaleReturns, pt.FailedQueries)
	}
	t := NewTable("Recovery: crash-and-forget vs durable restart (UMS-Direct, kill-and-restart waves)",
		"mode", "effect",
		[]string{"current %", "E(X) probes", "resp (s)", "stale", "failed", "crashes", "restarts"})
	for _, pt := range points {
		t.Row(pt.Mode, 100*pt.CurrentRate, pt.ProbesPerRetrieve, pt.RespTimeSec,
			float64(pt.StaleReturns), float64(pt.FailedQueries), float64(pt.Crashes), float64(pt.Restarts))
	}
	t.Notes = append(t.Notes,
		"both modes play the identical kill-and-restart script on the same seed;",
		"crash-forget = the paper's model: a restarted peer returns blank (volatile store);",
		"durable = restarted peers resume retained replicas + KTS counters (internal/store),",
		"then run the §4.2.2 recovery strategy, so pre-crash data answers post-restart queries")
	return t, &points, nil
}

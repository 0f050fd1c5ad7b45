package exp

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/repair"
)

// The replica-maintenance comparison: the same churny UMS-Direct workload
// run with maintenance off, with the anti-entropy sweep alone, and with
// sweep plus read-repair. It extends the paper's Figure 11 axis — where
// currency degrades with the failure rate because nothing refreshes
// replicas between updates — by measuring how much of that degradation
// the maintenance subsystem wins back, and what it costs in messages.

// RepairModes names the three compared configurations, in plotting order.
var RepairModes = []string{"off", "sweep", "sweep+read-repair"}

// repairConfigFor maps a mode name to the subsystem configuration used
// by the comparison. The sweep period is chosen against the compressed
// quick-mode clock so several rounds fit between churn events.
func repairConfigFor(mode string) repair.Config {
	switch mode {
	case "sweep":
		return repair.Config{Every: 2 * time.Minute, PerRound: 8}
	case "sweep+read-repair":
		return repair.Config{Every: 2 * time.Minute, PerRound: 8, ReadRepair: true}
	default:
		return repair.Config{}
	}
}

// RepairPoint is one mode's outcome in machine-readable form;
// cmd/dcdht-bench serializes the set as BENCH_repair.json so the
// currency/cost trajectory is tracked across commits.
type RepairPoint struct {
	Mode              string  `json:"mode"`
	Peers             int     `json:"peers"`
	FailRate          float64 `json:"fail_rate"`
	QueriesRun        int     `json:"queries_run"`
	CurrentRate       float64 `json:"current_rate"`
	ProbesPerRetrieve float64 `json:"probes_per_retrieve"` // observed E(X)
	RespTimeSec       float64 `json:"resp_time_sec"`
	MsgsPerRetrieve   float64 `json:"msgs_per_retrieve"`
	StaleReturns      int     `json:"stale_returns"`
	FailedQueries     int     `json:"failed_queries"`
	ReplicasHealed    uint64  `json:"replicas_healed"`
	ReadRepairs       uint64  `json:"read_repairs"`
	MaintenanceMsgs   uint64  `json:"maintenance_msgs"`
	MaintenanceBytes  uint64  `json:"maintenance_bytes"`
}

// RepairPoints is the repair figure's document (BENCH_repair.json).
type RepairPoints []RepairPoint

// Validate checks one point per mode, each of which ran queries and
// reports a currency rate in [0,1].
func (ps RepairPoints) Validate() error {
	if len(ps) != len(RepairModes) {
		return fmt.Errorf("repair: %d points, want one per mode %v", len(ps), RepairModes)
	}
	for i, p := range ps {
		if p.Mode != RepairModes[i] {
			return fmt.Errorf("repair: point %d is mode %q, want %q", i, p.Mode, RepairModes[i])
		}
		if p.QueriesRun <= 0 || p.Peers <= 0 {
			return fmt.Errorf("repair: mode %q: peers=%d queries_run=%d", p.Mode, p.Peers, p.QueriesRun)
		}
		if p.CurrentRate < 0 || p.CurrentRate > 1 {
			return fmt.Errorf("repair: mode %q: current_rate %v outside [0,1]", p.Mode, p.CurrentRate)
		}
	}
	return nil
}

// repairParams: the repair figure has no parameters beyond the scale.
type repairParams struct{}

func (*repairParams) declare(*flag.FlagSet, Options) {}

// run plays the three modes on the same seed and workload and tabulates
// the probability of currency, E(X) (replicas probed), stale fallbacks
// and the maintenance work per mode. The failure share is raised above
// Table 1's 5% so replica loss — the condition maintenance exists for —
// actually occurs within the window.
func (*repairParams) run(o Options) (*Table, *RepairPoints, error) {
	points := make(RepairPoints, 0, len(RepairModes))
	for _, mode := range RepairModes {
		sc := o.table1(AlgUMSDirect, o.basePeers())
		sc.Name = "repair-" + mode
		sc.FailRate = 0.3
		sc.Repair = repairConfigFor(mode)
		r := Run(sc)
		points = append(points, RepairPoint{
			Mode:              mode,
			Peers:             sc.Peers,
			FailRate:          sc.FailRate,
			QueriesRun:        r.QueriesRun,
			CurrentRate:       r.CurrentRate,
			ProbesPerRetrieve: r.Probed.Mean(),
			RespTimeSec:       r.RespTime.Mean(),
			MsgsPerRetrieve:   r.Msgs.Mean(),
			StaleReturns:      r.StaleReturns,
			FailedQueries:     r.QueriesFailed,
			ReplicasHealed:    r.Repair.Healed,
			ReadRepairs:       r.Repair.ReadRepairs,
			MaintenanceMsgs:   r.Repair.Msgs,
			MaintenanceBytes:  r.Repair.Bytes,
		})
		o.progress("%-24s current=%.0f%% probes=%4.2f resp=%6.2fs healed=%d readrep=%d",
			sc.Name, 100*r.CurrentRate, r.Probed.Mean(), r.RespTime.Mean(),
			r.Repair.Healed, r.Repair.ReadRepairs)
	}
	t := NewTable("Repair: currency and E(X) under sustained churn (UMS-Direct, 30% failures)",
		"repair", "effect",
		[]string{"current %", "E(X) probes", "stale returns", "healed", "maint msgs"})
	for _, p := range points {
		t.Row(p.Mode, 100*p.CurrentRate, p.ProbesPerRetrieve, float64(p.StaleReturns),
			float64(p.ReplicasHealed), float64(p.MaintenanceMsgs))
	}
	t.Notes = append(t.Notes,
		"off reproduces the paper's decay: crashed peers' replicas stay lost until the next update;",
		"the sweep re-pushes current values to the live replica set (PutIfNewer, monotone);",
		"read-repair additionally refreshes stale/missing replicas observed by each retrieve")
	return t, &points, nil
}

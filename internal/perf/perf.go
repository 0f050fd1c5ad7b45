// Package perf defines the machine-readable perf figure
// (BENCH_perf.json) and the validation invariants CI holds every
// regeneration to, plus the bare-kernel benchmark the repository
// benchmark's simnet probe runs.
//
// Every field of the figure — operation counts, messages per op, KTS
// requests per op, simulated latency, the macro workload's simulated
// throughput — is a function of the seed alone, so two runs at the same
// seed and scale marshal to byte-identical JSON and CI byte-compares a
// regeneration against the committed file, like every other baseline.
// Wall-clock and allocation numbers have one owner, the repository
// benchmark under benchmarks/, and never enter the figure.
package perf

import "fmt"

// SchemaV2 names the current perf figure schema; Validate rejects
// anything else so a stale baseline fails loudly. (v1 carried wall-clock
// fields and the kernel sweep.)
const SchemaV2 = "dcdht-perf/v2"

// Figure is the machine-readable perf export (BENCH_perf.json).
type Figure struct {
	// Schema tags the layout (SchemaV2).
	Schema string `json:"schema"`
	// Seed and Full echo the run's provenance.
	Seed int64 `json:"seed"`
	Full bool  `json:"full"`
	// Ops holds one micro point per (algorithm, operation, level).
	Ops []OpPoint `json:"ops"`
	// Macro is the end-to-end workload point (nil when skipped).
	Macro *MacroPoint `json:"macro,omitempty"`
}

// OpPoint measures one operation shape end to end through a simulated
// deployment: UMS or BRK, put or get, and for UMS gets the consistency
// level the read ran at.
type OpPoint struct {
	// Alg is "ums" or "brk"; Op is "put" or "get"; Level is the
	// consistency level for UMS gets ("current", "bounded", "eventual")
	// and empty otherwise — puts and BRK ops have no level axis.
	Alg   string `json:"alg"`
	Op    string `json:"op"`
	Level string `json:"level,omitempty"`

	OpsRun       int     `json:"ops_run"`
	MsgsPerOp    float64 `json:"msgs_per_op"`
	KTSReqsPerOp float64 `json:"kts_reqs_per_op"`
	SimLatencyMs float64 `json:"sim_latency_ms"`
}

// key identifies an op point within a figure.
func (p OpPoint) key() string { return p.Alg + "/" + p.Op + "/" + p.Level }

// MacroPoint measures one closed-loop workload run end to end in
// simulated time.
type MacroPoint struct {
	Peers         int     `json:"peers"`
	Ops           int     `json:"ops"`
	Failed        int     `json:"failed"`
	SimElapsedSec float64 `json:"sim_elapsed_sec"`
	SimOpsPerSec  float64 `json:"sim_ops_per_sec"`
}

// Validate checks the figure's internal invariants: schema, shape, and
// the cost orderings the consistency model promises — relaxed reads
// must cost less than provably-current ones, eventual reads must never
// touch KTS, and every UMS write pays at least one timestamp grant.
func (f *Figure) Validate() error {
	if f.Schema != SchemaV2 {
		return fmt.Errorf("perf: schema %q, want %q", f.Schema, SchemaV2)
	}
	if len(f.Ops) == 0 {
		return fmt.Errorf("perf: empty op point set")
	}
	byKey := map[string]OpPoint{}
	for i, p := range f.Ops {
		if p.Alg != "ums" && p.Alg != "brk" {
			return fmt.Errorf("perf: op point %d: unknown alg %q", i, p.Alg)
		}
		if p.Op != "put" && p.Op != "get" {
			return fmt.Errorf("perf: op point %d: unknown op %q", i, p.Op)
		}
		switch p.Level {
		case "":
			if p.Alg == "ums" && p.Op == "get" {
				return fmt.Errorf("perf: op point %d: ums get without a level", i)
			}
		case "current", "bounded", "eventual":
			if p.Alg != "ums" || p.Op != "get" {
				return fmt.Errorf("perf: op point %d: level %q on %s %s", i, p.Level, p.Alg, p.Op)
			}
		default:
			return fmt.Errorf("perf: op point %d: unknown level %q", i, p.Level)
		}
		if p.OpsRun <= 0 {
			return fmt.Errorf("perf: op point %s ran no operations", p.key())
		}
		if p.MsgsPerOp <= 0 || p.SimLatencyMs < 0 || p.KTSReqsPerOp < 0 {
			return fmt.Errorf("perf: op point %s: implausible costs: msgs=%v lat=%v kts=%v",
				p.key(), p.MsgsPerOp, p.SimLatencyMs, p.KTSReqsPerOp)
		}
		if _, dup := byKey[p.key()]; dup {
			return fmt.Errorf("perf: duplicate op point %s", p.key())
		}
		byKey[p.key()] = p
	}
	// BRK has no timestamp service: any KTS traffic is a measurement bug.
	for _, p := range f.Ops {
		if p.Alg == "brk" && p.KTSReqsPerOp != 0 {
			return fmt.Errorf("perf: brk point %s reports KTS traffic (%v/op)", p.key(), p.KTSReqsPerOp)
		}
	}
	// UMS writes pay at least one gen_ts grant per insert.
	if put, ok := byKey["ums/put/"]; ok && put.KTSReqsPerOp < 1 {
		return fmt.Errorf("perf: ums put reports %v KTS reqs/op, want >= 1", put.KTSReqsPerOp)
	}
	// Level orderings, when all three UMS get levels are present.
	cur, ok1 := byKey["ums/get/current"]
	bnd, ok2 := byKey["ums/get/bounded"]
	ev, ok3 := byKey["ums/get/eventual"]
	if ok1 && ok2 && ok3 {
		if ev.KTSReqsPerOp != 0 {
			return fmt.Errorf("perf: eventual get touched KTS (%v reqs/op)", ev.KTSReqsPerOp)
		}
		if !(ev.MsgsPerOp < cur.MsgsPerOp) || !(bnd.MsgsPerOp < cur.MsgsPerOp) {
			return fmt.Errorf("perf: messages not strictly ordered: eventual %.2f / bounded %.2f vs current %.2f",
				ev.MsgsPerOp, bnd.MsgsPerOp, cur.MsgsPerOp)
		}
		if cur.KTSReqsPerOp < 1 {
			return fmt.Errorf("perf: current get reports %v KTS reqs/op, want >= 1", cur.KTSReqsPerOp)
		}
	}
	if f.Macro != nil {
		if f.Macro.Ops <= 0 {
			return fmt.Errorf("perf: macro point ran no operations")
		}
		if f.Macro.Failed*10 > f.Macro.Ops {
			return fmt.Errorf("perf: macro point failed %d of %d ops (>10%%)", f.Macro.Failed, f.Macro.Ops)
		}
		if f.Macro.SimElapsedSec <= 0 {
			return fmt.Errorf("perf: macro point reports no simulated window")
		}
	}
	return nil
}

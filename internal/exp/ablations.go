package exp

import (
	"fmt"
	"time"
)

// Ablations beyond the paper's figures (DESIGN.md §6): each isolates one
// design decision DESIGN.md calls out and measures what it buys.

// ablationScenario is the shared baseline: UMS at the quick/full base
// population under the Table 1 workload (time-compressed in quick mode).
func ablationScenario(o Options, alg Algorithm) Scenario {
	sc := Table1Scenario(alg, o.basePeers(), o.seed())
	sc.Duration = o.duration()
	sc.ChurnRate = o.churnFor(sc.Peers)
	sc.UpdateRate *= o.compress()
	return sc
}

// AblationRLU compares RLA operation (counters survive until
// responsibility actually moves) against the §4.3 RLU fallback (drop the
// counter after every generated timestamp). RLU forces an indirect
// initialization per insert, which the response time of both inserts and
// retrieves pays for.
func AblationRLU(o Options) *Table {
	t := NewTable("Ablation (§4.3): RLA vs RLU counter management (UMS-Direct)",
		"mode", "per-retrieve cost", []string{"resp (s)", "msgs", "stale returns"})
	for _, rlu := range []bool{false, true} {
		sc := ablationScenario(o, AlgUMSDirect)
		sc.Name = fmt.Sprintf("ablation-rlu=%v", rlu)
		sc.RLU = rlu
		r := Run(sc)
		x := "RLA (normal)"
		if rlu {
			x = "RLU fallback"
		}
		t.Set(x, "resp (s)", r.RespTime.Mean())
		t.Set(x, "msgs", r.Msgs.Mean())
		t.Set(x, "stale returns", float64(r.StaleReturns))
		o.progress("%-24s resp=%6.2fs msgs=%5.1f stale=%d", sc.Name,
			r.RespTime.Mean(), r.Msgs.Mean(), r.StaleReturns)
	}
	t.Notes = append(t.Notes,
		"RLU is the fallback for DHTs that cannot detect responsibility loss (§4.3);",
		"Chord and CAN are RLA, so the fallback only costs — it never helps them")
	return t
}

// AblationGraceDelay sweeps the indirect algorithm's pre-read wait
// (§4.2.2's "waits a while"): too short risks missing in-flight commits,
// longer only adds latency. The wait runs from the last change to the
// responsible's arc, so only a re-initialization that follows such a
// change by less than the delay pays any of it.
func AblationGraceDelay(o Options) *Table {
	t := NewTable("Ablation (§4.2.2): indirect-init grace delay (UMS-Indirect)",
		"grace", "per-retrieve cost", []string{"resp (s)", "stale returns", "failed"})
	for _, grace := range []time.Duration{0, 500 * time.Millisecond, 2 * time.Second, 8 * time.Second} {
		sc := ablationScenario(o, AlgUMSIndirect)
		sc.Name = fmt.Sprintf("ablation-grace=%s", grace)
		sc.Grace = grace
		if grace == 0 {
			sc.Grace = -1 // explicit "no wait" (0 selects the default)
		}
		r := Run(sc)
		t.Set(grace.String(), "resp (s)", r.RespTime.Mean())
		t.Set(grace.String(), "stale returns", float64(r.StaleReturns))
		t.Set(grace.String(), "failed", float64(r.QueriesFailed))
		o.progress("%-24s resp=%6.2fs stale=%d failed=%d", sc.Name,
			r.RespTime.Mean(), r.StaleReturns, r.QueriesFailed)
	}
	return t
}

// AblationSuccessorList sweeps Chord's successor-list length under an
// elevated failure rate: the list is the ring's failure budget, and
// retrieval reliability collapses when it is too short.
func AblationSuccessorList(o Options) *Table {
	t := NewTable("Ablation: Chord successor-list length under 50% failures (UMS-Direct)",
		"list len", "reliability", []string{"resp (s)", "failed queries", "stale returns"})
	for _, l := range []int{2, 4, 8, 16} {
		sc := ablationScenario(o, AlgUMSDirect)
		sc.Name = fmt.Sprintf("ablation-succs=%d", l)
		sc.FailRate = 0.5
		sc.Chord.SuccessorListLen = l
		r := Run(sc)
		x := fmt.Sprint(l)
		t.Set(x, "resp (s)", r.RespTime.Mean())
		t.Set(x, "failed queries", float64(r.QueriesFailed))
		t.Set(x, "stale returns", float64(r.StaleReturns))
		o.progress("%-24s resp=%6.2fs failed=%d stale=%d", sc.Name,
			r.RespTime.Mean(), r.QueriesFailed, r.StaleReturns)
	}
	return t
}

// AblationDataHandoff contrasts the paper's DHT model (replicas do NOT
// move with responsibility; availability decays between updates) with
// the engineering extension this library enables by default (graceful
// handoffs move replicas). It quantifies how much currency the handoff
// buys — and why the paper's probabilistic analysis assumes pt < 1.
func AblationDataHandoff(o Options) *Table {
	t := NewTable("Ablation: replica handoff on responsibility change (UMS-Direct)",
		"data model", "effect", []string{"resp (s)", "probes", "current %"})
	for _, handoff := range []bool{false, true} {
		sc := ablationScenario(o, AlgUMSDirect)
		sc.Name = fmt.Sprintf("ablation-handoff=%v", handoff)
		sc.DataHandoff = handoff
		r := Run(sc)
		x := "paper model (no handoff)"
		if handoff {
			x = "with handoff"
		}
		t.Set(x, "resp (s)", r.RespTime.Mean())
		t.Set(x, "probes", r.Probed.Mean())
		t.Set(x, "current %", 100*r.CurrentRate)
		o.progress("%-28s resp=%6.2fs probes=%4.2f current=%.0f%%", sc.Name,
			r.RespTime.Mean(), r.Probed.Mean(), 100*r.CurrentRate)
	}
	t.Notes = append(t.Notes,
		"the paper's model loses a replica whenever its responsible departs;",
		"handing replicas over on graceful leaves keeps pt near 1 between updates")
	return t
}

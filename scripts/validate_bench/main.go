// Command validate_bench checks a machine-readable bench file emitted
// by dcdht-bench against the documented schema (docs/BENCHMARKS.md) and
// its figure's acceptance invariants. The figure is picked from the
// file name: a name containing "recovery", "gateway" or "lookup"
// validates as that figure's export; anything else as the consistency
// figure.
//
// Consistency (BENCH_consistency.json):
//
//   - every (level, repair) cell ran queries and reports sane costs;
//   - per repair mode, Eventual and Bounded retrieves cost strictly
//     fewer messages and strictly less response time than Current;
//   - Current reports Currency == Proven for every retrieve that found
//     a current replica at all (proven + stale + failed == run), and
//     never a weaker verdict;
//   - Eventual never claims currency.
//
// Recovery (BENCH_recovery.json):
//
//   - exactly the two storage modes, same seed and population;
//   - both modes played crash and restart waves and ran queries;
//   - on the same seed, durable currency is at least crash-and-forget's
//     and durable fails no more queries — retained state must never
//     make things worse.
//
// Gateway (BENCH_gateway.json):
//
//   - both arms ran the identical op count on the same seed and shape;
//   - the gateway arm issued strictly fewer KTS requests than direct;
//   - hot-key coalescing reached at least 2x (reads served per backend
//     read on the coalescing path), the figure's acceptance floor;
//   - the gateway's counters account: flights + coalesced + cache-served
//     gets cover at least the coalesced traffic, and backend errors
//     stayed at zero.
//
// Lookup (BENCH_lookup.json):
//
//   - every point ran lookups and resolved only true owners
//     (wrong_owner == 0);
//   - at every deployment size the onehop arm's mean hops stay within
//     the 1.1 acceptance ceiling and strictly below plain chord's;
//   - the chord+cache arm (resolve as an operation does: Guess, else
//     Lookup) never costs more hops than the authoritative lookup
//     alone, and learned arcs actually answered.
//
// Perf (BENCH_perf.json):
//
//   - the schema tag matches, every micro point ran operations, and
//     the consistency cost orderings hold (Eventual and Bounded reads
//     cost fewer messages than Current; Eventual never touches KTS;
//     every UMS insert pays at least one gen_ts grant; BRK reports no
//     KTS traffic at all);
//   - the kernel sweep covers increasing synthetic scales with
//     increasing event counts;
//   - with a second argument, the file's deterministic fields must
//     equal the committed baseline's exactly — same-seed simulation is
//     a pure function, so any drift is a behavior change that needs a
//     regenerated baseline (timing fields are never compared).
//
// Usage: validate_bench BENCH_<figure>.json [BASELINE.json]
// Exit status 0 when the file conforms; 1 with diagnostics otherwise.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/exp"
	"repro/internal/perf"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "validate_bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) != 2 && len(os.Args) != 3 {
		fail("usage: validate_bench BENCH_<figure>.json [BASELINE.json]")
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fail("%v", err)
	}
	base := strings.ToLower(filepath.Base(os.Args[1]))
	if len(os.Args) == 3 && !strings.Contains(base, "perf") {
		fail("a baseline argument is only supported for the perf figure")
	}
	switch {
	case strings.Contains(base, "recovery"):
		validateRecovery(data)
	case strings.Contains(base, "gateway"):
		validateGateway(data)
	case strings.Contains(base, "lookup"):
		validateLookup(data)
	case strings.Contains(base, "perf"):
		validatePerf(data)
	default:
		validateConsistency(data)
	}
}

// validatePerf checks a perf figure export against the schema and cost
// orderings (perf.Figure.Validate), and — when a baseline path was
// given — against the committed baseline's deterministic fields.
func validatePerf(data []byte) {
	var fig perf.Figure
	if err := json.Unmarshal(data, &fig); err != nil {
		fail("not a perf figure: %v", err)
	}
	if len(os.Args) == 3 {
		baseData, err := os.ReadFile(os.Args[2])
		if err != nil {
			fail("baseline: %v", err)
		}
		var baseline perf.Figure
		if err := json.Unmarshal(baseData, &baseline); err != nil {
			fail("baseline %s is not a perf figure: %v", os.Args[2], err)
		}
		if err := fig.ValidateAgainst(&baseline); err != nil {
			fail("%v (regenerate the baseline if the change is intended)", err)
		}
		fmt.Printf("validate_bench: %s conforms and matches baseline %s (%d op points, %d kernel scales)\n",
			os.Args[1], os.Args[2], len(fig.Ops), len(fig.Kernel))
		return
	}
	if err := fig.Validate(); err != nil {
		fail("%v", err)
	}
	fmt.Printf("validate_bench: %s conforms (%d op points, %d kernel scales)\n",
		os.Args[1], len(fig.Ops), len(fig.Kernel))
}

// validateLookup checks the lookup acceleration figure: every point is
// safe (wrong_owner == 0), and at each deployment size onehop stays at
// ~one hop and strictly below chord, while resolving through learned
// arcs never costs more hops than the authoritative lookup alone.
func validateLookup(data []byte) {
	var res exp.LookupResult
	if err := json.Unmarshal(data, &res); err != nil {
		fail("not a lookup result: %v", err)
	}
	if len(res.Points) == 0 {
		fail("empty point set")
	}
	if res.Samples <= 0 {
		fail("samples %d not positive", res.Samples)
	}
	byKey := map[string]exp.LookupPoint{}
	var sizes []int
	for i, p := range res.Points {
		switch p.Arm {
		case exp.LookupArmChord, exp.LookupArmCache, exp.LookupArmOneHop:
		default:
			fail("point %d: unknown arm %q", i, p.Arm)
		}
		if p.Peers <= 0 || p.Samples <= 0 {
			fail("point %d (%s): missing shape: peers=%d samples=%d", i, p.Arm, p.Peers, p.Samples)
		}
		if p.WrongOwner != 0 {
			fail("point %d (%s/n=%d): %d lookups resolved a node that does not own the target", i, p.Arm, p.Peers, p.WrongOwner)
		}
		if p.MeanHops < 0 || p.MeanLatencyMs < 0 || p.MaintMsgsPerPeerMin < 0 {
			fail("point %d (%s/n=%d): negative costs: hops=%v lat=%v maint=%v",
				i, p.Arm, p.Peers, p.MeanHops, p.MeanLatencyMs, p.MaintMsgsPerPeerMin)
		}
		key := fmt.Sprintf("%s/%d", p.Arm, p.Peers)
		if _, dup := byKey[key]; dup {
			fail("duplicate point %s", key)
		}
		byKey[key] = p
		if p.Arm == exp.LookupArmChord {
			sizes = append(sizes, p.Peers)
		}
	}
	sort.Ints(sizes)
	for _, n := range sizes {
		chord, ok1 := byKey[fmt.Sprintf("%s/%d", exp.LookupArmChord, n)]
		cache, ok2 := byKey[fmt.Sprintf("%s/%d", exp.LookupArmCache, n)]
		oneh, ok3 := byKey[fmt.Sprintf("%s/%d", exp.LookupArmOneHop, n)]
		if !ok1 || !ok2 || !ok3 {
			fail("n=%d: missing an arm (want chord, chord+cache and onehop)", n)
		}
		if oneh.MeanHops > 1.1 {
			fail("n=%d: onehop mean hops %.3f exceeds the 1.1 acceptance ceiling", n, oneh.MeanHops)
		}
		if !(oneh.MeanHops < chord.MeanHops) {
			fail("n=%d: onehop mean hops %.3f not strictly below chord's %.3f", n, oneh.MeanHops, chord.MeanHops)
		}
		if cache.MeanHops > chord.MeanHops {
			fail("n=%d: chord+cache mean hops %.3f worse than plain chord's %.3f", n, cache.MeanHops, chord.MeanHops)
		}
		if cache.CacheHitRate <= 0 {
			fail("n=%d: chord+cache reports a zero hit rate — no learned arc ever answered", n)
		}
		if oneh.OneHopTableSize <= 0 {
			fail("n=%d: onehop reports no routing table", n)
		}
	}
	fmt.Printf("validate_bench: %s conforms (%d points, onehop within one-hop ceiling at every size)\n",
		os.Args[1], len(res.Points))
}

// validateRecovery checks a recovery comparison: schema, provenance and
// the durable-never-worse orderings.
func validateRecovery(data []byte) {
	var points []exp.RecoveryPoint
	if err := json.Unmarshal(data, &points); err != nil {
		fail("not a recovery point array: %v", err)
	}
	if len(points) != 2 {
		fail("recovery wants exactly the two storage modes, got %d points", len(points))
	}
	byMode := map[string]exp.RecoveryPoint{}
	for i, p := range points {
		if p.Mode != "crash-forget" && p.Mode != "durable" {
			fail("point %d: unknown mode %q", i, p.Mode)
		}
		if p.QueriesRun <= 0 {
			fail("mode %q ran no queries", p.Mode)
		}
		if p.Peers <= 0 || p.DurationSec <= 0 {
			fail("mode %q: missing deployment shape: peers=%d duration=%v", p.Mode, p.Peers, p.DurationSec)
		}
		if p.Crashes <= 0 || p.Restarts <= 0 {
			fail("mode %q: crashes=%d restarts=%d, want both waves played", p.Mode, p.Crashes, p.Restarts)
		}
		if p.CurrentRate < 0 || p.CurrentRate > 1 {
			fail("mode %q: current_rate %v outside [0,1]", p.Mode, p.CurrentRate)
		}
		byMode[p.Mode] = p
	}
	cf, ok1 := byMode["crash-forget"]
	du, ok2 := byMode["durable"]
	if !ok1 || !ok2 {
		fail("missing a storage mode: have %v", []string{points[0].Mode, points[1].Mode})
	}
	if cf.Seed != du.Seed || cf.Peers != du.Peers || cf.DurationSec != du.DurationSec {
		fail("modes did not run the same experiment: %+v vs %+v", cf, du)
	}
	if du.CurrentRate < cf.CurrentRate {
		fail("durable currency %.3f below crash-and-forget %.3f on seed %d",
			du.CurrentRate, cf.CurrentRate, du.Seed)
	}
	if du.FailedQueries > cf.FailedQueries {
		fail("durable failed %d queries, crash-and-forget only %d on seed %d",
			du.FailedQueries, cf.FailedQueries, du.Seed)
	}
	fmt.Printf("validate_bench: %s conforms (%d points)\n", os.Args[1], len(points))
}

// validateConsistency checks a consistency figure export.
func validateConsistency(data []byte) {
	var points []exp.ConsistencyPoint
	if err := json.Unmarshal(data, &points); err != nil {
		fail("not a consistency point array: %v", err)
	}
	if len(points) == 0 {
		fail("empty point set")
	}

	type cell = exp.ConsistencyPoint
	byKey := map[string]cell{}
	for i, p := range points {
		if p.Level != "current" && p.Level != "bounded" && p.Level != "eventual" {
			fail("point %d: unknown level %q", i, p.Level)
		}
		if p.QueriesRun <= 0 {
			fail("point %d (%s repair=%v): no queries ran", i, p.Level, p.Repair)
		}
		if p.Peers <= 0 || p.Clients <= 0 {
			fail("point %d (%s): missing deployment shape: peers=%d clients=%d", i, p.Level, p.Peers, p.Clients)
		}
		if p.MsgsPerRetrieve <= 0 || p.RespTimeSec <= 0 || p.ProbesPerRetrieve <= 0 {
			fail("point %d (%s): non-positive costs: msgs=%v resp=%v probes=%v",
				i, p.Level, p.MsgsPerRetrieve, p.RespTimeSec, p.ProbesPerRetrieve)
		}
		if got := p.Proven + p.WithinBound + p.SessionFloor + p.Unknown + p.StaleReturns + p.FailedQueries; got != p.QueriesRun {
			fail("point %d (%s repair=%v): verdicts %d do not account for %d queries", i, p.Level, p.Repair, got, p.QueriesRun)
		}
		byKey[fmt.Sprintf("%s/%v", p.Level, p.Repair)] = p
	}

	for _, repaired := range []bool{false, true} {
		cur, ok1 := byKey[fmt.Sprintf("current/%v", repaired)]
		bnd, ok2 := byKey[fmt.Sprintf("bounded/%v", repaired)]
		ev, ok3 := byKey[fmt.Sprintf("eventual/%v", repaired)]
		if !ok1 || !ok2 || !ok3 {
			// A restricted -levels run: only validate the cells present.
			continue
		}
		if !(ev.MsgsPerRetrieve < cur.MsgsPerRetrieve) || !(bnd.MsgsPerRetrieve < cur.MsgsPerRetrieve) {
			fail("repair=%v: messages not strictly ordered: eventual %.2f / bounded %.2f vs current %.2f",
				repaired, ev.MsgsPerRetrieve, bnd.MsgsPerRetrieve, cur.MsgsPerRetrieve)
		}
		if !(ev.RespTimeSec < cur.RespTimeSec) || !(bnd.RespTimeSec < cur.RespTimeSec) {
			fail("repair=%v: latency not strictly ordered: eventual %.3f / bounded %.3f vs current %.3f",
				repaired, ev.RespTimeSec, bnd.RespTimeSec, cur.RespTimeSec)
		}
		if cur.Proven+cur.StaleReturns+cur.FailedQueries != cur.QueriesRun ||
			cur.WithinBound+cur.SessionFloor+cur.Unknown != 0 {
			fail("repair=%v: current must prove currency whenever a current replica is reachable: %+v", repaired, cur)
		}
		if ev.Proven+ev.WithinBound+ev.SessionFloor != 0 {
			fail("repair=%v: eventual claims currency: %+v", repaired, ev)
		}
	}
	fmt.Printf("validate_bench: %s conforms (%d points)\n", os.Args[1], len(points))
}

// validateGateway checks the gateway comparison: paired provenance,
// strictly-fewer KTS traffic, and the coalescing acceptance floor.
func validateGateway(data []byte) {
	var res exp.GatewayResult
	if err := json.Unmarshal(data, &res); err != nil {
		fail("not a gateway result: %v", err)
	}
	if res.Peers <= 0 || res.Backends <= 0 {
		fail("missing deployment shape: peers=%d backends=%d", res.Peers, res.Backends)
	}
	if res.ZipfS < 0.99 {
		fail("zipf skew %.2f below the 0.99 hot-key regime", res.ZipfS)
	}
	if res.Direct.Arm != "direct" || res.GW.Arm != "gateway" {
		fail("arm labels %q/%q, want direct/gateway", res.Direct.Arm, res.GW.Arm)
	}
	if res.Direct.Ops <= 0 || res.Direct.Ops != res.GW.Ops {
		fail("arms ran different op counts: direct %d vs gateway %d", res.Direct.Ops, res.GW.Ops)
	}
	directKTS := res.Direct.KTSGenTS + res.Direct.KTSLastTS
	gwKTS := res.GW.KTSGenTS + res.GW.KTSLastTS
	if !(gwKTS < directKTS) {
		fail("gateway KTS traffic %.0f not strictly below direct %.0f", gwKTS, directKTS)
	}
	st := res.GW.Gateway
	if st == nil {
		fail("gateway arm carries no gateway counters")
	}
	if st.Flights == 0 {
		fail("gateway arm reports zero flights")
	}
	if res.GW.CoalescingFactor < 2.0 {
		fail("coalescing factor %.2fx below the 2x acceptance floor", res.GW.CoalescingFactor)
	}
	if st.BackendErrors != 0 {
		fail("gateway arm saw %d backend errors", st.BackendErrors)
	}
	if st.CacheServedGets+st.CacheServedLastTS == 0 {
		fail("gateway cache served nothing under a hot-key zipf mix")
	}
	if res.KTSSavedPct <= 0 {
		fail("kts_saved_pct %.1f not positive", res.KTSSavedPct)
	}
	fmt.Printf("validate_bench: %s conforms (coalescing %.2fx, %.1f%% KTS saved)\n",
		os.Args[1], res.GW.CoalescingFactor, res.KTSSavedPct)
}

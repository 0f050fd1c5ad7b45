package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	dcdht "repro"
	"repro/internal/obs"
)

// sim-wan: the paper's own evaluation vehicle. One virtual client issues
// the op stream through the SimNetwork facade, one op after the other,
// so every latency is Result.Elapsed in simulated time and a seed
// replays exactly. The run is bounded by op count, not by time, and all
// its end-to-end metrics but setup_s and peak_rss_mb are on the
// simulated clock; the wall time it takes is a per-layer number.
const (
	simPeers = 300
	// simTopologySeed fixes the simulated network (peer ids, link
	// latencies, maintenance jitter). --seed only drives the op stream, so
	// runs with different seeds differ in their inputs and not in the
	// system they measure.
	simTopologySeed = 1
	simRepairEvery  = time.Minute
	// The stream is issued in simChunks chunks of equal size and, the mix
	// being positional, equal composition; simnet.ops_per_wall_s is the
	// median of the chunks' rates, so a burst of interference on the host
	// spoils one chunk and not the run. simChunkOpsPerSecond sizes a chunk from
	// --seconds so that a run measures for about that long on the sandbox
	// the bounds were sized on.
	simChunks            = 5
	simChunkOpsPerSecond = 6
	simPutEvery          = 5
	simPreloadBase       = 1000 // writer id of the preload

	// The churn probe of the traced run: the builtin churn-wave on a
	// smaller network, ops racing the faults. Ops fail under churn, which
	// is why it is a probe and not the measured workload.
	churnPeers  = 100
	churnOps    = 300
	churnWindow = 10 * time.Minute
)

type simShape struct {
	peers, keys, chunkOps int
}

func (sh simShape) ops() int { return simChunks * sh.chunkOps }

func simShapeFor(o runOpts) simShape {
	if o.smoke {
		return simShape{peers: 50, keys: 20, chunkOps: 20}
	}
	// Whole periods of the mix per chunk, so every chunk has the same
	// number of puts.
	chunk := (simChunkOpsPerSecond*o.seconds + simPutEvery - 1) / simPutEvery * simPutEvery
	return simShape{peers: simPeers, keys: keyCount, chunkOps: chunk}
}

// buildSim builds the deployment and preloads every key in one batched
// put; the time it takes is sim-wan's set-up.
func buildSim(ctx context.Context, sh simShape, chk *checker) (*dcdht.SimNetwork, error) {
	s := dcdht.NewSimNetwork(sh.peers, dcdht.SimConfig{Seed: simTopologySeed, RepairEvery: simRepairEvery})
	items := make([]dcdht.KV, sh.keys)
	for k := range items {
		items[k] = dcdht.KV{Key: keyName(k), Data: makePayload(keyName(k), writeID{simPreloadBase, k})}
	}
	out, err := s.PutMulti(ctx, items)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("sim preload: %w", err)
	}
	for k, r := range out {
		if r.Err != nil {
			s.Close()
			return nil, fmt.Errorf("sim preload key %d: %w", k, r.Err)
		}
		chk.putAcked(k, writeID{simPreloadBase, k}, r.Result)
	}
	return s, nil
}

// simCounters is the deployment-wide registry as name -> value.
func simCounters(s *dcdht.SimNetwork) map[string]float64 {
	out := map[string]float64{}
	addSnapshot(out, s.MetricsSnapshot())
	return out
}

// simRun is one pass over the op stream on a fresh deployment.
type simRun struct {
	plain, traced windowAgg // ops issued without / with a tracer
	spans         []span
	chunkRates    []float64     // ops per wall second, per chunk
	wallPlain     time.Duration // wall time of the untraced chunks
	wallTraced    time.Duration
	vtPlain       time.Duration      // simulated time the untraced chunks took
	vtElapsed     time.Duration      // simulated time of the whole stream
	counters      map[string]float64 // metric deltas over the whole stream
	repair        dcdht.RepairStats  // delta over the whole stream
	digest        string
}

// driveSim issues the seed's stream through s: one unmeasured warm-up
// chunk (the first ops after a build run ~30 % slower), then simChunks
// measured ones, of which the first plainChunks run untraced and the rest
// carry a tracer. Every op, warm-up included, is checked and enters the
// replay digest.
func driveSim(ctx context.Context, s *dcdht.SimNetwork, sh simShape, seed int64, chk *checker, plainChunks int) simRun {
	stream := newOpStream(streamSpec{zipf: true, keys: sh.keys, putEvery: simPutEvery}, seed, 0, 0)
	var run simRun
	h := sha256.New()
	began := time.Now()
	vt0 := s.Now()
	issue := func(traced bool) span {
		octx := ctx
		var tr opTracer
		if traced {
			octx = obs.WithTracer(ctx, &tr)
		}
		vtStart := s.Now() - vt0
		sp := doOp(octx, s, stream.next(), 0, chk, began)
		sp.Issuer = -1
		sp.Start, sp.Lat = vtStart, sp.Reported
		sp.KTS, sp.Probe, sp.Lookup = tr.kts, tr.probe, tr.lookup
		fmt.Fprintf(h, "%d %d %d %d %d %d %v %v\n", sp.ID, sp.Kind, sp.Key, sp.Lat, sp.Msgs, sp.Probed, sp.Failed, sp.Stale)
		return sp
	}
	for i := 0; i < sh.chunkOps; i++ {
		issue(false)
	}

	before := simCounters(s)
	repair0 := s.RepairStats()
	vtMeasured := s.Now()
	for chunk := 0; chunk < simChunks; chunk++ {
		traced := chunk >= plainChunks
		chunkBegan, vtBegan := time.Now(), s.Now()
		for i := 0; i < sh.chunkOps; i++ {
			sp := issue(traced)
			if traced {
				run.traced.add(sp)
				run.spans = append(run.spans, sp)
			} else {
				run.plain.add(sp)
			}
		}
		wall, vt := time.Since(chunkBegan), s.Now()-vtBegan
		run.chunkRates = append(run.chunkRates, float64(sh.chunkOps)/wall.Seconds())
		if traced {
			run.wallTraced += wall
		} else {
			run.wallPlain, run.vtPlain = run.wallPlain+wall, run.vtPlain+vt
		}
	}
	run.vtElapsed = s.Now() - vtMeasured
	run.counters = delta(before, simCounters(s))
	run.repair = s.RepairStats()
	run.repair.Healed -= repair0.Healed
	run.repair.Msgs -= repair0.Msgs
	run.digest = hex.EncodeToString(h.Sum(nil))
	return run
}

func runSim(ctx context.Context, o runOpts, res *result) error {
	sh := simShapeFor(o)
	cycles := roundsPerRun
	if o.smoke || o.trace {
		cycles = 1
	}
	var (
		s      *dcdht.SimNetwork
		chk    *checker
		setups []float64
	)
	for i := 0; i < cycles; i++ {
		if s != nil {
			s.Close()
		}
		chk = newChecker(sh.keys, false)
		began := time.Now()
		var err error
		if s, err = buildSim(ctx, sh, chk); err != nil {
			return err
		}
		setups = append(setups, time.Since(began).Seconds())
	}
	defer func() { s.Close() }()

	plainChunks := simChunks
	if o.trace {
		plainChunks = int(tracedPlain * simChunks)
	}
	run := driveSim(ctx, s, sh, o.seed, chk, plainChunks)
	chk.verifyParked()
	res.Replay = run.digest

	if o.checkReplay {
		// The same seed on a fresh deployment must reproduce every
		// deterministic field.
		chk2 := newChecker(sh.keys, false)
		s2, err := buildSim(ctx, sh, chk2)
		if err != nil {
			return err
		}
		again := driveSim(ctx, s2, sh, o.seed, chk2, plainChunks)
		s2.Close()
		if again.digest != run.digest {
			chk.violate("replay of seed %d diverged: digest %s, then %s", o.seed, run.digest, again.digest)
		}
	}

	var tot windowAgg
	tot.merge(&run.plain)
	tot.merge(&run.traced)
	all := tot.pooled()
	if !o.trace {
		lat := sortedCopy(all.lat)
		res.Windows = map[string][]float64{"simnet.ops_per_wall_s": run.chunkRates, "setup_s": setups}
		res.set("setup_s", median(setups), len(setups), spreadShare(setups))
		// The workload's clock is the simulated one: with one closed-loop
		// client this is the reciprocal of the mean response time, and it
		// repeats exactly per seed. How fast the simulator itself ran is a
		// per-layer number.
		res.set("ops_per_s", ratio(float64(all.ok()), run.vtElapsed.Seconds()), all.ok(), 0)
		res.extra("simnet.ops_per_wall_s", median(run.chunkRates), len(run.chunkRates))
		res.set("op_p50_ms", quantileOrZero(lat, 0.50), all.ok(), 0)
		res.set("op_p95_ms", quantileOrZero(lat, 0.95), all.ok(), 0)
		res.set("msgs_per_op", ratio(float64(all.msgs), float64(all.ok())), all.ok(), 0)
		res.set("peak_rss_mb", peakRSSMB(), 0, 0)
		splitMetrics(res.extra, &tot, nil)
	} else {
		set := func(name string, v float64, n int) { res.set(name, v, n, 0) }
		splitMetrics(set, &run.traced, nil)
		simLayerMetrics(res, &run)
		if err := writeTrace(o, run.spans); err != nil {
			return err
		}
		if !o.smoke {
			if err := churnProbe(ctx, res); err != nil {
				return err
			}
		}
	}
	res.Attempted, res.Failed = all.attempted, all.failed
	res.Violations = chk.violations
	return nil
}

// simLayerMetrics fills sim-wan's per-layer run metrics. Phase times are
// simulated milliseconds here: the program's clock is the kernel's.
func simLayerMetrics(res *result, run *simRun) {
	g, p := &run.traced.kind[opGet], &run.traced.kind[opPut]
	gets, puts := float64(g.ok()), float64(p.ok())
	set := func(name string, v float64, n float64) { res.set(name, v, int(n), 0) }
	gl, pl := sortedCopy(g.lat), sortedCopy(p.lat)

	set("vt_get_p50_ms", quantileOrZero(gl, 0.50), gets)
	set("vt_get_p95_ms", quantileOrZero(gl, 0.95), gets)
	set("vt_put_p50_ms", quantileOrZero(pl, 0.50), puts)

	phaseMetrics(res, &run.traced)

	// Counter deltas span the whole stream (plain and traced ops alike):
	// the simulated system does not change with the tracer.
	d := run.counters
	set("kts.indirect_inits", d["dcdht_kts_indirect_inits_total"], 0)
	hits, misses := d["dcdht_kts_cache_hits_total"], d["dcdht_kts_cache_misses_total"]
	set("kts.cache_hit_frac", ratio(hits, hits+misses), hits+misses)
	set("chord.stabilize_rounds_per_s", ratio(d["dcdht_chord_stabilize_rounds_total"], run.vtElapsed.Seconds()), 0)
	set("repair.msgs_per_vt_s", ratio(float64(run.repair.Msgs), run.vtElapsed.Seconds()), 0)
	set("repair.healed", float64(run.repair.Healed), 0)
	wall := run.wallPlain + run.wallTraced
	set("simnet.wall_s_per_vt_hour", ratio(wall.Seconds(), run.vtElapsed.Hours()), 0)
	set("simnet.ops_per_wall_s", median(run.chunkRates), float64(len(run.chunkRates)))

	// Wall time in the simulator follows simulated time (maintenance runs
	// whether or not ops do), so the tracer's cost is read from simulated
	// seconds advanced per wall second, not from ops per second.
	plainRate := ratio(run.vtPlain.Seconds(), run.wallPlain.Seconds())
	tracedRate := ratio((run.vtElapsed - run.vtPlain).Seconds(), run.wallTraced.Seconds())
	res.set("obs.trace_overhead_frac", 1-ratio(tracedRate, plainRate), 0, 0)
}

// churnProbe plays the builtin churn-wave (a quarter of the peers crash,
// a third join) while 8 virtual clients run a Zipf mix, and records what
// it costs: failed ops, Get response time, KTS indirect initialisations
// and replicas healed. These are the paper's churn quantities, kept off
// the measured workload because ops fail under them.
func churnProbe(ctx context.Context, res *result) error {
	sc, err := dcdht.BuiltinScenario("churn-wave", churnWindow)
	if err != nil {
		return fmt.Errorf("churn probe: %w", err)
	}
	s := dcdht.NewSimNetwork(churnPeers, dcdht.SimConfig{Seed: simTopologySeed, RepairEvery: simRepairEvery})
	defer s.Close()
	preload, err := s.RunWorkload(ctx, dcdht.WorkloadSpec{
		Pattern: dcdht.WorkloadScanRecent, Keys: keyCount, ReadRatio: dcdht.Float(0),
		Ops: keyCount, Seed: simTopologySeed, SkipPreload: true,
	})
	if err != nil {
		return fmt.Errorf("churn probe preload: %w", err)
	}
	if preload.Writes.Errors > 0 {
		return fmt.Errorf("churn probe preload: %d puts failed on a calm network", preload.Writes.Errors)
	}
	before := simCounters(s)
	healed0 := s.RepairStats().Healed
	if err := s.PlayScenario(sc); err != nil {
		return fmt.Errorf("churn probe: %w", err)
	}
	rep, err := s.RunWorkload(ctx, dcdht.WorkloadSpec{
		Pattern: dcdht.WorkloadZipf, Keys: keyCount, ReadRatio: dcdht.Float(0.8),
		Concurrency: 8, Ops: churnOps, Seed: simTopologySeed, SkipPreload: true,
	})
	if err != nil {
		return fmt.Errorf("churn probe: %w", err)
	}
	d := delta(before, simCounters(s))
	res.set("churn.failed_frac", ratio(float64(rep.Reads.Errors+rep.Writes.Errors), float64(rep.Ops)), rep.Ops, 0)
	res.set("churn.vt_get_p50_ms", rep.Reads.P50Ms, rep.Reads.Ops, 0)
	res.set("churn.indirect_inits", d["dcdht_kts_indirect_inits_total"], 0, 0)
	healed := res.Metrics["repair.healed"].Value + float64(s.RepairStats().Healed-healed0)
	res.set("repair.healed", healed, 0, 0)
	return nil
}

package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	dcdht "repro"
)

// runOpts is one invocation of one workload.
type runOpts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// smoke shrinks everything (4 nodes, 20 keys, one set-up, a 100-op
	// sim) so a test can run every workload in seconds. Its numbers mean
	// nothing.
	smoke       bool
	checkReplay bool
	outDir      string // traces and temporary data
}

// Shape of a run. Smoke mode overrides the sizes, never the procedure.
const (
	ringNodes       = 16
	keyCount        = 200
	roundsPerRun    = 3 // rings set up, and measured, per untraced run
	warmup          = time.Second
	windowsPerRound = 2 // windows each ring's share of the measured time is split into
	tracedPlain     = 0.4
	traceEveryNth   = 100
)

// tcpWorkload is a workload over real sockets.
type tcpWorkload struct {
	cluster clusterSpec
	stream  streamSpec
}

var tcpWorkloads = map[string]tcpWorkload{
	wlReadCurrent: {
		clusterSpec{nodes: ringNodes, ring: dcdht.RingChord, keys: keyCount},
		streamSpec{keys: keyCount},
	},
	wlWriteDurable: {
		clusterSpec{nodes: ringNodes, ring: dcdht.RingChord, durable: true, keys: keyCount},
		streamSpec{keys: keyCount, putEvery: 1},
	},
	wlMixedGateway: {
		clusterSpec{nodes: ringNodes, ring: dcdht.RingOneHop, backends: 4, keys: keyCount},
		streamSpec{zipf: true, keys: keyCount, putEvery: 5, relaxed: true},
	},
}

// run executes one workload and returns its result. An error means the
// benchmark itself could not run (a ring that never became ready, a
// filesystem error); wrong outputs are reported in the result.
func run(ctx context.Context, o runOpts) (*result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	tmp, err := os.MkdirTemp(o.outDir, "tmp-")
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	defer os.RemoveAll(tmp)
	res := &result{
		Provenance: newProvenance(o, tmp),
		Metrics:    map[string]measured{},
		Extra:      map[string]measured{},
	}
	if o.workload == wlSimWAN {
		err = runSim(ctx, o, res)
	} else if w, ok := tcpWorkloads[o.workload]; ok {
		err = runTCP(ctx, o, w, tmp, res)
	} else {
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = len(res.Violations) == 0
	if o.trace {
		probes, err := runProbes(ctx, o, tmp)
		if err != nil {
			return nil, err
		}
		for name, v := range probes {
			res.set(name, v, 0, 0)
		}
		// Every per-layer metric is reported; one this workload does not
		// exercise reads 0.
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.Name]; !ok {
				res.set(d.Name, 0, 0, 0)
			}
		}
	}
	return res, nil
}

// set records a declared metric.
func (r *result) set(name string, v float64, n int, spread float64) {
	d, ok := findMetric(name)
	if !ok {
		panic("benchmark bug: undeclared metric " + name)
	}
	r.Metrics[name] = measured{Value: v, Unit: d.Unit, N: n, Spread: spread}
}

// extra records a number outside this mode's declared list.
func (r *result) extra(name string, v float64, n int) {
	unit := ""
	if d, ok := findMetric(name); ok {
		unit = d.Unit
	}
	r.Extra[name] = measured{Value: v, Unit: unit, N: n}
}

// ring is one set-up of a TCP workload: a formed, gated and preloaded
// cluster with the checker of its data and the clients' op streams.
type ring struct {
	c       *cluster
	chk     *checker
	streams []*opStream
	setupS  float64   // what the set-up took
	putNew  []float64 // the preload's first-put latencies, ms
}

// setUp forms the round-th ring of a run. Each round's streams draw
// their own keys, so no two rounds replay the same ops.
func setUp(ctx context.Context, o runOpts, w tcpWorkload, tmp string, round int) (*ring, error) {
	r := &ring{chk: newChecker(w.cluster.keys, w.cluster.backends > 0)}
	began := time.Now()
	var err error
	if r.c, err = formCluster(w.cluster, tmp); err != nil {
		return nil, err
	}
	if err = r.c.gate(ctx); err == nil {
		r.putNew, err = r.c.preload(ctx, r.chk)
	}
	if err != nil {
		r.c.close()
		return nil, err
	}
	r.setupS = time.Since(began).Seconds()
	for i := 0; i < loadClients; i++ {
		s := newOpStream(w.stream, o.seed, round, i)
		if r.c.gw != nil {
			s.session = r.c.gw.NewSession()
		}
		r.streams = append(r.streams, s)
	}
	return r, nil
}

// finish ends the ring's checks, folds them and the gate's record into
// res, and stops the nodes.
func (r *ring) finish(res *result) {
	r.chk.verifyParked()
	res.Violations = append(res.Violations, r.chk.violations...)
	res.Provenance.GateRounds += r.c.gateRounds
	res.Provenance.GateRetries += r.c.gateRetries
	res.Provenance.FallbackPorts += r.c.fallbackPorts
	r.c.close()
}

func runTCP(ctx context.Context, o runOpts, w tcpWorkload, tmp string, res *result) error {
	rounds, warm := roundsPerRun, warmup
	if o.smoke {
		w.cluster.nodes, w.cluster.keys, w.stream.keys = 4, 20, 20
		if w.cluster.backends > 0 {
			w.cluster.backends = 2
		}
		rounds, warm = 1, 200*time.Millisecond
	}
	measure := time.Duration(o.seconds) * time.Second
	var tot windowAgg
	if o.trace {
		r, err := setUp(ctx, o, w, tmp, 0)
		if err != nil {
			return err
		}
		defer r.finish(res)
		if tot, err = tracedRound(ctx, o, r, warm, measure, res); err != nil {
			return err
		}
	} else {
		// The measured time is split over the rounds: each ring is set up,
		// warmed, measured for its share and torn down. Besides giving
		// setup_s its three samples, this spreads the windows over ~25 s
		// of wall time, so that a spell of interference on the host (they
		// last 10 to 20 s on the sandbox) colours some windows and not
		// the whole run.
		var all phaseResult
		var setups, putNew []float64
		for round := 0; round < rounds; round++ {
			r, err := setUp(ctx, o, w, tmp, round)
			if err != nil {
				return err
			}
			// Warm-up fills connection pools, finger tables and caches;
			// its ops are checked but not measured.
			runLoad(ctx, r.c, r.streams, r.chk, warm, 1, false)
			ph := runLoad(ctx, r.c, r.streams, r.chk, measure/time.Duration(rounds), windowsPerRound, false)
			all.windows, all.width = append(all.windows, ph.windows...), ph.width
			setups, putNew = append(setups, r.setupS), append(putNew, r.putNew...)
			r.finish(res)
		}
		tot = all.total()
		endToEndMetrics(res, &all, setups)
		splitMetrics(res.extra, &tot, putNew)
	}
	all := tot.pooled()
	res.Attempted, res.Failed = all.attempted, all.failed
	return nil
}

// tracedRound runs the traced procedure on one ring: a plain phase as
// the baseline of the tracer's cost, then a traced phase bracketed by
// counter snapshots and a process watch. It returns the traced ops.
func tracedRound(ctx context.Context, o runOpts, r *ring, warm, measure time.Duration, res *result) (windowAgg, error) {
	c := r.c
	runLoad(ctx, c, r.streams, r.chk, warm, 1, false)
	plain := runLoad(ctx, c, r.streams, r.chk, time.Duration(tracedPlain*float64(measure)), 1, false)
	before := c.counters()
	var gwBefore dcdht.GatewayStats
	if c.gw != nil {
		gwBefore = c.gw.Stats()
	}
	rt := startRuntimeWatch(c.dataDir)
	traced := runLoad(ctx, c, r.streams, r.chk, measure-plain.elapsed, 1, true)
	usage := rt.stop()
	d := delta(before, c.counters())
	tot := traced.total()
	set := func(name string, v float64, n int) { res.set(name, v, n, 0) }
	splitMetrics(set, &tot, r.putNew)
	runLayerMetrics(res, &tot, d, traced.elapsed, usage)
	if c.gw != nil {
		gatewayMetrics(res, gwBefore, c.gw.Stats(), &tot)
	}
	res.set("obs.trace_overhead_frac", 1-ratio(opsPerSec(&traced), opsPerSec(&plain)), 0, 0)
	return tot, writeTrace(o, traced.spans)
}

// opsPerSec is a phase's successful ops per wall second.
func opsPerSec(p *phaseResult) float64 {
	t := p.total()
	a := t.pooled()
	return ratio(float64(a.ok()), p.elapsed.Seconds())
}

// endToEndMetrics fills the end-to-end list from an untraced phase:
// throughput and latency quantiles are computed per window and reported
// as the median over windows with the windows' spread beside it.
func endToEndMetrics(res *result, ph *phaseResult, setups []float64) {
	var thr, p50, p95 []float64
	for i := range ph.windows {
		a := ph.windows[i].pooled()
		thr = append(thr, float64(a.ok())/ph.width.Seconds())
		s := sortedCopy(a.lat)
		if v, ok := quantile(s, 0.50); ok {
			p50 = append(p50, v)
		}
		if v, ok := quantile(s, 0.95); ok {
			p95 = append(p95, v)
		}
	}
	tot := ph.total()
	all := tot.pooled()
	res.Windows = map[string][]float64{"ops_per_s": thr, "op_p50_ms": p50, "op_p95_ms": p95, "setup_s": setups}
	res.set("setup_s", median(setups), len(setups), spreadShare(setups))
	res.set("ops_per_s", median(thr), len(thr), spreadShare(thr))
	res.set("op_p50_ms", median(p50), all.ok(), spreadShare(p50))
	res.set("op_p95_ms", median(p95), all.ok(), spreadShare(p95))
	res.set("msgs_per_op", ratio(float64(all.msgs), float64(all.ok())), all.ok(), 0)
	res.set("peak_rss_mb", peakRSSMB(), 0, 0)
}

// splitMetrics reports the workload's ops split by kind (and, on the
// gateway mix, by level) through put: as declared per-layer metrics on a
// traced run, as extras beside the end-to-end table otherwise.
func splitMetrics(put func(name string, v float64, n int), tot *windowAgg, putNew []float64) {
	g, p := &tot.kind[opGet], &tot.kind[opPut]
	gl, pl := sortedCopy(g.lat), sortedCopy(p.lat)
	put("get_p50_ms", quantileOrZero(gl, 0.50), g.ok())
	put("get_p99_ms", quantileOrZero(gl, 0.99), g.ok())
	put("put_p50_ms", quantileOrZero(pl, 0.50), p.ok())
	put("put_p99_ms", quantileOrZero(pl, 0.99), p.ok())
	put("put_new_p50_ms", quantileOrZero(sortedCopy(putNew), 0.50), len(putNew))
	put("msgs_per_get", ratio(float64(g.msgs), float64(g.ok())), g.ok())
	put("msgs_per_put", ratio(float64(p.msgs), float64(p.ok())), p.ok())
	put("proven_frac", ratio(float64(g.proven), float64(g.ok())), g.ok())
	put("stale_frac", ratio(float64(g.stale), float64(g.attempted)), g.attempted)
	put("failed_frac", ratio(float64(g.failed+p.failed), float64(g.attempted+p.attempted)), g.attempted+p.attempted)
	put("ums.probes_per_get", ratio(float64(g.probed), float64(g.ok())), g.ok())
	for l, name := range []string{"ums.get_current_p50_ms", "ums.get_bounded_p50_ms", "ums.get_eventual_p50_ms"} {
		// The per-level split only says something when levels are mixed.
		if n := len(tot.level[l]); 0 < n && n < g.ok() {
			put(name, quantileOrZero(sortedCopy(tot.level[l]), 0.50), len(tot.level[l]))
		}
	}
}

// runLayerMetrics fills the per-layer run metrics of a traced TCP phase
// from the spans' phases, the summed counter deltas d of all nodes and
// the process usage over the phase.
func runLayerMetrics(res *result, tot *windowAgg, d map[string]float64, elapsed time.Duration, u usage) {
	g, p := &tot.kind[opGet], &tot.kind[opPut]
	gets, puts := float64(g.ok()), float64(p.ok())
	ops := gets + puts
	set := func(name string, v float64, n float64) { res.set(name, v, int(n), 0) }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	// Counters cannot tell which op caused a call; on a mixed workload
	// they are apportioned by each kind's share of Result.Msgs.
	getShare := ratio(float64(g.msgs), float64(g.msgs+p.msgs))
	perGet := func(total float64) float64 { return ratio(total*getShare, gets) }
	perPut := func(total float64) float64 { return ratio(total*(1-getShare), puts) }

	calls := d["dcdht_net_calls_total"]
	set("tcpwire.calls_per_get", perGet(calls), gets)
	set("tcpwire.calls_per_put", perPut(calls), puts)
	set("tcpwire.dials", d["dcdht_net_dials_total"], 0)
	set("tcpwire.call_aborts", d["dcdht_net_call_aborts_total"], 0)

	set("store.wal_appends_per_put", ratio(d["dcdht_store_wal_appends_total"], puts), puts)
	set("store.wal_fsyncs_per_put", ratio(d["dcdht_store_wal_fsyncs_total"], puts), puts)
	set("store.wal_bytes_per_user_byte", ratio(float64(u.walBytes), puts*payloadSize), puts)

	phaseMetrics(res, tot)
	set("chord.lookups_per_get", perGet(d["dcdht_chord_lookups_total"]), gets)
	set("chord.lookups_per_put", perPut(d["dcdht_chord_lookups_total"]), puts)
	set("chord.stabilize_rounds_per_s", ratio(d["dcdht_chord_stabilize_rounds_total"], elapsed.Seconds()), 0)
	set("onehop.lookups_per_op", ratio(d["dcdht_onehop_lookups_total"], ops), ops)
	set("onehop.stale_fallbacks", d["dcdht_onehop_stale_fallbacks_total"], 0)

	set("kts.lastts_reqs_per_get", ratio(d["dcdht_kts_lastts_requests_total"], gets), gets)
	set("kts.gents_reqs_per_put", ratio(d["dcdht_kts_gents_requests_total"], puts), puts)
	hits, misses := d["dcdht_kts_cache_hits_total"], d["dcdht_kts_cache_misses_total"]
	set("kts.cache_hit_frac", ratio(hits, hits+misses), hits+misses)
	set("kts.indirect_inits", d["dcdht_kts_indirect_inits_total"], 0)

	set("runtime.cpu_ms_per_op", ratio(u.cpu.Seconds()*1e3, ops), ops)
	set("runtime.allocs_per_op", ratio(float64(u.mallocs), ops), ops)
	set("runtime.alloc_bytes_per_op", ratio(float64(u.allocBytes), ops), ops)
	set("runtime.gc_pause_ms", ms(u.gcPause), 0)
	set("runtime.goroutines_peak", float64(u.goroutinesPeak), 0)
}

// phaseMetrics fills the per-layer metrics that come from the traced
// ops' spans alone: the tracer's phases per op and the op span's self
// time. Times are on the workload's clock.
func phaseMetrics(res *result, tot *windowAgg) {
	g, p := &tot.kind[opGet], &tot.kind[opPut]
	gets, puts := float64(g.ok()), float64(p.ok())
	set := func(name string, v float64, n float64) { res.set(name, v, int(n), 0) }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	set("chord.lookup_ms_per_get", ratio(ms(g.lookup), gets), gets)
	set("chord.lookup_ms_per_put", ratio(ms(p.lookup), puts), puts)
	set("kts.ms_per_get", ratio(ms(g.kts), gets), gets)
	set("kts.ms_per_put", ratio(ms(p.kts), puts), puts)
	set("ums.probe_ms_per_get", ratio(ms(g.probe), gets), gets)
	set("ums.stored_per_put", ratio(float64(p.stored), puts), puts)
	// Self time of the op span: what its non-overlapping children (kts,
	// probe) do not cover. Lookup is nested inside them and not subtracted.
	set("ums.unaccounted_ms_per_get", mean(g.lat)-ratio(ms(g.kts+g.probe), gets), gets)
	set("ums.unaccounted_ms_per_put", mean(p.lat)-ratio(ms(p.kts+p.probe), puts), puts)
}

func gatewayMetrics(res *result, before, after dcdht.GatewayStats, tot *windowAgg) {
	all := tot.pooled()
	gets := float64(tot.kind[opGet].ok())
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	res.set("gateway.cache_hit_frac", ratio(hits, hits+misses), int(hits+misses), 0)
	res.set("gateway.coalesced_frac", ratio(float64(after.Coalesced-before.Coalesced), gets), int(gets), 0)
	res.set("gateway.backend_ops_per_op", ratio(float64(after.BackendOps-before.BackendOps), float64(all.ok())), all.ok(), 0)
	res.set("gateway.backend_errors", float64(after.BackendErrors-before.BackendErrors), 0, 0)
}

// usage is what the process consumed over a watched interval.
type usage struct {
	cpu            time.Duration
	mallocs        uint64
	allocBytes     uint64
	gcPause        time.Duration
	goroutinesPeak int
	walBytes       int64 // bytes appended under the watched data dir
}

// runtimeWatch samples the process while a traced phase runs.
type runtimeWatch struct {
	cpu0  time.Duration
	mem0  runtime.MemStats
	stopc chan struct{}
	done  sync.WaitGroup
	peak  int
	wal   int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startRuntimeWatch begins sampling. Every 100 ms it notes the goroutine
// count and, when dataDir is set, how much the files under it grew;
// shrinkage (a compaction) is skipped, so the sum approximates bytes
// appended to the logs.
func startRuntimeWatch(dataDir string) *runtimeWatch {
	w := &runtimeWatch{cpu0: cpuTime(), stopc: make(chan struct{})}
	runtime.ReadMemStats(&w.mem0)
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		last := int64(-1)
		sample := func() {
			if n := runtime.NumGoroutine(); n > w.peak {
				w.peak = n
			}
			if dataDir == "" {
				return
			}
			now := dirBytes(dataDir)
			if last >= 0 && now > last {
				w.wal += now - last
			}
			last = now
		}
		sample()
		for {
			select {
			case <-tick.C:
				sample()
			case <-w.stopc:
				sample()
				return
			}
		}
	}()
	return w
}

func (w *runtimeWatch) stop() usage {
	close(w.stopc)
	w.done.Wait()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return usage{
		cpu:            cpuTime() - w.cpu0,
		mallocs:        mem.Mallocs - w.mem0.Mallocs,
		allocBytes:     mem.TotalAlloc - w.mem0.TotalAlloc,
		gcPause:        time.Duration(mem.PauseTotalNs - w.mem0.PauseTotalNs),
		goroutinesPeak: w.peak,
		walBytes:       w.wal,
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

package main

// The benchmark's contract: workload names, every metric's name, unit,
// direction and (for end-to-end metrics) regression bound. BENCHMARK.json
// at the repository root is generated from these tables (`manifest`
// subcommand) and a test keeps the two from drifting.

const (
	wlReadCurrent  = "read-current"
	wlWriteDurable = "write-durable"
	wlMixedGateway = "mixed-gateway"
	wlSimWAN       = "sim-wan"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wlReadCurrent, "16-node chord ring on loopback TCP, 100% Get at Current, uniform keys: KTS last_ts, chord lookups, UMS probes and tcpwire round trips do the work; store, WAL, caches and gateway do none"},
	{wlWriteDurable, "same ring with a WAL (FsyncBatch) under every node, 100% Put updates: gen_ts plus 10 serial lookup-then-PutIfNewer rounds of 1 KB through gob into a log append; read-side caches do none"},
	{wlMixedGateway, "onehop ring behind a 4-backend Gateway, Zipf 1.1, 80% reads split Current/Bounded(1s)/Eventual, 20% Put: gateway and KTS caches carry reads while writes invalidate them; the WAL does none"},
	{wlSimWAN, "300 simulated chord peers, Table 1 WAN model, repair every minute, Zipf 80/20 ops in virtual time, exact replay per seed: simnet, simwire and maintenance do the work; tcpwire, gob and WAL none"},
}

// better is "lower" or "higher".
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; zero for per-layer metrics (they have none).
	Bound   float64
	Meaning string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the store sees. Every workload reports
// every one of them, so each is defined over "the workload's own ops";
// the per-kind split (get/put, per level) is printed by the run and kept
// in the per-layer list.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25, "ring formation + readiness gate + preload (sim-wan: deployment build + preload); median of the run's three set-ups"},
	{"ops_per_s", "1/s", higher, 0.25, "successful ops per second of the workload's clock: wall over TCP (median over windows), simulated on sim-wan (whole stream)"},
	{"op_p50_ms", "ms", lower, 0.25, "median op latency, median over windows (wall ms over TCP; simulated ms on sim-wan, whole stream)"},
	{"op_p95_ms", "ms", lower, 0.25, "95th percentile op latency, median over windows (sim-wan: simulated ms, whole stream)"},
	{"msgs_per_op", "msgs", lower, 0.05, "mean Result.Msgs per successful op - the paper's communication cost"},
	{"peak_rss_mb", "MB", lower, 0.25, "process peak resident set (VmHWM) after the run"},
}

// perLayer lists single-layer metrics: probes (a layer timed alone from
// its public functions) and run metrics (collected around the traced
// workload window). A metric that does not apply to the traced workload
// is reported as 0.
var perLayer = []metricDef{
	// The workload's ops split by kind; the end-to-end list pools them.
	{"get_p50_ms", "ms", lower, 0, "run: median Get latency, all levels pooled"},
	{"get_p99_ms", "ms", lower, 0, "run: 99th percentile Get latency (0 when fewer than 10 samples lie beyond it)"},
	{"put_p50_ms", "ms", lower, 0, "run: median update Put latency"},
	{"put_p99_ms", "ms", lower, 0, "run: 99th percentile update Put latency"},
	{"put_new_p50_ms", "ms", lower, 0, "run: median first Put of a never-seen key, from the preload"},
	{"msgs_per_get", "msgs", lower, 0, "run: mean Result.Msgs per Get"},
	{"msgs_per_put", "msgs", lower, 0, "run: mean Result.Msgs per Put"},
	{"proven_frac", "ratio", higher, 0, "run: reads whose Currency is Proven / reads that returned data"},
	{"stale_frac", "ratio", lower, 0, "run: reads that fell back to the most recent available replica (IsNoCurrent) / reads"},
	{"failed_frac", "ratio", lower, 0, "run: failed or refused ops / attempted"},
	{"vt_get_p50_ms", "ms", lower, 0, "run (sim-wan): median Get response time in simulated time (Figs. 7/11)"},
	{"vt_get_p95_ms", "ms", lower, 0, "run (sim-wan): 95th percentile Get response time in simulated time"},
	{"vt_put_p50_ms", "ms", lower, 0, "run (sim-wan): median Put response time in simulated time"},

	{"hashing.replica_ids_ns", "ns", lower, 0, "probe: all Set.Hr[i].ID(k) plus HTS.ID(k) for one key"},

	{"tcpwire.rtt_small_us", "us", lower, 0, "probe: Endpoint.Invoke echo of a kts.LastTSReq over loopback"},
	{"tcpwire.rtt_1k_us", "us", lower, 0, "probe: Endpoint.Invoke echo of a dht.PutReq carrying 1000 B"},
	{"tcpwire.gob_1k_us", "us", lower, 0, "probe: gob encode+decode of that PutReq on a reused coder pair (what a pooled connection pays)"},
	{"tcpwire.gob_1k_fresh_us", "us", lower, 0, "probe: the same on a fresh coder pair (what a new connection pays)"},
	{"tcpwire.calls_per_get", "calls", lower, 0, "run: dcdht_net_calls_total delta over nodes / Gets (cross-checks msgs_per_get: 2 msgs per call)"},
	{"tcpwire.calls_per_put", "calls", lower, 0, "run: the same per Put"},
	{"tcpwire.dials", "count", lower, 0, "run: dcdht_net_dials_total delta"},
	{"tcpwire.call_aborts", "count", lower, 0, "run: dcdht_net_call_aborts_total delta"},

	{"store.mem_put_us", "us", lower, 0, "probe: store.Mem.PutItem of a 1000 B item"},
	{"store.wal_put_os_us", "us", lower, 0, "probe: WAL.PutItem under SyncOS"},
	{"store.wal_put_batch_us", "us", lower, 0, "probe: WAL.PutItem under SyncBatch"},
	{"store.wal_put_always_us", "us", lower, 0, "probe: WAL.PutItem under SyncAlways (n=200; the sandbox disk, not a device)"},
	{"store.wal_replay_ms", "ms", lower, 0, "probe: OpenWAL on a 10k-record log"},
	{"store.wal_appends_per_put", "count", lower, 0, "run: dcdht_store_wal_appends_total delta / Puts"},
	{"store.wal_fsyncs_per_put", "count", lower, 0, "run: dcdht_store_wal_fsyncs_total delta / Puts"},
	{"store.wal_bytes_per_user_byte", "ratio", lower, 0, "run: growth of the data dirs / acknowledged payload bytes"},

	{"dht.localstore_put_us", "us", lower, 0, "probe: LocalStore.Put (PutIfNewer) of a 1000 B value"},
	{"dht.localstore_get_us", "us", lower, 0, "probe: LocalStore.Get"},
	{"dht.puth_us", "us", lower, 0, "probe: dht.Client.PutH of 1000 B on a 16-node chord ring (lookup + store RPC)"},
	{"dht.geth_us", "us", lower, 0, "probe: dht.Client.GetH on the same ring"},

	{"chord.lookup_us", "us", lower, 0, "probe: Ring.Lookup of random IDs on a static 16-node TCP chord ring"},
	{"chord.hops_per_lookup", "hops", lower, 0, "probe: mean hops of those lookups"},
	{"onehop.lookup_us", "us", lower, 0, "probe: the same on onehop"},
	{"onehop.hops_per_lookup", "hops", lower, 0, "probe: mean hops on onehop"},
	{"can.lookup_us", "us", lower, 0, "probe: the same on CAN"},
	{"can.hops_per_lookup", "hops", lower, 0, "probe: mean hops on CAN"},
	{"chord.lookup_ms_per_get", "ms", lower, 0, "run: tracer `lookup` phase per Get (nested inside kts and probe time)"},
	{"chord.lookup_ms_per_put", "ms", lower, 0, "run: tracer `lookup` phase per Put"},
	{"chord.lookups_per_get", "count", lower, 0, "run: dcdht_chord_lookups_total delta / Gets (includes maintenance lookups)"},
	{"chord.lookups_per_put", "count", lower, 0, "run: the same per Put"},
	{"chord.stabilize_rounds_per_s", "1/s", lower, 0, "run: dcdht_chord_stabilize_rounds_total delta / s, all nodes (sim-wan: per simulated second)"},
	{"onehop.lookups_per_op", "count", lower, 0, "run: dcdht_onehop_lookups_total delta / ops"},
	{"onehop.stale_fallbacks", "count", lower, 0, "run: dcdht_onehop_stale_fallbacks_total delta"},

	{"kts.gen_ts_us", "us", lower, 0, "probe: kts.Service.GenTS of a warm counter, issuers rotating over the ring"},
	{"kts.last_ts_us", "us", lower, 0, "probe: kts.Service.LastTS of a warm counter"},
	{"kts.gen_ts_new_key_ms", "ms", lower, 0, "probe: GenTS of a never-seen key (n=30): grace delay + indirect initialisation"},
	{"kts.ms_per_get", "ms", lower, 0, "run: tracer `kts` phase per Get"},
	{"kts.ms_per_put", "ms", lower, 0, "run: tracer `kts` phase per Put"},
	{"kts.lastts_reqs_per_get", "count", lower, 0, "run: dcdht_kts_lastts_requests_total delta / Gets"},
	{"kts.gents_reqs_per_put", "count", lower, 0, "run: dcdht_kts_gents_requests_total delta / Puts"},
	{"kts.cache_hit_frac", "ratio", higher, 0, "run: dcdht_kts_cache_hits / (hits + misses) deltas"},
	{"kts.indirect_inits", "count", lower, 0, "run: dcdht_kts_indirect_inits_total delta"},

	{"ums.probes_per_get", "count", lower, 0, "run: mean Result.Probed - the paper's E(X)"},
	{"ums.probe_ms_per_get", "ms", lower, 0, "run: tracer `probe` phase per Get"},
	{"ums.stored_per_put", "count", higher, 0, "run: mean Result.Stored"},
	{"ums.unaccounted_ms_per_get", "ms", lower, 0, "run: mean Get latency - (kts + probe); the op span's self time"},
	{"ums.unaccounted_ms_per_put", "ms", lower, 0, "run: mean Put latency - kts; the replicate loop is not a traced phase yet"},
	{"ums.get_current_p50_ms", "ms", lower, 0, "run (mixed-gateway): median Get at Current"},
	{"ums.get_bounded_p50_ms", "ms", lower, 0, "run (mixed-gateway): median Get at Bounded(1s)"},
	{"ums.get_eventual_p50_ms", "ms", lower, 0, "run (mixed-gateway): median Get at Eventual"},
	{"ums.get_multi8_ms", "ms", lower, 0, "probe: Node.GetMulti of 8 keys (n=20)"},
	{"ums.put_multi8_ms", "ms", lower, 0, "probe: Node.PutMulti of 8 keys (n=20)"},

	{"gateway.cache_hit_frac", "ratio", higher, 0, "run: Gateway.Stats cache hits / (hits + misses)"},
	{"gateway.coalesced_frac", "ratio", higher, 0, "run: coalesced Gets / Gets"},
	{"gateway.backend_ops_per_op", "ratio", lower, 0, "run: backend operations / client operations"},
	{"gateway.backend_errors", "count", lower, 0, "run: backend errors"},
	{"gateway.overhead_us", "us", lower, 0, "probe: median Gateway.Get - median Node.Get at Current, same ring"},

	{"repair.msgs_per_vt_s", "1/s", lower, 0, "run (sim-wan): repair messages per simulated second"},
	{"repair.healed", "count", higher, 0, "run (sim-wan): replicas healed, measured window plus the churn probe"},
	{"simnet.events_per_wall_s", "1/s", higher, 0, "probe: perf.KernelBench at 1k peers"},
	{"simnet.wall_s_per_vt_hour", "s", lower, 0, "run (sim-wan): wall seconds per simulated hour"},
	{"simnet.ops_per_wall_s", "1/s", higher, 0, "run (sim-wan): ops per wall second, median over the stream's five chunks - how fast the simulator runs this workload"},
	{"churn.failed_frac", "ratio", lower, 0, "probe (sim-wan): failed ops / ops under the builtin churn-wave on 100 peers"},
	{"churn.vt_get_p50_ms", "ms", lower, 0, "probe (sim-wan): median Get in simulated time under churn-wave"},
	{"churn.indirect_inits", "count", lower, 0, "probe (sim-wan): KTS indirect initialisations under churn-wave"},

	{"workload.gen_ns_per_op", "ns", lower, 0, "probe: op generator + payload per op; must stay far below get_p50_ms"},
	{"obs.trace_overhead_frac", "ratio", lower, 0, "run: 1 - traced ops_per_s / plain ops_per_s, same process and ring (sim-wan: simulated seconds per wall second)"},
	{"runtime.cpu_ms_per_op", "ms", lower, 0, "run: getrusage user+sys delta / ops (whole process: clients and all nodes)"},
	{"runtime.allocs_per_op", "count", lower, 0, "run: MemStats.Mallocs delta / ops"},
	{"runtime.alloc_bytes_per_op", "B", lower, 0, "run: MemStats.TotalAlloc delta / ops"},
	{"runtime.gc_pause_ms", "ms", lower, 0, "run: MemStats.PauseTotalNs delta"},
	{"runtime.goroutines_peak", "count", lower, 0, "run: highest runtime.NumGoroutine sampled every 100 ms"},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the measured time the driver asks for.
const runSeconds = 10

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

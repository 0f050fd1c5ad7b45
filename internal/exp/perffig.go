package exp

import (
	"context"
	"flag"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/perf"
	"repro/internal/workload"
)

// perfParams are the perf figure's parameters.
type perfParams struct {
	ops, peers                 int
	kernelPeers                intList
	kernelEvents               int
	macroOps, macroConcurrency int
	stripTiming                bool
}

func (p *perfParams) declare(fs *flag.FlagSet, o Options) {
	fs.IntVar(&p.ops, "ops", pick(o, 30, 200), "operations per micro point (one point per algorithm x op x level)")
	fs.IntVar(&p.peers, "peers", pick(o, 48, 1000), "deployment size of the micro and macro points")
	// The 100k point stays in quick mode on purpose: booting 100k
	// synthetic peers and draining >= 1M events is the scale acceptance
	// check, and the bare kernel does it in well under a second.
	p.kernelPeers = intList{1000, 10000, 100000}
	fs.Var(&p.kernelPeers, "kernel_peers", "comma-separated synthetic scales of the kernel benchmark")
	fs.IntVar(&p.kernelEvents, "kernel_events", pick(o, 10, 50), "kernel-benchmark chain length per synthetic peer")
	fs.IntVar(&p.macroOps, "macro_ops", pick(o, 300, 1000000), "macro workload operation count; 0 skips the macro point")
	fs.IntVar(&p.macroConcurrency, "macro_concurrency", pick(o, 4, 16), "macro workload closed-loop worker count")
	fs.BoolVar(&p.stripTiming, "strip_timing", false, "zero the host-dependent timing fields so same-seed runs are byte-identical")
}

// perfBound is the staleness bound of the bounded-level micro reads.
const perfBound = 10 * time.Minute

// run measures the hot paths end to end: one micro point per
// (algorithm, op, level) through a warm simulated deployment, the bare
// kernel at synthetic 1k/10k/100k-peer scales, and one closed-loop
// macro workload. Deterministic fields (op counts, msgs/op, KTS
// reqs/op, simulated latency, kernel event counts) replay bit-for-bit
// per seed; timing fields are the host's and are stripped before CI
// byte-compares (see internal/perf).
func (p *perfParams) run(o Options) (*Table, *perf.Figure, error) {
	fig := &perf.Figure{Schema: perf.SchemaV1, Seed: o.Seed, Full: o.Full}

	d := NewDeployment(Table1Deployment(p.peers, o.Seed))
	defer d.K.Stop()
	d.RunFor(table1Warmup)

	// All micro ops issue from one fixed peer: deterministic, and the
	// bounded level reads through the last_ts cache that peer's own
	// writes warmed — exactly the session shape the cache serves.
	issuer := d.Peers[0]
	keys := make([]core.Key, p.ops)
	for i := range keys {
		keys[i] = core.Key(fmt.Sprintf("perf-k%03d", i))
	}

	// micro measures one operation shape: ops operations driven as a
	// single simulation process, KTS traffic read off the deployment
	// counters, wall time and allocations off the host clock.
	micro := func(alg, op, level string, fn func(i int) (dht.OpResult, error)) (perf.OpPoint, error) {
		g0, l0 := d.ktsRequests()
		t0 := d.K.Now()
		var msgs, failed int
		var opErr error
		tm := perf.Measure(p.ops, func() {
			if !d.Do(func() {
				for i := 0; i < p.ops; i++ {
					r, err := fn(i)
					if err != nil {
						failed++
						opErr = err
						continue
					}
					msgs += r.Msgs
				}
			}) {
				opErr = fmt.Errorf("exp: perf micro %s/%s stalled: %w", alg, op, core.ErrTimeout)
				failed = p.ops
			}
		})
		if failed > 0 {
			return perf.OpPoint{}, fmt.Errorf("exp: perf micro %s/%s/%s: %d/%d ops failed: %w",
				alg, op, level, failed, p.ops, opErr)
		}
		g1, l1 := d.ktsRequests()
		pt := perf.OpPoint{
			Alg:           alg,
			Op:            op,
			Level:         level,
			OpsRun:        p.ops,
			MsgsPerOp:     float64(msgs) / float64(p.ops),
			KTSReqsPerOp:  (g1 - g0 + l1 - l0) / float64(p.ops),
			SimLatencyMs:  float64((d.K.Now() - t0).Milliseconds()) / float64(p.ops),
			WallOpsPerSec: tm.OpsPerSec,
			AllocsPerOp:   tm.AllocsPerOp,
		}
		o.progress("perf-micro %-4s %-3s %-8s  msgs/op=%6.2f kts/op=%5.2f simlat=%6.1fms  %8.0f ops/s wall",
			alg, op, level, pt.MsgsPerOp, pt.KTSReqsPerOp, pt.SimLatencyMs, pt.WallOpsPerSec)
		return pt, nil
	}

	data := []byte("perf-payload")
	points := []struct {
		alg, op, level string
		fn             func(i int) (dht.OpResult, error)
	}{
		{"ums", "put", "", func(i int) (dht.OpResult, error) {
			return issuer.UMS.Insert(context.Background(), keys[i], data)
		}},
		{"ums", "get", "current", func(i int) (dht.OpResult, error) {
			return issuer.UMS.RetrieveWith(context.Background(), keys[i], dht.ReadPolicy{Level: dht.LevelCurrent})
		}},
		{"ums", "get", "bounded", func(i int) (dht.OpResult, error) {
			return issuer.UMS.RetrieveWith(context.Background(), keys[i], dht.ReadPolicy{Level: dht.LevelBounded, Bound: perfBound})
		}},
		{"ums", "get", "eventual", func(i int) (dht.OpResult, error) {
			return issuer.UMS.RetrieveWith(context.Background(), keys[i], dht.ReadPolicy{Level: dht.LevelEventual})
		}},
		{"brk", "put", "", func(i int) (dht.OpResult, error) {
			return issuer.BRK.Insert(context.Background(), keys[i], data)
		}},
		{"brk", "get", "", func(i int) (dht.OpResult, error) {
			return issuer.BRK.Retrieve(context.Background(), keys[i])
		}},
	}
	for _, m := range points {
		pt, err := micro(m.alg, m.op, m.level, m.fn)
		if err != nil {
			return nil, nil, err
		}
		fig.Ops = append(fig.Ops, pt)
	}

	// The bare-kernel sweep: no protocol stack, just the sharded event
	// queue at scales the deployment figures never reach.
	for _, n := range p.kernelPeers {
		kp := perf.KernelBench(perf.KernelConfig{
			Seed:          o.Seed,
			Peers:         n,
			EventsPerPeer: p.kernelEvents,
		})
		o.progress("perf-kernel n=%6d  events=%8d  %10.0f ev/s  %6.1f ns/ev  %5.2f allocs/ev",
			kp.Peers, kp.Events, kp.EventsPerSec, kp.NsPerEvent, kp.AllocsPerEvent)
		fig.Kernel = append(fig.Kernel, kp)
	}

	// The macro point: a closed-loop uniform workload through the same
	// deployment, issued from random live peers like the workload figure.
	if p.macroOps > 0 {
		spec := workload.Spec{
			Pattern:     workload.Uniform,
			Keys:        32,
			KeyPrefix:   "perfwl-",
			Ops:         p.macroOps,
			Concurrency: p.macroConcurrency,
			Seed:        o.Seed,
		}
		var rep *workload.Report
		var err error
		tm := perf.Measure(p.macroOps, func() {
			rep, err = d.RunWorkload(context.Background(), spec)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("exp: perf macro workload: %w", err)
		}
		fig.Macro = &perf.MacroPoint{
			Peers:         p.peers,
			Ops:           rep.Ops,
			Failed:        rep.Reads.Errors + rep.Writes.Errors,
			SimElapsedSec: rep.ElapsedSec,
			SimOpsPerSec:  rep.OpsPerSec,
			WallMs:        tm.WallSeconds * 1000,
		}
		o.progress("perf-macro ops=%d failed=%d sim=%.1fs (%.1f ops/s sim)  wall=%.0fms",
			fig.Macro.Ops, fig.Macro.Failed, fig.Macro.SimElapsedSec, fig.Macro.SimOpsPerSec, fig.Macro.WallMs)
	}

	if err := fig.Validate(); err != nil {
		return nil, nil, err
	}

	t := NewTable(
		fmt.Sprintf("Perf: hot-path costs (n=%d, %d ops/point, seed %d)", p.peers, p.ops, o.Seed),
		"point", "cost",
		[]string{"msgs/op", "kts reqs/op", "sim lat ms", "wall ops/s", "allocs/op"})
	for _, pt := range fig.Ops {
		row := pt.Alg + " " + pt.Op
		if pt.Level != "" {
			row += " " + pt.Level
		}
		t.Row(row, pt.MsgsPerOp, pt.KTSReqsPerOp, pt.SimLatencyMs, pt.WallOpsPerSec, pt.AllocsPerOp)
	}
	for _, kp := range fig.Kernel {
		row := fmt.Sprintf("kernel n=%d", kp.Peers)
		t.Set(row, "msgs/op", float64(kp.Events))
		t.Set(row, "wall ops/s", kp.EventsPerSec)
		t.Set(row, "allocs/op", kp.AllocsPerEvent)
	}
	if p.stripTiming {
		fig.StripTiming()
	}
	return t, fig, nil
}

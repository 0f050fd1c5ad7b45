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
	macroOps, macroConcurrency int
}

func (p *perfParams) declare(fs *flag.FlagSet, o Options) {
	fs.IntVar(&p.ops, "ops", pick(o, 30, 200), "operations per micro point (one point per algorithm x op x level)")
	fs.IntVar(&p.peers, "peers", pick(o, 48, 1000), "deployment size of the micro and macro points")
	fs.IntVar(&p.macroOps, "macro_ops", pick(o, 300, 1000000), "macro workload operation count; 0 skips the macro point")
	fs.IntVar(&p.macroConcurrency, "macro_concurrency", pick(o, 4, 16), "macro workload closed-loop worker count")
}

// perfBound is the staleness bound of the bounded-level micro reads.
const perfBound = 10 * time.Minute

// run measures the hot paths end to end in simulated time: one micro
// point per (algorithm, op, level) through a warm simulated deployment,
// and one closed-loop macro workload. Every field replays bit-for-bit
// per seed, so CI byte-compares the document with the committed
// BENCH_perf.json; wall-clock costs are the repository benchmark's.
func (p *perfParams) run(o Options) (*Table, *perf.Figure, error) {
	fig := &perf.Figure{Schema: perf.SchemaV2, Seed: o.Seed, Full: o.Full}

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
	// single simulation process, each timed by its own OpResult.Elapsed,
	// KTS traffic read off the deployment counters.
	micro := func(alg, op, level string, fn func(i int) (dht.OpResult, error)) (perf.OpPoint, error) {
		g0, l0 := d.ktsRequests()
		var msgs, failed int
		var elapsed time.Duration
		var opErr error
		if !d.Do(func() {
			for i := 0; i < p.ops; i++ {
				r, err := fn(i)
				if err != nil {
					failed++
					opErr = err
					continue
				}
				msgs += r.Msgs
				elapsed += r.Elapsed
			}
		}) {
			opErr = fmt.Errorf("exp: perf micro %s/%s stalled: %w", alg, op, core.ErrTimeout)
			failed = p.ops
		}
		if failed > 0 {
			return perf.OpPoint{}, fmt.Errorf("exp: perf micro %s/%s/%s: %d/%d ops failed: %w",
				alg, op, level, failed, p.ops, opErr)
		}
		g1, l1 := d.ktsRequests()
		pt := perf.OpPoint{
			Alg:          alg,
			Op:           op,
			Level:        level,
			OpsRun:       p.ops,
			MsgsPerOp:    float64(msgs) / float64(p.ops),
			KTSReqsPerOp: (g1 - g0 + l1 - l0) / float64(p.ops),
			SimLatencyMs: float64(elapsed) / float64(time.Millisecond) / float64(p.ops),
		}
		o.progress("perf-micro %-4s %-3s %-8s  msgs/op=%6.2f kts/op=%5.2f simlat=%6.1fms",
			alg, op, level, pt.MsgsPerOp, pt.KTSReqsPerOp, pt.SimLatencyMs)
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
		rep, err := d.RunWorkload(context.Background(), spec)
		if err != nil {
			return nil, nil, fmt.Errorf("exp: perf macro workload: %w", err)
		}
		fig.Macro = &perf.MacroPoint{
			Peers:         p.peers,
			Ops:           rep.Ops,
			Failed:        rep.Reads.Errors + rep.Writes.Errors,
			SimElapsedSec: rep.ElapsedSec,
			SimOpsPerSec:  rep.OpsPerSec,
		}
		o.progress("perf-macro ops=%d failed=%d sim=%.1fs (%.1f ops/s sim)",
			fig.Macro.Ops, fig.Macro.Failed, fig.Macro.SimElapsedSec, fig.Macro.SimOpsPerSec)
	}

	if err := fig.Validate(); err != nil {
		return nil, nil, err
	}

	t := NewTable(
		fmt.Sprintf("Perf: hot-path costs (n=%d, %d ops/point, seed %d)", p.peers, p.ops, o.Seed),
		"point", "cost",
		[]string{"msgs/op", "kts reqs/op", "sim lat ms"})
	for _, pt := range fig.Ops {
		row := pt.Alg + " " + pt.Op
		if pt.Level != "" {
			row += " " + pt.Level
		}
		t.Row(row, pt.MsgsPerOp, pt.KTSReqsPerOp, pt.SimLatencyMs)
	}
	return t, fig, nil
}

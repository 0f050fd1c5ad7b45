package workload

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
)

// drainPoll is how often the open-loop driver checks whether its
// stragglers have finished.
const drainPoll = 10 * time.Millisecond

// Run executes spec against c inside env and returns the report:
// closed-loop (Spec.Concurrency workers issuing back to back) by
// default, open-loop (operations issued at Spec.Rate regardless of
// completions) when Rate is positive. Every read runs at the level the
// generator drew. Latency is measured in environment time, so simulated
// runs report simulated latencies and replay bit-identically per seed.
//
// Under simulation Run must execute as a kernel process
// (exp.Deployment.RunWorkload arranges that); on a real environment any
// goroutine will do. Cancelling ctx stops issuing new operations at the
// next boundary; in-flight ones complete.
func Run(ctx context.Context, env network.Env, c dht.Ops, spec Spec) (*Report, error) {
	spec = spec.resolve()
	gen := NewGenerator(spec)
	if !spec.SkipPreload {
		if err := preload(ctx, env, c, gen); err != nil {
			return nil, err
		}
	}
	rec := newRecorder()
	start := env.Now()
	var err error
	if spec.Rate > 0 {
		err = runOpen(ctx, env, c, gen, rec, start)
	} else {
		err = runClosed(ctx, env, c, gen, rec, start)
	}
	if err != nil {
		return nil, err
	}
	return rec.report(spec, env.Now()-start), nil
}

// preload inserts every key once, untimed, with the closed-loop worker
// pool, so the measured run never reads an empty store.
func preload(ctx context.Context, env network.Env, c dht.Ops, gen *Generator) error {
	spec := gen.Spec()
	var mu sync.Mutex
	next := 0
	return env.Join(spec.Concurrency, func(int) {
		for {
			if ctx.Err() != nil {
				return
			}
			mu.Lock()
			if next >= spec.Keys {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()
			op := Op{Seq: -1 - i, Kind: OpPut, Key: gen.key(i)}
			c.Insert(ctx, op.Key, gen.Payload(op)) // best effort; reads tolerate misses
		}
	})
}

// runClosed drives spec.Concurrency workers, each issuing the next
// generated operation as soon as its previous one completes — the
// classic fixed-concurrency driver, measuring service capacity.
func runClosed(ctx context.Context, env network.Env, c dht.Ops, gen *Generator, rec *recorder, start time.Duration) error {
	spec := gen.Spec()
	var mu sync.Mutex
	issued := 0
	return env.Join(spec.Concurrency, func(int) {
		for {
			if ctx.Err() != nil {
				return
			}
			mu.Lock()
			if spec.Ops > 0 && issued >= spec.Ops {
				mu.Unlock()
				return
			}
			if spec.Duration > 0 && env.Now()-start >= spec.Duration {
				mu.Unlock()
				return
			}
			op := gen.Next()
			issued++
			if spec.Trace {
				rec.trace = append(rec.trace, op)
			}
			mu.Unlock()
			lat, oc := execute(ctx, env, c, gen, op)
			mu.Lock()
			rec.record(op, lat, oc)
			mu.Unlock()
		}
	})
}

// runOpen issues operations on a fixed schedule — one every 1/Rate of
// environment time — each on its own activity, then waits for the
// stragglers. Unlike the closed loop, a slow ring cannot throttle the
// arrival process, so queueing delay shows up in the tail quantiles.
func runOpen(ctx context.Context, env network.Env, c dht.Ops, gen *Generator, rec *recorder, start time.Duration) error {
	spec := gen.Spec()
	interval := time.Duration(float64(time.Second) / spec.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	var mu sync.Mutex
	issued, done := 0, 0
	for {
		if ctx.Err() != nil {
			break
		}
		if spec.Ops > 0 && issued >= spec.Ops {
			break
		}
		if spec.Duration > 0 && env.Now()-start >= spec.Duration {
			break
		}
		op := gen.Next()
		issued++
		if spec.Trace {
			rec.trace = append(rec.trace, op)
		}
		env.Go(func() {
			lat, oc := execute(ctx, env, c, gen, op)
			mu.Lock()
			rec.record(op, lat, oc)
			done++
			mu.Unlock()
		})
		if err := env.Sleep(interval); err != nil {
			return err
		}
	}
	// Drain: wait for every issued operation to complete.
	for {
		mu.Lock()
		d := done
		mu.Unlock()
		if d >= issued {
			return nil
		}
		if err := env.Sleep(drainPoll); err != nil {
			return err
		}
	}
}

// execute performs one operation — a write, or a read at the level the
// generator drew — timing it in environment time, and classifies the
// outcome. It is the one place the engine issues an op and sees its
// result.
func execute(ctx context.Context, env network.Env, c dht.Ops, gen *Generator, op Op) (time.Duration, outcome) {
	t0 := env.Now()
	var err error
	if op.Kind == OpPut {
		_, err = c.Insert(ctx, op.Key, gen.Payload(op))
	} else {
		_, err = c.Retrieve(ctx, op.Key, dht.ReadPolicy{Level: op.Level, Bound: gen.Spec().Bound})
	}
	lat := env.Now() - t0
	switch {
	case err == nil:
		return lat, outcomeOK
	case errors.Is(err, core.ErrNoCurrentReplica):
		return lat, outcomeStale
	case errors.Is(err, core.ErrNotFound):
		return lat, outcomeNotFound
	default:
		return lat, outcomeError
	}
}

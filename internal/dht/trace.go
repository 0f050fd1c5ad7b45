package dht

import (
	"context"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
)

// Span is one client operation's envelope, from TraceOp to End: the
// meter its messages are charged to, its start on the environment's
// clock, and the tracer (if any) that hears about it.
type Span struct {
	env   network.Env
	start time.Duration
	meter *network.Meter
	tr    obs.Tracer
	op    obs.Op
	ph    *obs.Phases
}

// TraceOp opens one operation on behalf of ums/brk: it attaches a fresh
// meter to the context and notes the start time. When a tracer is in
// effect (one carried by the context wins over the service default) it
// also emits OpStart and attaches a phase accumulator, so the layers
// below (chord lookups, KTS round trips, replica probes) can charge
// their time slices. Callers defer the returned Span's End on their
// named results.
func TraceOp(ctx context.Context, env network.Env, def obs.Tracer, op obs.Op) (context.Context, Span) {
	sp := Span{env: env, meter: &network.Meter{}, tr: obs.TracerFrom(ctx), op: op}
	ctx = network.WithMeter(ctx, sp.meter)
	if sp.tr == nil {
		sp.tr = def
	}
	sp.start = env.Now()
	if sp.tr != nil {
		sp.tr.OpStart(op)
		sp.ph = obs.NewPhases()
		ctx = obs.WithPhases(ctx, sp.ph)
	}
	return ctx, sp
}

// End fills res's Elapsed, Msgs and Bytes, traced or not, then emits
// OpEnd with the op's phases when a tracer is in effect.
func (sp Span) End(res *OpResult, err *error) {
	res.Elapsed = sp.env.Now() - sp.start
	res.Msgs, res.Bytes = sp.meter.Msgs, sp.meter.Bytes
	if sp.tr == nil {
		return
	}
	e := obs.OpResult{
		Op:      sp.op,
		Err:     *err != nil,
		Elapsed: res.Elapsed,
		Msgs:    res.Msgs,
		Bytes:   res.Bytes,
		Phases:  sp.ph.List(),
	}
	if sp.op.Op == "get" {
		e.Verdict = res.Currency.String()
	}
	sp.tr.OpEnd(e)
}

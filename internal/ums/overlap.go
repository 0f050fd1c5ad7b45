package ums

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
)

// overlap is the one rule by which an op starts its next step before the
// call it is waiting on has answered: once that call has been
// outstanding overlapAfter, a step that needs nothing from its answer
// runs on an activity of its own, with its own meter and clock. When the
// call answers, settle either cancels a step that has not started — the
// op is then its serial self, with no extra activity or message — or
// waits it out, so that no activity outlives the op, and charges its
// messages to the op. The regime is observed on the op's own call, never
// configured and never remembered.
//
// An overlap lives embedded in the per-op state whose work it runs;
// most are cancelled unfired.
type overlap struct {
	step func(ctx context.Context) // the embedding state's work

	env   network.Env
	ctx   context.Context // the op's
	timer network.Canceler

	mu      sync.Mutex
	cancel  context.CancelFunc // the started step's
	dropped bool               // abandoned before the step could start

	meter   network.Meter // what the step cost
	took    time.Duration // how long it ran
	stopped error         // the environment shut down under the step's own activities
}

// arm starts the clock on the call the op is about to make; step is
// the work to start should the call still be outstanding after
// overlapAfter.
func (o *overlap) arm(env network.Env, ctx context.Context, step func(context.Context)) {
	o.env, o.ctx, o.step = env, ctx, step
	o.timer = env.After(overlapAfter, o.run)
}

func (o *overlap) run() {
	o.mu.Lock()
	if o.dropped {
		o.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(network.WithMeter(o.ctx, &o.meter))
	o.cancel = cancel
	o.mu.Unlock()
	defer cancel()
	begin := o.env.Now()
	o.step(ctx)
	o.took = o.env.Now() - begin
}

// settle ends the overlap once the call has answered and reports
// whether the step went; a step still pending never will. One that went
// is waited out — cancelled first, through its context, when abandon
// says its work is no longer wanted — and its messages are merged into
// the op's meter. An error is the environment shutting down under the
// step: what the step holds is then not the op's to read.
func (o *overlap) settle(abandon bool) (went bool, err error) {
	if o.timer.Cancel() {
		return false, nil
	}
	if abandon {
		o.mu.Lock()
		o.dropped = true
		if o.cancel != nil {
			o.cancel()
		}
		o.mu.Unlock()
	}
	if err := o.timer.Wait(); err != nil {
		return true, err
	}
	if o.stopped != nil {
		return true, o.stopped
	}
	network.MeterFrom(o.ctx).Merge(o.meter)
	return true, nil
}

// probe is a retrieve's first probe sent alongside last_ts: the read of
// rsp(k, Hr[pos]), pos as nextProbe names it among the positions the
// issuer does not own and last_ts has not named when the probe fires.
// It reads nothing when none is left — nor, when last_ts names some,
// when the issuer cannot guess the owner of the one left: replicas
// already ride on last_ts, and a probe that must look its owner up
// first would only hold the read up.
type probe struct {
	overlap
	s     *Service
	k     core.Key
	named positions // the positions riding on last_ts
	earlyRead
}

func (p *probe) read(ctx context.Context) {
	p.pos = p.s.nextProbe(p.k, p.named, true)
	if p.pos >= 0 && p.named != nil {
		if _, src := p.s.ring.Guess(p.s.set.Hr[p.pos].ID(p.k)); src == dht.NoGuess {
			p.pos = -1
		}
	}
	if p.pos >= 0 {
		p.val, p.err = p.s.client.GetH(ctx, p.k, p.s.set.Hr[p.pos])
	}
}

// prefetch resolves a put's replica owners while its gen_ts is on the
// wire: for every Hr position the ring could not guess when the put
// began (guessed), the Ring.Lookup the write's router would otherwise
// run, all side by side; each decline is counted as Router.Call counts
// one. Each answer goes to that position's write as a Looked
// dht.Target, which sends to it first (dht.Client.PutHEach), so the put
// runs no lookup and sends no message it would not have anyway;
// positions the ring can guess are left to the write's own guess. A CAN
// issuer, or a chord arc the learned table has since evicted, therefore
// pays no second lookup either.
type prefetch struct {
	overlap
	s       *Service
	k       core.Key
	guessed []dht.Target // the put's guesses, parallel to Hr
	owners  []resolved   // per Hr position
	slow    bool         // a lookup took overlapAfter or longer
}

// resolved is one position's owner as resolved while stamping.
type resolved struct {
	looked bool        // the ring declined to guess, so a lookup ran
	ref    dht.NodeRef // what it named; zero when it failed
	took   time.Duration
	meter  network.Meter
}

func (p *prefetch) resolve(ctx context.Context) {
	s, env := p.s, p.s.ring.Env()
	route := s.client.Router()
	p.owners = make([]resolved, len(s.set.Hr))
	var todo []int // the positions the ring declined
	for i, t := range p.guessed {
		if t.Src == dht.NoGuess {
			route.Declined()
			p.owners[i].looked = true
			todo = append(todo, i)
		}
	}
	if p.stopped = env.Join(len(todo), func(j int) {
		o := &p.owners[todo[j]]
		begin := env.Now()
		if ref, _, err := s.ring.Lookup(network.WithMeter(ctx, &o.meter), s.set.Hr[todo[j]].ID(p.k)); err == nil {
			o.ref = ref
		}
		o.took = env.Now() - begin
	}); p.stopped != nil {
		return
	}
	for _, i := range todo {
		o := &p.owners[i]
		network.MeterFrom(ctx).Merge(o.meter)
		p.slow = p.slow || o.took >= overlapAfter
	}
}

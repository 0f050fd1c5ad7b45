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
// An overlap lives embedded in pooled per-op state, its step and fire
// bound once when the pool makes it, so arming one allocates nothing but
// the environment's timer; most are cancelled unfired.
type overlap struct {
	step func(ctx context.Context) // the embedding state's work
	fire func()                    // o.run

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

func (o *overlap) bind(step func(context.Context)) {
	o.step, o.fire = step, o.run
}

// arm starts the clock on the call the op is about to make.
func (o *overlap) arm(env network.Env, ctx context.Context) {
	o.env, o.ctx = env, ctx
	o.timer = env.After(overlapAfter, o.fire)
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
// step: what the step holds is then not the op's to read, nor the
// pool's to reuse.
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

// reset readies the overlap for its next op, keeping what bind bound.
func (o *overlap) reset() {
	*o = overlap{step: o.step, fire: o.fire}
}

// probe is a retrieve's first probe sent alongside last_ts: the read of
// rsp(k, Hr[pos]), pos as nextProbe names it when the probe fires.
type probe struct {
	overlap
	s   *Service
	k   core.Key
	pos int
	val core.Value
	err error
}

var probePool = sync.Pool{New: func() any {
	p := &probe{}
	p.bind(p.read)
	return p
}}

func (p *probe) read(ctx context.Context) {
	p.pos = p.s.nextProbe(p.k, nil)
	p.val, p.err = p.s.client.GetH(ctx, p.k, p.s.set.Hr[p.pos])
}

// release returns a probe that will not run, or has run, to the pool.
func (p *probe) release() {
	p.reset()
	p.s, p.k, p.pos, p.val, p.err = nil, "", 0, core.Value{}, nil
	probePool.Put(p)
}

// prefetch resolves a put's replica owners while its gen_ts is on the
// wire: for every Hr position the ring cannot guess, the Ring.Lookup the
// write's router would otherwise run, all side by side. Each answer goes
// to that position's write (dht.Client.PutHResolved), which sends to it
// first, so the put runs no lookup and sends no message it would not
// have anyway; positions the ring can guess are left to the write's own
// guess. A CAN issuer, or a chord arc the learned table has since
// evicted, therefore pays no second lookup either.
type prefetch struct {
	overlap
	s      *Service
	k      core.Key
	owners []resolved // per Hr position
	todo   []int      // the positions the ring declined
	slow   bool       // a lookup took overlapAfter or longer
}

// resolved is one position's owner as resolved while stamping.
type resolved struct {
	looked bool        // the ring declined to guess, so a lookup ran
	ref    dht.NodeRef // what it named; zero when it failed
	took   time.Duration
	meter  network.Meter
}

var prefetchPool = sync.Pool{New: func() any {
	p := &prefetch{}
	p.bind(p.resolve)
	return p
}}

func (p *prefetch) resolve(ctx context.Context) {
	s, env := p.s, p.s.ring.Env()
	route := s.client.Router()
	if cap(p.owners) < len(s.set.Hr) {
		p.owners = make([]resolved, len(s.set.Hr))
	}
	p.owners = p.owners[:len(s.set.Hr)]
	for i, h := range s.set.Hr {
		if route.Declines(h.ID(p.k)) {
			p.owners[i].looked = true
			p.todo = append(p.todo, i)
		}
	}
	todo := p.todo
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

// release returns a prefetch that will not run, or has run, to the pool.
func (p *prefetch) release() {
	p.reset()
	clear(p.owners)
	p.s, p.k, p.owners, p.todo, p.slow = nil, "", p.owners[:0], p.todo[:0], false
	prefetchPool.Put(p)
}

package dht

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
)

// RouteConfig is a Router's retry policy and transport options.
type RouteConfig struct {
	// Retries is how many times an operation re-resolves through the
	// authoritative Lookup after its first Lookup-routed attempt found
	// the responsible moved or dead.
	Retries int
	// Backoff is slept before each such re-resolution, giving the ring a
	// beat to converge.
	Backoff time.Duration
	// Timeout is the per-RPC patience; zero selects the transport
	// default.
	Timeout time.Duration
	// Local, when set, serves operations addressed to this peer without
	// touching the wire. Nil sends them through the endpoint like any
	// other.
	Local func(method string, req network.Message) (network.Message, error)
}

// Router delivers an operation to the peer responsible for a ring
// position — the paper's "locate rsp(k, h), then talk to it" — in one
// round trip when it can: it first names the owner from what the ring
// already knows (Ring.Guess, zero messages) and sends the operation
// straight there. Every operation handler already refuses positions its
// peer does not own (core.ErrNotResponsible), so the callee's answer is
// the confirmation a separate lookup would have bought. Only when the
// guess is refused or the guessed peer is unreachable does the router
// pay for the authoritative Ring.Lookup — after telling the ring, so a
// peer that is gone costs one wasted round trip, not one per use —
// immediately and then under the configured retry policy.
type Router struct {
	ring Ring
	cfg  RouteConfig

	routing, learned guessCounters
	declined         *obs.Counter
}

// guessCounters count the guesses from one source by how they ended.
type guessCounters struct{ hit, miss *obs.Counter }

// NewRouter builds a router over ring; its guess counters land in the
// ring's metrics registry.
func NewRouter(ring Ring, cfg RouteConfig) *Router {
	total := ring.Obs().CounterVec("dcdht_dht_guess_total",
		"Owner resolutions by what the ring's guess rested on (routing state, a learned arc, none) and how it ended: the named peer accepted the operation (hit), refused or was unreachable so the authoritative lookup ran (miss), or the ring named nobody (declined).",
		"source", "outcome")
	by := func(src GuessSource) guessCounters {
		return guessCounters{hit: total.With(string(src), "hit"), miss: total.With(string(src), "miss")}
	}
	return &Router{ring: ring, cfg: cfg,
		routing: by(GuessRouting), learned: by(GuessLearned), declined: total.With("none", "declined")}
}

// retryable reports whether err means "the responsible moved or died:
// resolve again", as opposed to an answer from the responsible itself.
func retryable(err error) bool {
	return errors.Is(err, core.ErrNotResponsible) || errors.Is(err, core.ErrTimeout) ||
		errors.Is(err, core.ErrUnreachable)
}

// guess asks the ring to name id's owner and counts it when the ring
// declines.
func (r *Router) guess(id core.ID) (NodeRef, GuessSource) {
	ref, src := r.ring.Guess(id)
	if src == NoGuess {
		r.declined.Inc()
	}
	return ref, src
}

// resolve names the peer to send an operation for id to: the ring's
// guess when one is wanted and offered, the authoritative Lookup
// otherwise.
func (r *Router) resolve(ctx context.Context, id core.ID, guess bool) (ref NodeRef, src GuessSource, err error) {
	if guess {
		if ref, src = r.guess(id); src != NoGuess {
			return ref, src, nil
		}
	}
	ref, _, err = r.ring.Lookup(ctx, id)
	return ref, NoGuess, err
}

// Send performs one operation on ref: locally when ref is this peer and
// the router has a local server, over the wire otherwise.
func (r *Router) Send(ctx context.Context, ref NodeRef, method string, req network.Message) (network.Message, error) {
	if r.cfg.Local != nil && ref.Addr == r.ring.Self().Addr {
		return r.cfg.Local(method, req)
	}
	return r.ring.Endpoint().Invoke(ctx, ref.Addr, method, req, network.Call{Timeout: r.cfg.Timeout})
}

// settle records how an operation sent to ref ended and reports whether
// it must be re-resolved. src is what named ref: a guess that missed is
// reported to the ring before anything is resolved again.
func (r *Router) settle(ref NodeRef, src GuessSource, err error) (retry bool) {
	retry = retryable(err)
	if src == NoGuess {
		return retry
	}
	c := &r.routing
	if src == GuessLearned {
		c = &r.learned
	}
	if retry {
		c.miss.Inc()
		r.ring.GuessMissed(ref)
	} else {
		c.hit.Inc()
	}
	return retry
}

// pause sleeps the back-off before an authoritative re-resolution. A
// missed guess never pays it: nothing authoritative has gone stale yet.
func (r *Router) pause(ctx context.Context) error {
	return network.SleepCtx(ctx, r.ring.Env(), r.cfg.Backoff)
}

// Call delivers one operation to the peer responsible for id and
// returns that peer's answer. The guessed owner is a free first try
// outside the retry budget; after it come the authoritative lookup and
// up to Retries re-resolutions while the responsible keeps moving.
func (r *Router) Call(ctx context.Context, id core.ID, method string, req network.Message) (network.Message, error) {
	if err := network.CtxError(ctx); err != nil {
		return nil, err
	}
	if ref, src := r.guess(id); src != NoGuess {
		resp, err := r.Send(ctx, ref, method, req)
		if !r.settle(ref, src, err) {
			return resp, err
		}
	}
	var lastErr error
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		if attempt > 0 {
			if err := r.pause(ctx); err != nil {
				return nil, err
			}
		}
		if err := network.CtxError(ctx); err != nil {
			return nil, err
		}
		ref, _, err := r.ring.Lookup(ctx, id)
		if err != nil {
			return nil, err
		}
		resp, err := r.Send(ctx, ref, method, req)
		if !retryable(err) {
			return resp, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// CallEach is Call for a batch of positions that share one request per
// responsible: it groups ids by the peer resolved for each (guessed
// owners in the first round, the authoritative lookup after) and hands
// every group to send, in first-seen order so a round's RPC sequence is
// deterministic. send issues the group's request to ref — through Send —
// for the positions idx (indexes into ids) and returns one outcome per
// entry of idx. Positions whose outcome is retryable re-resolve in the
// next round; the result is each position's final outcome.
func (r *Router) CallEach(ctx context.Context, ids []core.ID, send func(ref NodeRef, idx []int) []error) []error {
	errs := make([]error, len(ids))
	guessed := make([]GuessSource, len(ids))
	pending := make([]int, len(ids))
	for i := range pending {
		pending[i] = i
	}
	failPending := func(err error) []error {
		for _, i := range pending {
			errs[i] = err
		}
		return errs
	}
	rounds := r.cfg.Retries + 1
	backoff := false
	for round := 0; round < rounds && len(pending) > 0; round++ {
		if backoff {
			if err := r.pause(ctx); err != nil {
				return failPending(err)
			}
		}
		if err := network.CtxError(ctx); err != nil {
			return failPending(err)
		}
		var order []NodeRef
		groups := make(map[network.Addr][]int)
		for _, i := range pending {
			ref, src, err := r.resolve(ctx, ids[i], round == 0)
			if err != nil {
				errs[i] = err
				continue
			}
			if guessed[i] = src; src != NoGuess && rounds == r.cfg.Retries+1 {
				rounds++ // a round with guesses in it is outside the retry budget
			}
			if _, seen := groups[ref.Addr]; !seen {
				order = append(order, ref)
			}
			groups[ref.Addr] = append(groups[ref.Addr], i)
		}
		pending, backoff = nil, false
		for _, ref := range order {
			idx := groups[ref.Addr]
			for j, err := range send(ref, idx) {
				i := idx[j]
				errs[i] = err
				if r.settle(ref, guessed[i], err) {
					pending = append(pending, i)
					backoff = backoff || guessed[i] == NoGuess
				}
			}
		}
	}
	return errs
}

// GuessStats reports how many guessed owners accepted their operation
// and how many sent it back to the authoritative lookup, over both
// sources.
func (r *Router) GuessStats() (hits, misses uint64) {
	lh, lm := r.LearnedStats()
	return r.routing.hit.Value() + lh, r.routing.miss.Value() + lm
}

// LearnedStats is GuessStats for the guesses that rested on a learned
// arc.
func (r *Router) LearnedStats() (hits, misses uint64) {
	return r.learned.hit.Value(), r.learned.miss.Value()
}

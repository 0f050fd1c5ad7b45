package dht

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// Local is the method table this peer serves itself: an operation
	// addressed to this peer whose method it holds runs in-process, with
	// no message charged. Any other goes through the endpoint.
	Local map[string]network.HandlerFunc
}

// Router delivers an operation to the peer responsible for a ring
// position — the paper's "locate rsp(k, h), then talk to it" — in one
// round trip when it can: it first names the owner from what the ring
// already knows (Ring.Guess, zero messages) and sends the operation
// straight there. Every operation handler already refuses positions its
// peer does not own (core.ErrNotResponsible), so the callee's answer is
// the confirmation a separate lookup would have bought. Only when the
// guess is refused or the guessed peer is unreachable does the router
// pay for the authoritative Ring.Lookup — after telling a ring that
// remembers arcs (GuessForgetter), so a peer that is gone costs one
// wasted round trip, not one per use — immediately and then under the
// configured retry policy.
type Router struct {
	ring   Ring
	forget GuessForgetter // nil when the ring remembers no arcs
	cfg    RouteConfig

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
	forget, _ := ring.(GuessForgetter)
	return &Router{ring: ring, forget: forget, cfg: cfg,
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

// Send performs one operation on ref: in-process, at no message, when
// ref is this peer and Local holds the method, over the wire otherwise.
// The handler's own checks still run — a position the peer does not own
// answers ErrNotResponsible and the caller re-resolves — and a stopped
// peer answers core.ErrStopped, as its endpoint would.
func (r *Router) Send(ctx context.Context, ref NodeRef, method string, req network.Message) (network.Message, error) {
	if self := r.ring.Self().Addr; ref.Addr == self {
		if h, ok := r.cfg.Local[method]; ok {
			if !r.ring.Alive() {
				return nil, fmt.Errorf("dht: %s %s: %w", self, method, core.ErrStopped)
			}
			return h(self, req)
		}
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
		if r.forget != nil {
			r.forget.GuessMissed(ref)
		}
	} else {
		c.hit.Inc()
	}
	return retry
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
	var resp network.Message
	err := r.callFrom(ctx, id, 0, nil, func(ref NodeRef) (err error) {
		resp, err = r.Send(ctx, ref, method, req)
		return err
	})
	return resp, err
}

// Declined counts a decline of Ring.Guess that a caller resolving an
// owner ahead of its operation met itself, as Call counts its own: the
// caller then runs the Lookup and hands the answer to CallEach as a
// Looked Target, which asks the ring no second time.
func (r *Router) Declined() { r.declined.Inc() }

// callFrom is an operation's lookup-routed attempts from attempt first
// on, the attempts before it having gone elsewhere and last failed with
// lastErr: each resolves id through the authoritative Lookup and hands
// the owner to try, until an answer is not retryable or the Retries are
// spent. Every attempt after the first sleeps the back-off before it; a
// missed guess never pays it, as nothing authoritative has gone stale.
func (r *Router) callFrom(ctx context.Context, id core.ID, first int, lastErr error, try func(ref NodeRef) error) error {
	for attempt := first; attempt <= r.cfg.Retries; attempt++ {
		if attempt > 0 {
			if err := network.SleepCtx(ctx, r.ring.Env(), r.cfg.Backoff); err != nil {
				return err
			}
		}
		if err := network.CtxError(ctx); err != nil {
			return err
		}
		ref, _, err := r.ring.Lookup(ctx, id)
		if err != nil {
			return err
		}
		if err = try(ref); !retryable(err) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// Target is one position of a grouped call with what its caller already
// knows of the position's owner: nothing (the zero Ref, Looked unset), a
// guess (Ref, and Src what it rested on), or a Lookup run ahead of the
// call (Looked, Ref what it named — zero when it failed).
type Target struct {
	ID     core.ID
	Ref    NodeRef
	Src    GuessSource
	Looked bool
}

// CallEach is Call for a batch of positions that share one request per
// responsible. Each target goes first to the owner it names; one that
// names none is resolved as Call resolves it — the guess, else the
// Lookup — and a Looked one whose lookup failed by a fresh Lookup. The
// targets are grouped by that owner and every group is handed to send,
// in first-seen order so the RPC sequence is deterministic. send issues
// the group's request to ref — through Send — for the targets idx
// (indexes into targets) and returns one outcome per entry of idx. A
// member whose outcome is retryable goes on alone, through send(ref,
// [i]), exactly as Call would after that attempt: after a guess, the
// lookup at once; after a lookup, the back-off and a fresh one. The
// result is each target's final outcome.
func (r *Router) CallEach(ctx context.Context, targets []Target, send func(ref NodeRef, idx []int) []error) []error {
	errs := make([]error, len(targets))
	if err := network.CtxError(ctx); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	first := make([]Target, len(targets)) // the owner each goes to first; zero Ref when none was found
	for i, t := range targets {
		f := &first[i]
		f.Ref, f.Src = t.Ref, t.Src
		if f.Ref.IsZero() && !t.Looked {
			if ref, src := r.guess(t.ID); src != NoGuess {
				f.Ref, f.Src = ref, src
			}
		}
		if f.Ref.IsZero() {
			var err error
			if f.Ref, _, err = r.ring.Lookup(ctx, t.ID); err != nil {
				errs[i], f.Ref = err, NodeRef{}
			}
		}
	}
	idx := make([]int, 0, len(targets)) // the groups' members, one group after another
	for i, f := range first {
		if f.Ref.IsZero() || slices.IndexFunc(first, func(o Target) bool { return o.Ref.Addr == f.Ref.Addr }) < i {
			continue // no owner, or that owner's group has gone
		}
		from := len(idx)
		for j := i; j < len(first); j++ {
			if first[j].Ref.Addr == f.Ref.Addr {
				idx = append(idx, j)
			}
		}
		group := idx[from:len(idx):len(idx)]
		for j, err := range send(f.Ref, group) {
			m := group[j]
			if src := first[m].Src; r.settle(f.Ref, src, err) {
				attempt := 0 // a missed guess: the lookup at once
				if src == NoGuess {
					attempt = 1
				}
				err = r.callFrom(ctx, targets[m].ID, attempt, err, func(ref NodeRef) error {
					return send(ref, []int{m})[0]
				})
			}
			errs[m] = err
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

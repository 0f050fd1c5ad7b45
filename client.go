package dcdht

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/peer"
)

// Client is the deployment-agnostic interface to a replicated DHT with
// data currency: one method set, implemented both by SimNetwork (the
// paper's simulation study) and by Node (the real TCP deployment), so
// applications, experiments and CLIs drive either world through the
// same code path.
//
// Every operation takes a context.Context that propagates end to end:
// its deadline bounds the whole operation across every ring lookup and
// RPC beneath it (mapped onto virtual time under simulation, onto
// socket deadlines over TCP), and its cancellation stops retries and
// probes at the next message boundary. An operation issued with an
// already-expired deadline fails promptly with an error wrapping both
// ErrTimeout and context.DeadlineExceeded.
//
// The replication protocol is selected per operation with OpOptions:
// the default is the paper's UMS (KTS timestamps, provable currency,
// early-stop probing); WithAlgorithm(AlgBRK) runs the BRICKS baseline
// (version numbers, read-all) for side-by-side comparisons. The
// UMS-Direct / UMS-Indirect axis is a deployment property (counter
// initialization strategy) and is chosen with SimConfig.Mode or
// NodeConfig.Mode.
//
// Retrieves additionally take a consistency level
// (WithConsistency): Current — the default — proves currency against
// KTS, Bounded(d) accepts a replica within a staleness bound, Eventual
// takes the first reachable replica. Result.Currency reports what the
// operation could actually claim. NewSession opens a Session whose
// reads are guaranteed at least as fresh as the session's own writes
// and prior reads (read-your-writes, monotonic reads).
//
// An operation issued with invalid options (a negative issuer index, a
// negative staleness bound, an issuer pin on a TCP node) fails with an
// error wrapping ErrBadOption instead of silently ignoring the option.
type Client interface {
	// Put stores data under key with a fresh timestamp and replicates
	// it at the peers responsible under every replication hash function.
	Put(ctx context.Context, key Key, data []byte, opts ...OpOption) (Result, error)
	// Get returns the current replica of key. When no provably current
	// replica is reachable, the most recent available one is returned
	// together with an error wrapping ErrNoCurrentReplica (classify
	// with IsNoCurrent). WithConsistency relaxes what "current" must
	// mean for this read.
	Get(ctx context.Context, key Key, opts ...OpOption) (Result, error)
	// LastTS asks KTS for the last timestamp generated for key (zero
	// when the key was never stamped). WithIssuer selects the asking
	// peer under simulation; WithConsistency(Bounded(d)) or
	// WithConsistency(Eventual) may serve the answer from the issuing
	// peer's cache instead of a KTS round trip.
	LastTS(ctx context.Context, key Key, opts ...OpOption) (Timestamp, error)
	// NewSession opens a session over this client: per-key timestamp
	// floors provide read-your-writes and monotonic reads cheaply.
	NewSession(defaults ...OpOption) *Session
	// PutMulti stores a batch, fanning the writes out concurrently.
	// Per-key outcomes are isolated in the returned slice (index i
	// matches items[i]); the batch-level error is non-nil only when the
	// batch as a whole could not be issued.
	PutMulti(ctx context.Context, items []KV, opts ...OpOption) ([]MultiResult, error)
	// GetMulti retrieves a batch of keys concurrently, with the same
	// per-key error isolation as PutMulti.
	GetMulti(ctx context.Context, keys []Key, opts ...OpOption) ([]MultiResult, error)
}

// Compile-time interface conformance for both deployment styles and
// the front-end tier layered over them.
var (
	_ Client = (*SimNetwork)(nil)
	_ Client = (*Node)(nil)
	_ Client = (*Gateway)(nil)
)

// Algorithm selects the replication protocol an operation runs.
type Algorithm = peer.Algorithm

const (
	// AlgUMS is the paper's Update Management Service: KTS timestamps,
	// provable currency, early-stop probing. The default.
	AlgUMS = peer.UMS
	// AlgBRK is the BRICKS baseline: per-replica version numbers and
	// read-all retrieves, kept for side-by-side comparisons.
	AlgBRK = peer.BRK
)

// ErrBadOption marks an operation issued with an invalid option
// combination — a negative issuer index, a negative staleness bound, an
// issuer pin on a TCP Node. The operation fails instead of silently
// dropping the option; classify with errors.Is(err, ErrBadOption).
var ErrBadOption = errors.New("invalid operation option")

// opConfig is the resolved per-operation configuration.
type opConfig struct {
	alg       Algorithm
	peer      int  // issuing peer index for SimNetwork; -1 picks a random live peer
	issuerSet bool // WithIssuer was given (Nodes must reject it)
	level     dht.Level
	levelSet  bool // WithConsistency was given explicitly
	bound     time.Duration
	floor     core.Timestamp // session floor (set by Session reads only)
	err       error          // first invalid option seen
}

// OpOption customises one operation.
type OpOption func(*opConfig)

// WithAlgorithm selects the replication protocol for this operation.
func WithAlgorithm(a Algorithm) OpOption {
	return func(c *opConfig) { c.alg = a }
}

// WithIssuer pins the operation to the i-th live peer (modulo the live
// population) instead of a random one. Only meaningful on SimNetwork,
// where the facade chooses the issuing peer; an operation on a Node —
// which always issues from itself — fails with ErrBadOption, as does a
// negative index.
func WithIssuer(i int) OpOption {
	return func(c *opConfig) {
		c.issuerSet = true
		if i < 0 {
			c.fail(fmt.Errorf("issuer index %d is negative: %w", i, ErrBadOption))
			return
		}
		c.peer = i
	}
}

// WithConsistency selects the consistency level for this operation's
// reads: Current (the default), Bounded(d) or Eventual. A malformed
// level — Bounded with a negative bound — fails the operation with
// ErrBadOption.
func WithConsistency(l Consistency) OpOption {
	return func(c *opConfig) {
		c.levelSet = true
		c.level, c.bound = l.level, l.bound
		if l.level == dht.LevelBounded && l.bound < 0 {
			c.fail(fmt.Errorf("bounded consistency with negative bound %v: %w", l.bound, ErrBadOption))
		}
	}
}

// withFloor carries a session's per-key floor into the operation. Kept
// unexported: floors are session bookkeeping, not a caller knob.
func withFloor(f Timestamp) OpOption {
	return func(c *opConfig) { c.floor = f }
}

// withPolicy replays an already-resolved read policy through the option
// machinery so a backend client re-derives exactly this policy from
// opConfig.readPolicy. Kept unexported: only the gateway's backend
// adapter uses it.
func withPolicy(p dht.ReadPolicy) OpOption {
	return func(c *opConfig) {
		c.level, c.bound, c.floor = p.Level, p.Bound, p.Floor
		c.levelSet = !p.FloorFirst
	}
}

// fail records the first invalid option; later ones keep the original
// diagnosis.
func (c *opConfig) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// readPolicy translates the resolved options into the UMS acceptance
// predicate. A session floor with no explicit consistency level selects
// the floor-first fast path (satisfy the read from the floor before
// proving currency).
func (c opConfig) readPolicy() dht.ReadPolicy {
	p := dht.ReadPolicy{Level: c.level, Bound: c.bound, Floor: c.floor}
	if !c.levelSet && !c.floor.IsZero() {
		p.FloorFirst = true
	}
	return p
}

// resolveOpts folds the options into one configuration, reporting the
// first invalid option (or combination — checked after folding, so the
// outcome is independent of option order) as an error wrapping
// ErrBadOption.
func resolveOpts(opts []OpOption) (opConfig, error) {
	c := opConfig{peer: -1}
	for _, o := range opts {
		o(&c)
	}
	// The BRK baseline has no currency proof to relax and no floors to
	// enforce: combining it with a consistency level or a session read
	// must fail loudly, not silently drop the guarantee.
	if c.err == nil && c.alg == AlgBRK {
		if c.levelSet {
			c.fail(fmt.Errorf("BRK cannot honor a consistency level: %w", ErrBadOption))
		} else if !c.floor.IsZero() {
			c.fail(fmt.Errorf("session reads are not supported on BRK (no floor enforcement): %w", ErrBadOption))
		}
	}
	return c, c.err
}

// KV is one key/data pair of a PutMulti batch.
type KV struct {
	// Key names the item; Data is the value to replicate under it.
	Key  Key
	Data []byte
}

// MultiResult is one key's outcome within a batched operation: the
// operation metrics plus the key's own error, isolated from its
// siblings (one missing key does not fail the batch).
type MultiResult struct {
	// Key names the item this outcome belongs to; the embedded Result
	// carries the operation's data and metrics.
	Key Key
	Result
	// Err is this key's outcome; classify with errors.Is (ErrNotFound,
	// ErrNoCurrentReplica, ErrTimeout, ...).
	Err error
}

// issuer is the one thing the two deployment styles do differently
// about an operation: which peer stack it issues from, and what has to
// run around it. Option resolution and the context gate are the shared
// functions below; the protocols are internal/peer.
type issuer interface {
	// admit rejects resolved options this world cannot honor (a Node has
	// no issuer to pin), with an error wrapping ErrBadOption.
	admit(oc opConfig) error
	// issue runs fn against the issuing peer's stack and returns once fn
	// has. SimNetwork draws a live peer and drives virtual time around
	// fn; Node calls fn on its own stack.
	issue(oc opConfig, fn func(*peer.Stack)) error
}

// gate is the front of every operation in both worlds: resolve and vet
// the options, then reject a context that is already done before
// anything is touched (so expired deadlines fail promptly). Option
// errors come first, so a bad call reads the same whatever the context.
func gate(ctx context.Context, w issuer, opts []OpOption) (opConfig, error) {
	oc, err := resolveOpts(opts)
	if err == nil {
		err = w.admit(oc)
	}
	if err == nil {
		err = network.CtxError(ctx)
	}
	return oc, err
}

// issueOp is the single-key operation path of both worlds: pass the
// gate, then run fn on the issuing stack.
func issueOp[T any](ctx context.Context, w issuer, what string, key Key, opts []OpOption, fn func(*peer.Stack, opConfig) (T, error)) (T, error) {
	var out T
	var opErr error
	oc, err := gate(ctx, w, opts)
	if err == nil {
		err = w.issue(oc, func(p *peer.Stack) { out, opErr = fn(p, oc) })
	}
	if err != nil {
		return out, fmt.Errorf("dcdht: %s(%q): %w", what, key, err)
	}
	return out, opErr
}

func put(ctx context.Context, w issuer, key Key, data []byte, opts []OpOption) (Result, error) {
	return issueOp(ctx, w, "put", key, opts, func(p *peer.Stack, oc opConfig) (Result, error) {
		return p.Put(ctx, oc.alg, key, data)
	})
}

func get(ctx context.Context, w issuer, key Key, opts []OpOption) (Result, error) {
	return issueOp(ctx, w, "get", key, opts, func(p *peer.Stack, oc opConfig) (Result, error) {
		return p.Get(ctx, oc.alg, key, oc.readPolicy())
	})
}

func lastTS(ctx context.Context, w issuer, key Key, opts []OpOption) (Timestamp, error) {
	return issueOp(ctx, w, "last_ts", key, opts, func(p *peer.Stack, oc opConfig) (Timestamp, error) {
		return p.LastTSWith(ctx, key, oc.readPolicy())
	})
}

func putMulti(ctx context.Context, w issuer, items []KV, opts []OpOption) ([]MultiResult, error) {
	keys := make([]Key, len(items))
	datas := make([][]byte, len(items))
	for i, it := range items {
		keys[i], datas[i] = it.Key, it.Data
	}
	return issueMulti(ctx, w, "put multi", keys, opts, func(p *peer.Stack, oc opConfig) ([]Result, []error) {
		return p.PutMulti(ctx, oc.alg, keys, datas)
	})
}

func getMulti(ctx context.Context, w issuer, keys []Key, opts []OpOption) ([]MultiResult, error) {
	return issueMulti(ctx, w, "get multi", keys, opts, func(p *peer.Stack, oc opConfig) ([]Result, []error) {
		return p.GetMulti(ctx, oc.alg, keys, oc.readPolicy())
	})
}

// issueMulti is the batch operation path of both worlds: pass the gate,
// then issue the whole batch from one stack and pair each key with its
// own outcome. Invalid options, a done context or no issuing peer fail
// the batch as a whole; an empty batch issues nothing (and draws no
// issuer).
func issueMulti(ctx context.Context, w issuer, what string, keys []Key, opts []OpOption, fn func(*peer.Stack, opConfig) ([]Result, []error)) ([]MultiResult, error) {
	out := make([]MultiResult, len(keys))
	oc, err := gate(ctx, w, opts)
	if err == nil && len(keys) > 0 {
		err = w.issue(oc, func(p *peer.Stack) {
			results, errs := fn(p, oc)
			for i := range out {
				out[i] = MultiResult{Key: keys[i], Result: results[i], Err: errs[i]}
			}
		})
	}
	if err != nil {
		return nil, fmt.Errorf("dcdht: %s: %w", what, err)
	}
	return out, nil
}

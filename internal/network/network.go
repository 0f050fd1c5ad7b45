// Package network defines the execution-environment and transport
// abstractions all protocol code (Chord, CAN, KTS, UMS, BRK) is written
// against. The same protocol implementation runs in two worlds:
//
//   - simulated: internal/network/simwire delivers messages in virtual
//     time with the latency/bandwidth model of the paper's Table 1,
//     driven by the internal/simnet kernel (the SimJava replacement);
//   - real: internal/network/tcpwire delivers messages over TCP sockets,
//     the stand-in for the paper's 64-node cluster deployment.
//
// This mirrors the paper's methodology of validating the implementation
// on a cluster and studying scale-up in a calibrated simulator with one
// code base.
package network

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
)

// Env abstracts time and concurrency. Under simulation the clock is
// virtual and processes are serialized deterministically; under the real
// environment these map onto the wall clock and plain goroutines.
type Env interface {
	// Now returns the elapsed time since the environment started.
	Now() time.Duration
	// Sleep blocks the calling activity for d. It returns
	// core.ErrStopped if the environment shut down while sleeping.
	Sleep(d time.Duration) error
	// Go runs fn as a new activity.
	Go(fn func())
	// Join runs run(0..n-1) as n new activities and blocks the caller
	// until all have finished; the last finisher wakes the caller, so
	// the join costs no environment time of its own. It returns early
	// with core.ErrStopped when the environment shuts down mid-join.
	// (A bare sync.WaitGroup would block a real goroutine, which
	// deadlocks the simulation kernel — hence a method of the Env.)
	Join(n int, run func(i int)) error
	// After schedules fn to run as a new activity after d; the returned
	// Canceler can stop it before it fires, or wait out a fired one.
	After(d time.Duration, fn func()) Canceler
	// Rand derives a named deterministic random stream.
	Rand(label string) *rand.Rand
}

// Canceler stops a pending timer, or waits for the activity a fired one
// started.
type Canceler interface {
	// Cancel reports whether the timer was stopped before firing.
	Cancel() bool
	// Wait blocks the calling activity until the timer's fn has
	// returned; on a timer Cancel stopped it returns at once. Like Join
	// it costs no environment time of its own and returns early with
	// core.ErrStopped when the environment shuts down first.
	Wait() error
}

// Addr identifies an endpoint: a simulated peer name or a TCP host:port.
type Addr string

// Message is an RPC payload. Concrete message types must be registered
// with RegisterMessage so the TCP transport can encode them, and should
// implement WireSizer when their size materially differs from
// DefaultWireSize (the simulator charges transmission time against the
// paper's 56 kbps links).
type Message any

// WireSizer reports an estimated encoded size in bytes.
type WireSizer interface {
	WireSize() int
}

// DefaultWireSize is the byte size charged for messages that do not
// implement WireSizer: a small protocol message with addresses, ids and
// a few integers.
const DefaultWireSize = 200

// SizeOf returns the accounted wire size of a message.
func SizeOf(m Message) int {
	if s, ok := m.(WireSizer); ok {
		return s.WireSize()
	}
	return DefaultWireSize
}

// HandlerFunc serves one RPC method on an endpoint. Handlers run as their
// own activity and may issue nested Invokes. Handlers must treat req as
// immutable.
type HandlerFunc func(from Addr, req Message) (Message, error)

// Typed adapts fn, which serves requests of type Req, to a HandlerFunc.
// A request of any other type, a nil one included, gets an error
// wrapping core.ErrUnreachable, the answer to a method nobody serves: a
// frame that names one method but carries another's body cannot crash
// the node.
func Typed[Req any](fn func(req Req) (Message, error)) HandlerFunc {
	return func(_ Addr, req Message) (Message, error) {
		r, ok := req.(Req)
		if !ok {
			var want Req
			return nil, fmt.Errorf("network: request %T where %T is served: %w", req, want, core.ErrUnreachable)
		}
		return fn(r)
	}
}

// Reply is the caller's side of Typed: it takes an Invoke's outcome and
// checks that the reply is a Resp. A reply of any other type, a nil one
// included, becomes an error wrapping core.ErrUnreachable, as from a
// peer that never answered: a peer that replies with another method's
// body cannot crash its caller. A non-nil err passes through.
func Reply[Resp any](m Message, err error) (Resp, error) {
	var r Resp
	if err != nil {
		return r, err
	}
	r, ok := m.(Resp)
	if !ok {
		return r, fmt.Errorf("network: reply %T where %T was asked for: %w", m, r, core.ErrUnreachable)
	}
	return r, nil
}

// Call carries per-invocation options. Deadlines and cancellation come
// from the context passed to Invoke; Timeout is only the per-RPC
// patience a protocol grants one round trip (its failure-detection
// threshold), never an end-to-end budget.
type Call struct {
	// Timeout bounds the round trip; zero selects the transport default.
	// A context deadline that expires sooner always wins.
	Timeout time.Duration
}

// Endpoint is one peer's attachment to the network.
type Endpoint interface {
	// Addr returns this endpoint's address.
	Addr() Addr
	// Invoke performs a synchronous RPC. Under simulation it must be
	// called from an Env activity. The context's deadline caps the round
	// trip (mapped onto virtual time under simulation) and a context
	// already done fails fast with the matching core error. Message
	// costs are charged to the meter carried by ctx (see WithMeter).
	// Errors from the remote handler are reconstructed so errors.Is
	// works across the wire.
	Invoke(ctx context.Context, to Addr, method string, req Message, opt Call) (Message, error)
	// Handle registers the handler for a method name. Registration is
	// not safe to interleave with traffic; register before serving.
	Handle(method string, h HandlerFunc)
	// Close detaches the endpoint. Pending calls fail.
	Close() error
}

// meterCtxKey carries the per-operation Meter through call chains.
type meterCtxKey struct{}

// WithMeter returns a context that charges message costs of every
// Invoke and Lookup beneath it to m. One logical operation attaches one
// meter at its entry point; passing nil returns ctx unchanged.
func WithMeter(ctx context.Context, m *Meter) context.Context {
	if m == nil {
		return ctx
	}
	return context.WithValue(ctx, meterCtxKey{}, m)
}

// MeterFrom returns the meter ctx carries, or nil when the operation is
// unmetered. All Meter methods accept a nil receiver, so callers charge
// unconditionally: MeterFrom(ctx).Count(n).
func MeterFrom(ctx context.Context) *Meter {
	m, _ := ctx.Value(meterCtxKey{}).(*Meter)
	return m
}

// CtxError translates a context's termination into the core taxonomy:
// an expired deadline wraps both core.ErrTimeout and
// context.DeadlineExceeded so callers can classify with either; a
// cancellation passes through as context.Canceled. Returns nil while
// ctx is live.
func CtxError(ctx context.Context) error {
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", core.ErrTimeout, err)
	default:
		return err
	}
}

// Patience resolves the effective timeout for one RPC: the call's
// timeout (or the transport default when zero), capped by the context's
// remaining deadline budget. The result is always positive — an already
// expired context must be rejected with CtxError before calling this.
func Patience(ctx context.Context, timeout, transportDefault time.Duration) time.Duration {
	if timeout <= 0 {
		timeout = transportDefault
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < timeout {
			timeout = rem
		}
	}
	if timeout < time.Millisecond {
		timeout = time.Millisecond
	}
	return timeout
}

// SleepCtx sleeps d of environment time, giving up when ctx is done.
// Under simulation the context's wall-clock deadline cannot interrupt a
// virtual-time sleep, so the check happens at both edges — which keeps
// retry loops from outliving their caller.
func SleepCtx(ctx context.Context, env Env, d time.Duration) error {
	if err := CtxError(ctx); err != nil {
		return err
	}
	if err := env.Sleep(d); err != nil {
		return err
	}
	return CtxError(ctx)
}

// Meter accumulates communication cost for a single logical operation.
// An operation runs within one activity, so Meter is not synchronized.
type Meter struct {
	Msgs  int
	Bytes int
}

// Count records one transmission of n bytes. Nil meters ignore counts.
func (m *Meter) Count(n int) {
	if m == nil {
		return
	}
	m.Msgs++
	m.Bytes += n
}

// Merge folds another meter's counts into m, used when a remote handler
// reports work it performed on the caller's behalf (e.g. indirect
// counter initialization). Nil meters ignore merges.
func (m *Meter) Merge(other Meter) {
	if m == nil {
		return
	}
	m.Msgs += other.Msgs
	m.Bytes += other.Bytes
}

// Error codes used to round-trip the core error taxonomy through
// transports.
const (
	codeNotFound       = "not_found"
	codeUnreachable    = "unreachable"
	codeTimeout        = "timeout"
	codeStopped        = "stopped"
	codeNoCurrent      = "no_current"
	codeNotResponsible = "not_responsible"
	codeStorage        = "storage"
	codeOther          = "error"
)

// EncodeError flattens an error into a (code, message) pair for the wire.
func EncodeError(err error) (code, msg string) {
	if err == nil {
		return "", ""
	}
	switch {
	case errors.Is(err, core.ErrNotFound):
		return codeNotFound, err.Error()
	case errors.Is(err, core.ErrUnreachable):
		return codeUnreachable, err.Error()
	case errors.Is(err, core.ErrTimeout):
		return codeTimeout, err.Error()
	case errors.Is(err, core.ErrStopped):
		return codeStopped, err.Error()
	case errors.Is(err, core.ErrNoCurrentReplica):
		return codeNoCurrent, err.Error()
	case errors.Is(err, core.ErrNotResponsible):
		return codeNotResponsible, err.Error()
	case errors.Is(err, core.ErrStorage):
		return codeStorage, err.Error()
	default:
		return codeOther, err.Error()
	}
}

// DecodeError reconstructs an error from its wire form so errors.Is
// matches the core taxonomy on the caller's side.
func DecodeError(code, msg string) error {
	if code == "" {
		return nil
	}
	var base error
	switch code {
	case codeNotFound:
		base = core.ErrNotFound
	case codeUnreachable:
		base = core.ErrUnreachable
	case codeTimeout:
		base = core.ErrTimeout
	case codeStopped:
		base = core.ErrStopped
	case codeNoCurrent:
		base = core.ErrNoCurrentReplica
	case codeNotResponsible:
		base = core.ErrNotResponsible
	case codeStorage:
		base = core.ErrStorage
	default:
		return errors.New(msg)
	}
	return fmt.Errorf("%s: %w", "remote", base)
}

// DecodeBatch is DecodeError for a reply to a batch of n items: err is
// the call's own outcome, answered how many results the reply carries,
// and codes and msgs its per-item error codes. A reply that does not
// answer every item exactly once is the whole batch's failure, as from a
// peer that never answered. errs holds one outcome per item; whole is
// the failure every item shares, nil when the reply answered each.
func DecodeBatch(n int, err error, answered int, codes, msgs []string) (errs []error, whole error) {
	errs = make([]error, n)
	if err == nil && (answered != n || len(codes) != n || len(msgs) != n) {
		err = fmt.Errorf("network: batch of %d answered with %d: %w", n, answered, core.ErrUnreachable)
	}
	for j := range errs {
		if err != nil {
			errs[j] = err
		} else {
			errs[j] = DecodeError(codes[j], msgs[j])
		}
	}
	return errs, err
}

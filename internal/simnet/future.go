package simnet

import (
	"time"

	"repro/internal/core"
)

// Future is a single-producer, single-consumer rendezvous in virtual
// time: one process awaits the value, any process (or event) resolves it
// once. It is the building block for simulated RPC replies.
type Future struct {
	k         *Kernel
	resolved  bool
	val       any
	waiter    chan awaitResult // non-nil while a process is blocked
	delivered bool             // a wake-up (value or timeout) was handed over
}

type awaitResult struct {
	val any
	err error
}

// NewFuture creates an unresolved future.
func (k *Kernel) NewFuture() *Future { return &Future{k: k} }

// Resolve supplies the value. Only the first resolution counts; later
// calls are ignored, which lets duplicate deliveries (retries) race
// safely.
func (f *Future) Resolve(v any) {
	k := f.k
	k.mu.Lock()
	defer k.mu.Unlock()
	if f.resolved || k.stopped {
		return
	}
	f.resolved = true
	f.val = v
	if f.waiter == nil {
		return // consumer not blocked yet; Await will fast-path
	}
	ev := k.push(k.now, kindResolve)
	ev.f = f
	ev.w = f.waiter
}

// Await blocks the calling process until the future resolves or the
// timeout elapses (timeout <= 0 means wait forever). It must be called
// from a process goroutine, at most once per future.
func (f *Future) Await(timeout time.Duration) (any, error) {
	k := f.k
	k.mu.Lock()
	if f.resolved {
		v := f.val
		k.mu.Unlock()
		return v, nil
	}
	if k.stopped {
		k.mu.Unlock()
		return nil, core.ErrStopped
	}
	w := make(chan awaitResult, 1)
	f.waiter = w
	if timeout > 0 {
		ev := k.push(k.now+timeout, kindTimeout)
		ev.f = f
		ev.w = w
	}
	k.block()
	k.mu.Unlock()
	select {
	case r := <-w:
		return r.val, r.err
	case <-k.stopCh:
		return nil, core.ErrStopped
	}
}

package network

import (
	"container/heap"
	"encoding/gob"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// RealEnv implements Env on the wall clock with ordinary goroutines. It
// backs the TCP deployment (the paper's cluster experiments).
type RealEnv struct {
	start time.Time
	seed  int64

	mu     sync.Mutex
	closed bool
	done   chan struct{}

	timers timerQueue
}

// NewRealEnv returns an Env bound to the wall clock. The seed makes the
// Rand streams reproducible; pass 0 to derive one from the clock.
func NewRealEnv(seed int64) *RealEnv {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &RealEnv{start: time.Now(), seed: seed, done: make(chan struct{})}
}

// Now implements Env.
func (e *RealEnv) Now() time.Duration { return time.Since(e.start) }

// Sleep implements Env; it wakes early with core.ErrStopped if the
// environment is closed.
func (e *RealEnv) Sleep(d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-e.done:
		return core.ErrStopped
	}
}

// Go implements Env.
func (e *RealEnv) Go(fn func()) { go fn() }

// Join implements Env: the last goroutine to finish closes the channel
// the caller waits on.
func (e *RealEnv) Join(n int, run func(i int)) error {
	if n == 0 {
		return nil
	}
	var left atomic.Int32
	left.Store(int32(n))
	joined := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			run(i)
			if left.Add(-1) == 0 {
				close(joined)
			}
		}()
	}
	select {
	case <-joined:
		return nil
	case <-e.done:
		return core.ErrStopped
	}
}

// After implements Env. Its timers share one runtime timer (timerQueue).
func (e *RealEnv) After(d time.Duration, fn func()) Canceler {
	now := time.Now()
	r := &realTimer{q: &e.timers, at: now.Add(d), fn: fn, done: e.done}
	e.timers.add(r, now)
	return r
}

// Rand implements Env.
func (e *RealEnv) Rand(label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
}

// Close releases sleepers. Safe to call more than once.
func (e *RealEnv) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.done)
	}
}

// timerQueue runs a RealEnv's After callbacks off one runtime timer.
// A runtime timer armed per After would cost more than the work it
// guards on a loopback ring, where nearly every one is cancelled within
// microseconds: arming the earliest timer of a processor wakes a parked
// thread to watch it. The queue re-arms its runtime timer only for an
// entry due before the time it is set for, and a cancel leaves it set,
// so a stream of short-lived timers re-arms it about once per delay.
// Invariant: while entries are queued, wake is set for no later than the
// earliest of them.
type timerQueue struct {
	mu     sync.Mutex
	h      []*realTimer // min-heap on at
	wake   *time.Timer  // nil until first armed
	wakeAt time.Time    // zero while wake is not set
}

func (q *timerQueue) Len() int           { return len(q.h) }
func (q *timerQueue) Less(i, j int) bool { return q.h[i].at.Before(q.h[j].at) }
func (q *timerQueue) Swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.h[i].index, q.h[j].index = i, j
}
func (q *timerQueue) Push(x any) {
	r := x.(*realTimer)
	r.index = len(q.h)
	q.h = append(q.h, r)
}
func (q *timerQueue) Pop() any {
	n := len(q.h) - 1
	r := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	r.index = -1
	return r
}

func (q *timerQueue) add(r *realTimer, now time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	heap.Push(q, r)
	if q.wakeAt.IsZero() || r.at.Before(q.wakeAt) {
		q.arm(r.at, now)
	}
}

// arm sets the runtime timer for at; caller holds q.mu.
func (q *timerQueue) arm(at, now time.Time) {
	if q.wake == nil {
		q.wake = time.AfterFunc(at.Sub(now), q.fire)
	} else {
		q.wake.Reset(at.Sub(now))
	}
	q.wakeAt = at
}

// fire starts every due entry as an activity of its own and re-arms for
// the next.
func (q *timerQueue) fire() {
	now := time.Now()
	q.mu.Lock()
	var due []*realTimer
	for len(q.h) > 0 && !q.h[0].at.After(now) {
		due = append(due, heap.Pop(q).(*realTimer))
	}
	q.wakeAt = time.Time{}
	if len(q.h) > 0 {
		q.arm(q.h[0].at, now)
	}
	q.mu.Unlock()
	for _, r := range due {
		go r.run()
	}
}

// realTimer is After's handle; q.mu guards its state. A timer that is
// cancelled, or whose fn ends before anyone waits, never makes a
// channel: only a Wait that finds fn still to finish does.
type realTimer struct {
	q     *timerQueue
	at    time.Time
	fn    func()
	done  <-chan struct{} // the environment's
	index int             // in q.h; -1 once popped or removed

	finished bool          // fn returned, or never will
	waiter   chan struct{} // closed when fn returns
}

func (r *realTimer) run() {
	r.fn()
	r.q.mu.Lock()
	r.finished = true
	if r.waiter != nil {
		close(r.waiter)
	}
	r.q.mu.Unlock()
}

func (r *realTimer) Cancel() bool {
	q := r.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if r.index < 0 {
		return false
	}
	heap.Remove(q, r.index)
	r.finished = true
	return true
}

func (r *realTimer) Wait() error {
	q := r.q
	q.mu.Lock()
	if r.finished {
		q.mu.Unlock()
		return nil
	}
	if r.waiter == nil {
		r.waiter = make(chan struct{})
	}
	w := r.waiter
	q.mu.Unlock()
	select {
	case <-w:
		return nil
	case <-r.done:
		return core.ErrStopped
	}
}

// RegisterMessage compiles the wire codec of each message type (see
// codec.go) for the TCP transport and the store's log records. It is idempotent per concrete type and
// safe to call from init functions in several packages; it panics, at
// init, on a type the codec cannot carry or on a %T name another type
// already holds.
func RegisterMessage(values ...Message) {
	for _, v := range values {
		if registerWire(v) {
			// No transport uses gob; benchmarks/probes.go still times
			// gob on registered messages.
			gob.Register(v)
		}
	}
}

package network

import (
	"encoding/gob"
	"fmt"
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

// After implements Env.
func (e *RealEnv) After(d time.Duration, fn func()) Canceler {
	return &realTimer{t: time.AfterFunc(d, fn)}
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

type realTimer struct{ t *time.Timer }

func (r *realTimer) Cancel() bool { return r.t.Stop() }

var (
	gobMu         sync.Mutex
	gobRegistered = map[string]bool{}
)

// RegisterMessage registers message types with encoding/gob for the TCP
// transport. It is idempotent per concrete type and safe to call from
// init functions in several packages.
func RegisterMessage(values ...Message) {
	gobMu.Lock()
	defer gobMu.Unlock()
	for _, v := range values {
		name := fmt.Sprintf("%T", v)
		if gobRegistered[name] {
			continue
		}
		gobRegistered[name] = true
		gob.Register(v)
	}
}

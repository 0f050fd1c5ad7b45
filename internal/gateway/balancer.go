package gateway

import (
	"sync"
	"time"
)

// A backend that fails cooldownAfter calls in a row is benched for
// cooldown before the scan considers it healthy again.
const (
	cooldownAfter = 3
	cooldown      = 2 * time.Second
)

// slot is the balancer's per-backend health and load record.
type slot struct {
	inflight  int
	consecErr int
	coolUntil time.Duration
}

// balancer spreads operations over the backend pool: round-robin to
// rotate the scan start (so equal-load backends share work), then
// least-inflight among healthy slots. A backend accumulating
// consecutive errors is put on cooldown and skipped until the clock
// passes coolUntil — unless every slot is cooling, in which case the
// least-loaded one is used anyway (a gateway with no healthy backends
// should degrade, not refuse).
type balancer struct {
	now func() time.Duration

	mu    sync.Mutex
	slots []slot
	next  int
}

func newBalancer(n int, now func() time.Duration) *balancer {
	return &balancer{now: now, slots: make([]slot, n)}
}

// acquire picks a backend index and charges one inflight op to it.
// Every acquire must be paired with a release.
func (b *balancer) acquire() int {
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	start := b.next
	b.next = (b.next + 1) % len(b.slots)
	best, bestAny := -1, start
	for off := 0; off < len(b.slots); off++ {
		i := (start + off) % len(b.slots)
		if b.slots[i].inflight < b.slots[bestAny].inflight {
			bestAny = i
		}
		if b.slots[i].coolUntil > now {
			continue
		}
		if best < 0 || b.slots[i].inflight < b.slots[best].inflight {
			best = i
		}
	}
	if best < 0 {
		best = bestAny
	}
	b.slots[best].inflight++
	return best
}

// release returns the inflight charge taken by acquire and folds the
// call's outcome into the slot's health: success resets the error run,
// failure extends it and benches the slot once it reaches the limit.
func (b *balancer) release(i int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &b.slots[i]
	s.inflight--
	if err == nil {
		s.consecErr = 0
		return
	}
	s.consecErr++
	if s.consecErr >= cooldownAfter {
		s.coolUntil = b.now() + cooldown
		s.consecErr = 0
	}
}

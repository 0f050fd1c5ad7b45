package kts

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/obs"
)

// stubRing is the minimal dht.Ring for exercising the client-side cache
// without an overlay: real wall-clock environment, no lookups.
type stubRing struct{ env network.Env }

func (r stubRing) Self() dht.NodeRef { return dht.NodeRef{} }
func (r stubRing) Lookup(ctx context.Context, id core.ID) (dht.NodeRef, int, error) {
	return dht.NodeRef{}, 0, context.Canceled
}
func (r stubRing) Endpoint() network.Endpoint { return nil }
func (r stubRing) Env() network.Env           { return r.env }
func (r stubRing) OwnsID(id core.ID) bool     { return false }
func (r stubRing) Alive() bool                { return true }
func (r stubRing) Obs() *obs.Registry         { return nil }
func (r stubRing) Guess(core.ID) (dht.NodeRef, dht.GuessSource) {
	return dht.NodeRef{}, dht.NoGuess
}
func (r stubRing) GuessMissed(dht.NodeRef) {}

// TestLastTSCacheRaceHammer drives the last-ts cache from many
// goroutines at once — the TCP-transport shape, where concurrent client
// calls note observations while bounded reads consult them. Run under
// -race this is the memory-safety check; the assertions pin the cache's
// two semantic invariants: newest-wins (a reader never sees a timestamp
// older than one already noted for its key before its consult began)
// and non-negative ages.
func TestLastTSCacheRaceHammer(t *testing.T) {
	env := network.NewRealEnv(1)
	defer env.Close()
	s := &Service{ring: stubRing{env: env}, cfg: Config{}.withDefaults(), metrics: newKTSMetrics(nil)}

	const writers, readers, keys, rounds = 8, 8, 4, 400
	keyOf := func(i int) core.Key { return core.Key([]byte{'k', byte('0' + i%keys)}) }

	// floors[k] is a monotone lower bound on what has been noted for k:
	// writers publish it AFTER the note has landed, so any consult that
	// starts after reading a floor must see at least that timestamp.
	var floorMu sync.Mutex
	floors := map[core.Key]core.Timestamp{}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := keyOf(w + i)
				ts := core.TS(uint64(i*writers + w + 1))
				s.noteLastTS(k, ts)
				floorMu.Lock()
				if floors[k].Less(ts) {
					floors[k] = ts
				}
				floorMu.Unlock()
				// Stale and zero observations must never regress the entry.
				s.noteLastTS(k, core.TS(1))
				s.noteLastTS(k, core.TSZero)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := keyOf(r + i)
				floorMu.Lock()
				floor := floors[k]
				floorMu.Unlock()
				ts, age, ok := s.Cached(k)
				if !ok {
					if !floor.IsZero() {
						t.Errorf("key %s: no cache entry after %v was noted", k, floor)
					}
					continue
				}
				if ts.Less(floor) {
					t.Errorf("key %s: cached %v regressed below noted %v — newest-wins broken", k, ts, floor)
				}
				if age < 0 {
					t.Errorf("key %s: negative age %v", k, age)
				}
			}
		}(r)
	}
	wg.Wait()

	// Quiesced: every key holds exactly its final floor, and ages only
	// grow between consecutive consults of an unchanged entry.
	for i := 0; i < keys; i++ {
		k := keyOf(i)
		ts, age1, ok := s.Cached(k)
		if !ok || ts != floors[k] {
			t.Errorf("key %s: final cached = %v ok=%v, want %v", k, ts, ok, floors[k])
		}
		time.Sleep(2 * time.Millisecond)
		if _, age2, _ := s.Cached(k); age2 < age1 {
			t.Errorf("key %s: age went backwards %v → %v", k, age1, age2)
		}
	}
	if s.CacheHits() == 0 {
		t.Error("hammer produced zero cache hits")
	}
}

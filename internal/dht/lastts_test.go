package dht

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// TestLastTSCacheSemantics pins the rules both tiers rely on: zero
// timestamps are ignored, an older observation never overwrites a newer
// one, an equal one refreshes the age, a newer one wins.
func TestLastTSCacheSemantics(t *testing.T) {
	var c LastTSCache
	now := time.Duration(0)
	clock := func() time.Duration { return now }
	k := core.Key("k")

	c.Note(k, core.TSZero, now) // ignored
	if _, _, ok := c.Get(k, clock); ok || c.Len() != 0 {
		t.Fatalf("zero timestamp was cached")
	}
	c.Note(k, core.TS(5), now)
	now = 10 * time.Millisecond
	c.Note(k, core.TS(3), now) // older: ignored
	ts, age, ok := c.Get(k, clock)
	if !ok || ts != core.TS(5) || age != 10*time.Millisecond {
		t.Fatalf("Get = %v age %v ok %v, want ts 5 age 10ms", ts, age, ok)
	}
	c.Note(k, core.TS(5), now) // equal: refreshes age
	if ts, age, _ = c.Get(k, clock); ts != core.TS(5) || age != 0 {
		t.Fatalf("equal-ts re-confirm: ts %v age %v, want ts 5 age 0", ts, age)
	}
	c.Note(k, core.TS(9), now) // newer wins
	if ts, _, _ := c.Get(k, clock); ts != core.TS(9) {
		t.Fatalf("newer ts lost: %v", ts)
	}
	c.Note("other", core.TS(1), now)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestLastTSCacheReadsClockAfterEntry: a Note that lands between Get's
// read of the entry and its read of the clock — here, the clock itself
// notes a newer entry the moment it is read — leaves Get with the entry
// it read and a non-negative age.
func TestLastTSCacheReadsClockAfterEntry(t *testing.T) {
	var c LastTSCache
	k := core.Key("k")
	c.Note(k, core.TS(1), 10*time.Millisecond)
	racing := func() time.Duration {
		c.Note(k, core.TS(2), 30*time.Millisecond)
		return 20 * time.Millisecond
	}
	ts, age, ok := c.Get(k, racing)
	if !ok || ts != core.TS(1) || age != 10*time.Millisecond {
		t.Fatalf("Get = %v age %v ok %v, want the entry read first (ts 1) aged 10ms", ts, age, ok)
	}
	// A time noted ahead of the clock reads as age zero, never negative.
	if _, age, _ := c.Get(k, func() time.Duration { return 0 }); age != 0 {
		t.Fatalf("age %v for an entry noted ahead of the clock, want 0", age)
	}
}

// TestLastTSCacheAtCap fills the cache to lastTSCap and pins the
// eviction rule: re-noting a present key, newer or equal, evicts
// nothing, and a genuinely new key evicts exactly one so the cache stays
// at its cap.
func TestLastTSCacheAtCap(t *testing.T) {
	var c LastTSCache
	key := func(i int) core.Key { return core.Key(fmt.Sprintf("k%d", i)) }
	for i := 0; i < lastTSCap; i++ {
		c.Note(key(i), core.TS(1), 0)
	}
	if c.Len() != lastTSCap {
		t.Fatalf("Len = %d after filling, want %d", c.Len(), lastTSCap)
	}
	clock := func() time.Duration { return time.Second }
	for i := 0; i < 64; i++ {
		c.Note(key(i), core.TS(1), time.Second) // equal: refresh
		c.Note(key(i+64), core.TS(2), 0)        // newer
	}
	for i := 0; i < 128; i++ {
		if _, _, ok := c.Get(key(i), clock); !ok {
			t.Fatalf("re-noting present keys evicted %s", key(i))
		}
	}
	if c.Len() != lastTSCap {
		t.Fatalf("Len = %d after re-notes, want %d", c.Len(), lastTSCap)
	}
	c.Note("new", core.TS(1), 0)
	if c.Len() != lastTSCap {
		t.Fatalf("Len = %d after a new key, want %d", c.Len(), lastTSCap)
	}
	if _, _, ok := c.Get("new", clock); !ok {
		t.Fatal("the new key was not cached")
	}
}

package kts

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
)

// TestLastTSCacheObservesClientCalls: the issuing service caches the
// answers of its own gen_ts/last_ts calls, with ages that grow with
// environment time and reset on re-confirmation.
func TestLastTSCacheObservesClientCalls(t *testing.T) {
	c := newCluster(t, 1, 8, Config{})
	c.settle(3 * time.Second)

	issuer := c.svc()
	if _, _, ok := issuer.Cached("k"); ok {
		t.Fatal("cache hit before any call")
	}

	var ts1 core.Timestamp
	c.do(func() {
		var err error
		if ts1, err = issuer.GenTS(context.Background(), "k"); err != nil {
			t.Errorf("gen_ts: %v", err)
		}
	})
	cts, age, ok := issuer.Cached("k")
	if !ok || cts != ts1 {
		t.Fatalf("cached = %v ok=%v, want the generated %v", cts, ok, ts1)
	}
	if age < 0 {
		t.Fatalf("negative age %v", age)
	}

	// Age grows with (virtual) time...
	c.settle(10 * time.Second)
	_, age2, _ := issuer.Cached("k")
	if age2 < 10*time.Second {
		t.Fatalf("age %v did not grow across 10s", age2)
	}
	// ...and a fresh authoritative answer resets it, even when the
	// timestamp itself is unchanged (the authority re-confirmed it).
	c.do(func() {
		if _, err := issuer.LastTS(context.Background(), "k"); err != nil {
			t.Errorf("last_ts: %v", err)
		}
	})
	cts, age3, ok := issuer.Cached("k")
	if !ok || cts != ts1 || age3 >= age2 {
		t.Fatalf("after re-confirmation: ts=%v age=%v (was %v), want same ts with a reset age", cts, age3, age2)
	}

	if issuer.cacheHits.Load() == 0 {
		t.Fatal("cache hits not counted")
	}
}

// TestLastTSCacheNeverMovesBackwards: an older observation cannot
// overwrite a newer cached timestamp.
func TestLastTSCacheNeverMovesBackwards(t *testing.T) {
	c := newCluster(t, 2, 8, Config{})
	c.settle(3 * time.Second)
	issuer := c.svc()

	issuer.noteLastTS("k", core.TS(5))
	issuer.noteLastTS("k", core.TS(3)) // stale observation: ignored
	if cts, _, _ := issuer.Cached("k"); cts != core.TS(5) {
		t.Fatalf("cache moved backwards to %v", cts)
	}
	issuer.noteLastTS("k", core.TS(9))
	if cts, _, _ := issuer.Cached("k"); cts != core.TS(9) {
		t.Fatalf("cache did not advance: %v", cts)
	}
	// A zero timestamp (never stamped) is not worth caching.
	issuer.noteLastTS("fresh", core.TSZero)
	if _, _, ok := issuer.Cached("fresh"); ok {
		t.Fatal("zero timestamp was cached")
	}
}

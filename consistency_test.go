package dcdht

import (
	"context"
	"testing"
	"time"

	"repro/internal/dht"
)

// TestLastTSTakesOptions: LastTS accepts the variadic options like
// every other Client operation — WithIssuer pins the asking peer under
// simulation, and the relaxed consistency levels may serve the answer
// from the issuer's cache without a network hop.
func TestLastTSTakesOptions(t *testing.T) {
	net := NewSimNetwork(24, SimConfig{Replicas: 5, Seed: 8})
	defer net.Close()
	ctx := context.Background()

	ins, err := net.Put(ctx, "k", []byte("v1"), WithIssuer(4))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	ts, err := net.LastTS(ctx, "k", WithIssuer(2))
	if err != nil {
		t.Fatalf("last_ts: %v", err)
	}
	if ts != ins.TS {
		t.Fatalf("last_ts = %v, want the insert's %v", ts, ins.TS)
	}
	// The writer's own cache serves a bounded last_ts with no hop: the
	// answer matches the authoritative one.
	cached, err := net.LastTS(ctx, "k", WithIssuer(4), WithConsistency(Bounded(time.Hour)))
	if err != nil {
		t.Fatalf("bounded last_ts: %v", err)
	}
	if cached != ins.TS {
		t.Fatalf("cached last_ts = %v, want %v", cached, ins.TS)
	}
}

// TestConsistencyLevelsThroughClient: the three levels work through the
// public Client surface with the verdicts they advertise.
func TestConsistencyLevelsThroughClient(t *testing.T) {
	net := NewSimNetwork(32, SimConfig{Replicas: 5, Seed: 21})
	defer net.Close()
	ctx := context.Background()

	if _, err := net.Put(ctx, "doc", []byte("v1"), WithIssuer(1)); err != nil {
		t.Fatalf("put: %v", err)
	}

	// Compare the costs of the two levels from one issuer, chosen so
	// that the KTS round trip the Current read pays is a real one: the
	// issuer neither is rsp(doc, hts) nor can name it from its own
	// routing state.
	hts := net.d.Set.HTS.ID("doc")
	issuer := -1
	for i, p := range net.d.LivePeers() {
		if _, src := p.Node.Guess(hts); src == dht.NoGuess && !p.Node.OwnsID(hts) {
			issuer = i
			break
		}
	}
	if issuer < 0 {
		t.Fatal("no peer is more than a guess away from rsp(doc, hts)")
	}

	cur, err := net.Get(ctx, "doc", WithIssuer(issuer))
	if err != nil {
		t.Fatalf("current get: %v", err)
	}
	if cur.Currency != CurrencyProven || !cur.Current() {
		t.Fatalf("current verdict = %v", cur.Currency)
	}

	ev, err := net.Get(ctx, "doc", WithIssuer(issuer), WithConsistency(Eventual))
	if err != nil {
		t.Fatalf("eventual get: %v", err)
	}
	if ev.Currency != CurrencyUnknown || ev.Current() {
		t.Fatalf("eventual verdict = %v", ev.Currency)
	}
	if string(ev.Data) != "v1" {
		t.Fatalf("eventual data = %q", ev.Data)
	}
	if ev.Msgs >= cur.Msgs {
		t.Fatalf("eventual cost %d msgs >= current %d", ev.Msgs, cur.Msgs)
	}

	// Bounded from the writer's peer: the cache satisfies the read.
	bd, err := net.Get(ctx, "doc", WithIssuer(1), WithConsistency(Bounded(time.Hour)))
	if err != nil {
		t.Fatalf("bounded get: %v", err)
	}
	if bd.Currency != CurrencyWithinBound {
		t.Fatalf("bounded verdict = %v, want within-bound", bd.Currency)
	}
	if bd.Floor.IsZero() {
		t.Fatal("bounded result carries no floor evidence")
	}
}

// TestSessionReadYourWrites: a session read after a session write is
// satisfied from the floor — one probe, zero KTS messages, verdict
// SessionFloor — and always returns the write (or newer).
func TestSessionReadYourWrites(t *testing.T) {
	net := NewSimNetwork(32, SimConfig{Replicas: 5, Seed: 23})
	defer net.Close()
	ctx := context.Background()

	s := net.NewSession(WithIssuer(2))
	w, err := s.Put(ctx, "profile", []byte("v1"))
	if err != nil {
		t.Fatalf("session put: %v", err)
	}
	if f, ok := s.Floor("profile"); !ok || f != w.TS {
		t.Fatalf("floor = %v ok=%v, want the write's %v", f, ok, w.TS)
	}

	r, err := s.Get(ctx, "profile")
	if err != nil {
		t.Fatalf("session get: %v", err)
	}
	if r.TS.Less(w.TS) {
		t.Fatalf("read-your-writes violated: read %v < write %v", r.TS, w.TS)
	}
	if r.Currency != CurrencySessionFloor {
		t.Fatalf("session verdict = %v, want session-floor", r.Currency)
	}

	// The fast path is actually cheap: compare to a provably-current
	// read of the same key from the same issuer.
	cur, err := net.Get(ctx, "profile", WithIssuer(2))
	if err != nil {
		t.Fatalf("current get: %v", err)
	}
	if r.Msgs >= cur.Msgs {
		t.Fatalf("session read cost %d msgs >= current %d — the KTS round trip was not skipped", r.Msgs, cur.Msgs)
	}

	// An explicit level through the session still enforces the floor
	// below: eventual cannot return anything older than the write.
	ev, err := s.Get(ctx, "profile", WithConsistency(Eventual))
	if err != nil {
		t.Fatalf("session eventual get: %v", err)
	}
	if ev.TS.Less(w.TS) {
		t.Fatalf("session eventual read %v below floor %v", ev.TS, w.TS)
	}

	// A session over a key it never touched falls back to the full
	// provably-current path.
	if _, err := net.Put(ctx, "other", []byte("x")); err != nil {
		t.Fatalf("put other: %v", err)
	}
	o, err := s.Get(ctx, "other")
	if err != nil {
		t.Fatalf("session get other: %v", err)
	}
	if o.Currency != CurrencyProven {
		t.Fatalf("first-touch verdict = %v, want proven", o.Currency)
	}
}

// TestSessionMonotonicReads: session floors never move backwards, so
// two successive session reads can never travel back in time even when
// the second one lands on a staler replica set.
func TestSessionMonotonicReads(t *testing.T) {
	net := NewSimNetwork(32, SimConfig{Replicas: 5, Seed: 29})
	defer net.Close()
	ctx := context.Background()

	// Another writer updates the key; the session observes it on read.
	if _, err := net.Put(ctx, "feed", []byte("v1")); err != nil {
		t.Fatalf("put v1: %v", err)
	}
	s := net.NewSession()
	r1, err := s.Get(ctx, "feed")
	if err != nil {
		t.Fatalf("get 1: %v", err)
	}
	if _, err := net.Put(ctx, "feed", []byte("v2")); err != nil {
		t.Fatalf("put v2: %v", err)
	}
	r2, err := s.Get(ctx, "feed", WithConsistency(Current))
	if err != nil {
		t.Fatalf("get 2: %v", err)
	}
	if r2.TS.Less(r1.TS) {
		t.Fatalf("monotonic reads violated: %v after %v", r2.TS, r1.TS)
	}
	r3, err := s.Get(ctx, "feed")
	if err != nil {
		t.Fatalf("get 3: %v", err)
	}
	if r3.TS.Less(r2.TS) {
		t.Fatalf("monotonic reads violated: %v after %v", r3.TS, r2.TS)
	}
}

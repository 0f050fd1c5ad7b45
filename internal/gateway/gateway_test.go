package gateway

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/simnet"
)

// ---- fakes --------------------------------------------------------------

// fakeStore is the shared "ring state" behind every fake backend: one
// timestamped value per key, with a monotonic grant counter standing in
// for KTS.
type fakeStore struct {
	mu    sync.Mutex
	next  uint64
	ts    map[core.Key]core.Timestamp
	data  map[core.Key][]byte
	gets  int
	puts  int
	lasts int
	// pols records the policy of every Retrieve that reached a
	// backend, in arrival order.
	pols []dht.ReadPolicy
}

func newFakeStore() *fakeStore {
	return &fakeStore{ts: make(map[core.Key]core.Timestamp), data: make(map[core.Key][]byte)}
}

// fakeBackend serves reads from a snapshot taken at arrival time and
// then sleeps lat — modelling a retrieve that probes replicas before a
// racing write lands. That snapshot ordering is what the coalescing
// floor check must defend against.
type fakeBackend struct {
	env network.Env
	lat time.Duration
	st  *fakeStore
}

func (b *fakeBackend) Insert(_ context.Context, k core.Key, data []byte) (dht.OpResult, error) {
	b.st.mu.Lock()
	b.st.puts++
	b.st.next++
	ts := core.TS(b.st.next)
	b.st.ts[k] = ts
	b.st.data[k] = data
	b.st.mu.Unlock()
	if err := b.env.Sleep(b.lat / 4); err != nil {
		return dht.OpResult{}, err
	}
	return dht.OpResult{TS: ts, Stored: 1, Currency: dht.CurrencyProven, Floor: ts}, nil
}

func (b *fakeBackend) Retrieve(_ context.Context, k core.Key, pol dht.ReadPolicy) (dht.OpResult, error) {
	b.st.mu.Lock()
	b.st.gets++
	b.st.pols = append(b.st.pols, pol)
	ts, data := b.st.ts[k], b.st.data[k]
	b.st.mu.Unlock()
	if err := b.env.Sleep(b.lat); err != nil {
		return dht.OpResult{}, err
	}
	res := dht.OpResult{Data: data, TS: ts, Retrieved: 1}
	switch {
	case pol.FloorFirst && !pol.Floor.IsZero():
		if ts.Less(pol.Floor) {
			return dht.OpResult{}, core.ErrNoCurrentReplica
		}
		res.Currency, res.Floor = dht.CurrencySessionFloor, pol.Floor
	case pol.Level == dht.LevelEventual:
		res.Currency = dht.CurrencyUnknown
	default:
		// Current and authoritative-bounded reads prove currency.
		res.Currency, res.Floor = dht.CurrencyProven, ts
	}
	return res, nil
}

func (b *fakeBackend) LastTS(_ context.Context, k core.Key) (core.Timestamp, error) {
	b.st.mu.Lock()
	b.st.lasts++
	ts := b.st.ts[k]
	b.st.mu.Unlock()
	if err := b.env.Sleep(b.lat / 4); err != nil {
		return core.TSZero, err
	}
	return ts, nil
}

// runSim executes fn as a kernel process and drives the kernel to
// idleness. Assertions inside fn must use t.Errorf (never Fatal — fn
// does not run on the test goroutine).
func runSim(seed int64, fn func(env network.Env)) {
	k := simnet.New(seed)
	env := simwire.Env(k)
	k.Go(func() { fn(env) })
	k.RunUntilIdle()
}

func newSimGateway(env network.Env, backends, latMS int) (*Gateway, *fakeStore) {
	st := newFakeStore()
	pool := make([]Backend, backends)
	for i := range pool {
		pool[i] = &fakeBackend{env: env, lat: time.Duration(latMS) * time.Millisecond, st: st}
	}
	g, err := New(pool, Config{Env: env})
	if err != nil {
		panic(err)
	}
	return g, st
}

// ---- balancer -----------------------------------------------------------

func TestBalancerRoundRobinAndLeastInflight(t *testing.T) {
	now := time.Duration(0)
	b := newBalancer(3, func() time.Duration { return now }, 0, 0)
	// Empty pool: rotation should visit all three slots.
	seen := map[int]bool{}
	var held []int
	for i := 0; i < 3; i++ {
		j := b.acquire()
		seen[j] = true
		held = append(held, j)
	}
	if len(seen) != 3 {
		t.Fatalf("rotation visited %d distinct slots, want 3", len(seen))
	}
	// Release one slot; it is now least-inflight and must be chosen.
	b.release(held[1], nil)
	if got := b.acquire(); got != held[1] {
		t.Fatalf("least-inflight pick = %d, want %d", got, held[1])
	}
}

func TestBalancerCooldown(t *testing.T) {
	now := time.Duration(0)
	b := newBalancer(2, func() time.Duration { return now }, 2, time.Second)
	// Fail slot 0 twice in a row: it goes on cooldown.
	for i := 0; i < 2; i++ {
		j := 0
		b.slots[j].inflight++ // simulate acquire of slot 0 specifically
		b.release(j, fmt.Errorf("boom"))
	}
	for i := 0; i < 4; i++ {
		j := b.acquire()
		if j == 0 {
			t.Fatalf("acquired cooling slot 0 while slot 1 healthy")
		}
		b.release(j, nil)
	}
	// After the cooldown passes, slot 0 is eligible again.
	now = 2 * time.Second
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		j := b.acquire()
		seen[j] = true
	}
	if !seen[0] {
		t.Fatalf("slot 0 not reused after cooldown expiry")
	}
}

func TestBalancerAllCoolingStillServes(t *testing.T) {
	now := time.Duration(0)
	b := newBalancer(2, func() time.Duration { return now }, 1, time.Minute)
	for j := 0; j < 2; j++ {
		b.slots[j].inflight++
		b.release(j, fmt.Errorf("down"))
	}
	// Both benched: acquire must still hand out a slot.
	j := b.acquire()
	if j != 0 && j != 1 {
		t.Fatalf("acquire returned %d", j)
	}
}

// ---- cache --------------------------------------------------------------

func TestTSCacheSemantics(t *testing.T) {
	now := time.Duration(0)
	c := newTSCache(func() time.Duration { return now })
	k := core.Key("k")

	c.note(k, core.TSZero) // ignored
	if _, _, ok := c.cached(k); ok {
		t.Fatalf("zero timestamp was cached")
	}
	c.note(k, core.TS(5))
	now = 10 * time.Millisecond
	c.note(k, core.TS(3)) // older: ignored
	ts, age, ok := c.cached(k)
	if !ok || ts != core.TS(5) || age != 10*time.Millisecond {
		t.Fatalf("cached = %v age %v ok %v, want ts 5 age 10ms", ts, age, ok)
	}
	c.note(k, core.TS(5)) // equal: refreshes age
	ts, age, _ = c.cached(k)
	if ts != core.TS(5) || age != 0 {
		t.Fatalf("equal-ts re-confirm: ts %v age %v, want ts 5 age 0", ts, age)
	}
	c.note(k, core.TS(9)) // newer wins
	if ts, _, _ := c.cached(k); ts != core.TS(9) {
		t.Fatalf("newer ts lost: %v", ts)
	}
}

// ---- coalescing ---------------------------------------------------------

// TestCoalescingHotKey is the deterministic heart of the tentpole: N
// concurrent same-key current-level readers must cost one backend op,
// and every reader sees the identical result.
func TestCoalescingHotKey(t *testing.T) {
	const readers = 16
	runSim(1, func(env network.Env) {
		g, st := newSimGateway(env, 3, 20)
		ctx := context.Background()
		if _, err := g.Insert(ctx, "hot", []byte("v1")); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		preGets := func() int { st.mu.Lock(); defer st.mu.Unlock(); return st.gets }()
		results := make([]dht.OpResult, readers)
		env.Join(readers, func(i int) {
			res, err := g.Retrieve(ctx, "hot", dht.ReadPolicy{Level: dht.LevelCurrent})
			if err != nil {
				t.Errorf("reader %d: %v", i, err)
			}
			results[i] = res
		})
		st.mu.Lock()
		gets := st.gets - preGets
		st.mu.Unlock()
		if gets != 1 {
			t.Errorf("backend gets = %d, want 1 (coalesced)", gets)
		}
		for i, r := range results {
			if string(r.Data) != "v1" || r.Currency != dht.CurrencyProven {
				t.Errorf("reader %d got %q currency %v", i, r.Data, r.Currency)
			}
		}
		s := g.Stats()
		if s.Flights != 1 || s.Coalesced != readers-1 {
			t.Errorf("stats flights=%d coalesced=%d, want 1 and %d", s.Flights, s.Coalesced, readers-1)
		}
	})
}

// TestCoalescingWriteRacingFlight pins the session-floor guarantee: a
// reader whose floor rose past an in-progress flight's snapshot must
// NOT be served the pre-write value.
func TestCoalescingWriteRacingFlight(t *testing.T) {
	runSim(2, func(env network.Env) {
		g, st := newSimGateway(env, 2, 50)
		ctx := context.Background()
		put1, err := g.Insert(ctx, "k", []byte("old"))
		if err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		var raceRes dht.OpResult
		var raceErr error
		env.Join(2, func(i int) {
			switch i {
			case 0:
				// Session A: floor from the first write; its read
				// snapshots "old" and holds the flight open for 50ms.
				g.Retrieve(ctx, "k", dht.ReadPolicy{Floor: put1.TS, FloorFirst: true})
			case 1:
				// Session B: sleeps into A's flight window, writes,
				// then reads with its new floor.
				env.Sleep(10 * time.Millisecond)
				put2, err := g.Insert(ctx, "k", []byte("new"))
				if err != nil {
					t.Errorf("insert 2: %v", err)
					return
				}
				raceRes, raceErr = g.Retrieve(ctx, "k", dht.ReadPolicy{Floor: put2.TS, FloorFirst: true})
			}
		})
		if raceErr != nil {
			t.Errorf("racing read: %v", raceErr)
		}
		if string(raceRes.Data) != "new" {
			t.Errorf("racing read returned %q — lost the write", raceRes.Data)
		}
		s := g.Stats()
		if s.FlightRetries != 1 {
			t.Errorf("flight retries = %d, want 1 (floor rejection)", s.FlightRetries)
		}
		st.mu.Lock()
		gets := st.gets
		st.mu.Unlock()
		if gets != 2 {
			t.Errorf("backend gets = %d, want 2 (flight + floor-forced re-read)", gets)
		}
	})
}

// TestCoalescingClassesDoNotMix: a current reader must never be served
// an eventual flight's result.
func TestCoalescingClassesDoNotMix(t *testing.T) {
	runSim(3, func(env network.Env) {
		g, st := newSimGateway(env, 2, 30)
		ctx := context.Background()
		g.Insert(ctx, "k", []byte("v"))
		var cur, ev dht.OpResult
		env.Join(2, func(i int) {
			if i == 0 {
				ev, _ = g.Retrieve(ctx, "k", dht.ReadPolicy{Level: dht.LevelEventual})
			} else {
				cur, _ = g.Retrieve(ctx, "k", dht.ReadPolicy{Level: dht.LevelCurrent})
			}
		})
		if ev.Currency == dht.CurrencyProven {
			t.Errorf("eventual read claims proven currency")
		}
		if cur.Currency != dht.CurrencyProven {
			t.Errorf("current read lost its proof: %v", cur.Currency)
		}
		st.mu.Lock()
		gets := st.gets
		st.mu.Unlock()
		if gets != 2 {
			t.Errorf("backend gets = %d, want 2 (separate flights per class)", gets)
		}
	})
}

// ---- bounded reads from the gateway cache -------------------------------

func TestBoundedServedFromGatewayCache(t *testing.T) {
	runSim(4, func(env network.Env) {
		g, st := newSimGateway(env, 2, 5)
		ctx := context.Background()
		put, err := g.Insert(ctx, "k", []byte("v"))
		if err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		bounded := dht.ReadPolicy{Level: dht.LevelBounded, Bound: time.Second}
		res, err := g.Retrieve(ctx, "k", bounded)
		if err != nil {
			t.Errorf("bounded get: %v", err)
			return
		}
		if res.Currency != dht.CurrencyWithinBound {
			t.Errorf("currency = %v, want WithinBound", res.Currency)
		}
		if res.Floor != put.TS {
			t.Errorf("floor = %v, want the cached put ts %v", res.Floor, put.TS)
		}
		st.mu.Lock()
		gotPol := st.pols[len(st.pols)-1]
		st.mu.Unlock()
		if !gotPol.FloorFirst || gotPol.Floor != put.TS {
			t.Errorf("backend saw policy %+v, want floor-first at the cached ts", gotPol)
		}
		s := g.Stats()
		if s.CacheServedGets != 1 || s.CacheHits != 1 {
			t.Errorf("stats = %+v, want one cache-served get", s)
		}

		// Let the entry age past the bound: the gateway must fall back
		// to the caller's authoritative bounded policy.
		env.Sleep(2 * time.Second)
		res, err = g.Retrieve(ctx, "k", bounded)
		if err != nil {
			t.Errorf("aged bounded get: %v", err)
			return
		}
		st.mu.Lock()
		gotPol = st.pols[len(st.pols)-1]
		st.mu.Unlock()
		if gotPol.FloorFirst || gotPol.Level != dht.LevelBounded {
			t.Errorf("aged entry: backend saw %+v, want the original bounded policy", gotPol)
		}
		if s := g.Stats(); s.CacheMisses != 1 {
			t.Errorf("cache misses = %d, want 1", s.CacheMisses)
		}
		// That authoritative (Proven) re-read re-primed the cache.
		if res.Currency != dht.CurrencyProven {
			t.Errorf("authoritative re-read currency = %v", res.Currency)
		}
		if _, _, ok := g.cache.cached("k"); !ok {
			t.Errorf("proven read did not re-prime the cache")
		}
	})
}

func TestEventualReadsPassThroughUnchanged(t *testing.T) {
	runSim(5, func(env network.Env) {
		g, st := newSimGateway(env, 2, 5)
		ctx := context.Background()
		g.Insert(ctx, "k", []byte("v"))
		res, err := g.Retrieve(ctx, "k", dht.ReadPolicy{Level: dht.LevelEventual})
		if err != nil {
			t.Errorf("eventual get: %v", err)
			return
		}
		if res.Currency != dht.CurrencyUnknown {
			t.Errorf("eventual read currency rewritten to %v", res.Currency)
		}
		st.mu.Lock()
		pol := st.pols[len(st.pols)-1]
		st.mu.Unlock()
		if pol.Level != dht.LevelEventual || pol.FloorFirst {
			t.Errorf("eventual policy mutated: %+v", pol)
		}
	})
}

// ---- last_ts ------------------------------------------------------------

func TestLastTSServedFromCache(t *testing.T) {
	runSim(6, func(env network.Env) {
		g, st := newSimGateway(env, 2, 5)
		ctx := context.Background()
		put, _ := g.Insert(ctx, "k", []byte("v"))

		// Eventual and in-bound Bounded: pure cache, zero backend ops.
		ts, err := g.LastTS(ctx, "k", dht.ReadPolicy{Level: dht.LevelEventual})
		if err != nil || ts != put.TS {
			t.Errorf("eventual last_ts = %v, %v; want %v", ts, err, put.TS)
		}
		ts, err = g.LastTS(ctx, "k", dht.ReadPolicy{Level: dht.LevelBounded, Bound: time.Minute})
		if err != nil || ts != put.TS {
			t.Errorf("bounded last_ts = %v, %v; want %v", ts, err, put.TS)
		}
		st.mu.Lock()
		lasts := st.lasts
		st.mu.Unlock()
		if lasts != 0 {
			t.Errorf("backend last_ts calls = %d, want 0 (cache-served)", lasts)
		}
		if s := g.Stats(); s.CacheServedLastTS != 2 {
			t.Errorf("cache-served last_ts = %d, want 2", s.CacheServedLastTS)
		}

		// Current level must always forward.
		if _, err := g.LastTS(ctx, "k", dht.ReadPolicy{}); err != nil {
			t.Errorf("current last_ts: %v", err)
		}
		st.mu.Lock()
		lasts = st.lasts
		st.mu.Unlock()
		if lasts != 1 {
			t.Errorf("backend last_ts calls = %d, want 1 after current-level ask", lasts)
		}
	})
}

// ---- batches ------------------------------------------------------------

func TestMultiOpsFanOut(t *testing.T) {
	runSim(7, func(env network.Env) {
		g, st := newSimGateway(env, 3, 10)
		ctx := context.Background()
		items := []Item{{"a", []byte("1")}, {"b", []byte("2")}, {"c", []byte("3")}}
		for i, r := range g.InsertMulti(ctx, items) {
			if r.Err != nil {
				t.Errorf("insert %d: %v", i, r.Err)
			}
		}
		// A batch with a duplicated hot key: the duplicates coalesce.
		keys := []core.Key{"a", "a", "a", "b"}
		out := g.RetrieveMulti(ctx, keys, dht.ReadPolicy{Level: dht.LevelCurrent})
		for i, r := range out {
			if r.Err != nil {
				t.Errorf("get %d: %v", i, r.Err)
				continue
			}
			want := "1"
			if keys[i] == "b" {
				want = "2"
			}
			if string(r.Res.Data) != want {
				t.Errorf("get %d = %q, want %q", i, r.Res.Data, want)
			}
		}
		st.mu.Lock()
		gets := st.gets
		st.mu.Unlock()
		if gets != 2 {
			t.Errorf("backend gets = %d, want 2 (3×a coalesced + b)", gets)
		}
	})
}

// ---- property test ------------------------------------------------------

// TestCoalescingPropertySim is the property-style acceptance test under
// deterministic simulation: W concurrent workers mix writes and
// session-floor reads over a small hot keyspace; every read must return
// a value at or above the reader's floor at issue time, and coalescing
// must actually fire. The same seed must reproduce the same schedule.
func TestCoalescingPropertySim(t *testing.T) {
	run := func(seed int64) (Stats, int) {
		var st *fakeStore
		var g *Gateway
		runSim(seed, func(env network.Env) {
			g, st = newSimGateway(env, 3, 15)
			ctx := context.Background()
			keys := []core.Key{"h0", "h1", "h2"}
			for _, k := range keys {
				g.Insert(ctx, k, []byte("seed"))
			}
			const workers, ops = 12, 40
			env.Join(workers, func(w int) {
				rng := env.Rand(fmt.Sprintf("worker-%d", w))
				floors := map[core.Key]core.Timestamp{}
				for i := 0; i < ops; i++ {
					k := keys[rng.Intn(len(keys))]
					if rng.Intn(5) == 0 {
						res, err := g.Insert(ctx, k, []byte(fmt.Sprintf("w%d-%d", w, i)))
						if err != nil {
							t.Errorf("w%d put: %v", w, err)
							continue
						}
						if res.TS.Less(floors[k]) {
							t.Errorf("w%d: put ts went backwards", w)
						}
						floors[k] = res.TS
					} else {
						floor := floors[k]
						res, err := g.Retrieve(ctx, k, dht.ReadPolicy{Floor: floor, FloorFirst: floor != core.TSZero})
						if err != nil {
							t.Errorf("w%d get %s: %v", w, k, err)
							continue
						}
						if res.TS.Less(floor) {
							t.Errorf("w%d: read %v staler than session floor %v", w, res.TS, floor)
						}
						if floor = res.TS.Max(floor); true {
							floors[k] = floor
						}
					}
					env.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
				}
			})
		})
		st.mu.Lock()
		gets := st.gets
		st.mu.Unlock()
		return g.Stats(), gets
	}
	s, gets := run(42)
	if s.Coalesced == 0 {
		t.Fatalf("property run never coalesced — schedule not exercising the flight path (stats %+v)", s)
	}
	if int(s.Flights+s.FlightRetries) != gets {
		t.Errorf("backend gets %d != flights %d + retries %d", gets, s.Flights, s.FlightRetries)
	}
	// Determinism: the same seed must replay to identical counters.
	s2, gets2 := run(42)
	if s != s2 || gets != gets2 {
		t.Errorf("same seed diverged: %+v/%d vs %+v/%d", s, gets, s2, gets2)
	}
	// And a different seed should (virtually always) differ somewhere.
	if s3, _ := run(43); s3 == s {
		t.Logf("note: seed 43 produced identical stats to seed 42 (possible but unlikely)")
	}
}

// ---- config validation --------------------------------------------------

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatalf("New with no backends succeeded")
	}
	if _, err := New([]Backend{&fakeBackend{}}, Config{}); err == nil {
		t.Fatalf("New without Env succeeded")
	}
}

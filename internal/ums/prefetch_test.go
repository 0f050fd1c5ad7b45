package ums_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/exp"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/ums"
)

// declinedGuesses reads dcdht_dht_guess_total{source="none",
// outcome="declined"} off a registry.
func declinedGuesses(reg *obs.Registry) uint64 {
	return reg.CounterVec("dcdht_dht_guess_total", "", "source", "outcome").With("none", "declined").Value()
}

// stampThenWrite is the reference a put that resolves its owners while
// stamping is held against: the put as it runs without that — gen_ts,
// then the first replica write alone, then the other |Hr| − 1 side by
// side — composed by hand from peer p. It returns the time it took and
// the replicas stored.
func stampThenWrite(d *exp.Deployment, p *exp.Peer, k core.Key, data []byte) (elapsed time.Duration, stored int) {
	ctx := context.Background()
	client := dht.NewClient(p.Node, ums.Namespace)
	start := d.K.Now()
	ts, err := p.KTS.GenTS(ctx, k)
	if err != nil {
		return d.K.Now() - start, 0
	}
	val := core.Value{Data: data, TS: ts}
	if client.PutH(ctx, k, d.Set.Hr[0], val, dht.PutIfNewer) == nil {
		stored++
	}
	rest := make([]bool, len(d.Set.Hr)-1)
	p.Node.Env().Join(len(rest), func(i int) {
		rest[i] = client.PutH(ctx, k, d.Set.Hr[i+1], val, dht.PutIfNewer) == nil
	})
	for _, ok := range rest {
		if ok {
			stored++
		}
	}
	return d.K.Now() - start, stored
}

// TestColdPutResolvesOwnersWhileStampingOnWANLinks: on the Table 1
// links a cold issuer's put looks up the owners its ring cannot guess
// while gen_ts is on the wire, and those lookups show it is waiting on
// the network, so all ten writes go at once when ts arrives — the put
// finishes before gen_ts, a lone first write and the slowest of the
// other nine, run on a twin deployment of the same seed, stores all ten
// for the same messages, and the same seed replays the same result.
func TestColdPutResolvesOwnersWhileStampingOnWANLinks(t *testing.T) {
	key, data := core.Key("cold"), make([]byte, 1000)
	script := func() (put dht.OpResult, ref time.Duration, refStored int, prefetched uint64) {
		d, twin := calmRing(25, simwire.Table1()), calmRing(25, simwire.Table1())
		if !d.Do(func() {
			var err error
			if put, err = d.Peers[5].UMS.Insert(context.Background(), key, data); err != nil {
				t.Errorf("put: %v", err)
			}
		}) {
			t.Fatal("simulation stalled")
		}
		twin.Do(func() { ref, refStored = stampThenWrite(twin, twin.Peers[5], key, data) })
		return put, ref, refStored, prefetchedPuts(d.Obs)
	}
	put, ref, refStored, prefetched := script()
	if put.Stored != 10 || refStored != 10 {
		t.Errorf("stored %d, the reference %d; want 10 and 10", put.Stored, refStored)
	}
	if put.Elapsed >= ref {
		t.Errorf("put took %v; gen_ts, a lone first write and the slowest other write take %v", put.Elapsed, ref)
	}
	t.Logf("put %v for %d msgs; gen_ts then the writes %v", put.Elapsed, put.Msgs, ref)
	if prefetched != 1 {
		t.Errorf("%d puts sent all their writes at once, want 1", prefetched)
	}
	if again, _, _, _ := script(); !reflect.DeepEqual(put, again) {
		t.Errorf("same seed, different results:\n first %+v\n again %+v", put, again)
	}
}

// TestStampedPutStaysSerialOnClusterLinks: on the §5.1 cluster profile
// gen_ts for a key already stamped answers long before the threshold, so
// a put — cold, with its lookups, or warm — is exactly gen_ts followed
// by the grouped serial loop: the same elapsed time, messages, bytes and
// replicas as gen_ts and the writes issued one after the other on a twin
// deployment of the same seed, and the same network total.
func TestStampedPutStaysSerialOnClusterLinks(t *testing.T) {
	key, data := core.Key("lan"), make([]byte, 1000)
	put, ref := calmRing(26, simwire.Cluster()), calmRing(26, simwire.Cluster())
	for _, d := range []*exp.Deployment{put, ref} {
		d.Do(func() {
			if _, err := d.Peers[9].UMS.Insert(context.Background(), key, data); err != nil {
				t.Errorf("first put: %v", err)
			}
		})
	}
	for round := 0; round < 2; round++ { // cold, then warm
		var res dht.OpResult
		var err error
		put.Do(func() { res, err = put.Peers[5].UMS.Insert(context.Background(), key, data) })
		if err != nil {
			t.Fatalf("round %d: put: %v", round, err)
		}
		var elapsed time.Duration
		var meter network.Meter
		var stored int
		ref.Do(func() {
			p := ref.Peers[5]
			start := ref.K.Now()
			ts, err := p.KTS.GenTS(network.WithMeter(context.Background(), &meter), key)
			if err != nil {
				t.Errorf("round %d: gen_ts: %v", round, err)
			}
			_, writes, n := groupedWrites(ref, p, key, core.Value{Data: data, TS: ts})
			meter.Merge(writes)
			elapsed, stored = ref.K.Now()-start, n
		})
		if res.Elapsed != elapsed || res.Msgs != meter.Msgs || res.Bytes != meter.Bytes || res.Stored != stored {
			t.Errorf("round %d: put took %v, %d msgs, %d bytes, %d stored; gen_ts then the serial loop %v, %d, %d, %d",
				round, res.Elapsed, res.Msgs, res.Bytes, res.Stored, elapsed, meter.Msgs, meter.Bytes, stored)
		}
		if a, b := put.Net.TotalMessages(), ref.Net.TotalMessages(); a != b {
			t.Errorf("round %d: the network carried %d messages under the put, %d under gen_ts then the serial loop", round, a, b)
		}
	}
	// Three puts: the first one (a new key) on each twin, then the two.
	if serial, overlapped := replicateModes(put.Obs); serial != 3 || overlapped != 0 || prefetchedPuts(put.Obs) != 0 {
		t.Errorf("replicate modes: %d serial, %d overlapped, %d prefetched; want 3, 0, 0", serial, overlapped, prefetchedPuts(put.Obs))
	}
}

// TestPrefetchOnStubWAN scripts the owners resolved while stamping in
// virtual time, on a ring that can guess none of the ten: the lookups
// leave 10 ms after gen_ts and the writes go where they point; a lookup
// that shows the put waiting sends all ten writes at once, while a slow
// gen_ts alone flips nothing; an owner that died after its lookup costs
// exactly one fallback lookup and the write still lands; and a gen_ts
// that fails, or a context cancelled mid-prefetch, ends the put within
// one RPC timeout with no activity left behind.
func TestPrefetchOnStubWAN(t *testing.T) {
	const rtt, timeout, after = 700 * time.Millisecond, 2 * time.Second, 10 * time.Millisecond
	key := core.Key("k")
	set := hashing.NewSet(10)
	// run plays one put on a fresh kernel, cancelling its context
	// cancelAt into it (0: never); script sets the ring up.
	run := func(script func(k *simnet.Kernel, r *stubRing), cancelAt time.Duration) (res dht.OpResult, err error, ring *stubRing) {
		k := simnet.New(1)
		ring = newStubRing(simwire.Env(k), set, key)
		w := ring.wire
		w.rtt, w.timeout = rtt, timeout
		w.dead = map[network.Addr]bool{}
		ring.lookupRTT = rtt
		for _, h := range set.Hr {
			ring.noGuess[h.ID(key)] = true
		}
		if script != nil {
			script(k, ring)
		}
		svc := ring.service(set)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if cancelAt > 0 {
			k.After(cancelAt, cancel)
		}
		done := false
		k.Go(func() {
			res, err = svc.Insert(ctx, key, []byte("v"))
			if procs := k.LiveProcs(); procs != 1 {
				t.Errorf("%d activities still live when the put returned", procs-1)
			}
			done = true
		})
		k.Run(time.Minute)
		if !done {
			t.Fatal("simulation stalled")
		}
		if int64(res.Msgs) != w.msgs.Load() || int64(res.Bytes) != w.bytes.Load() {
			t.Errorf("put reports %d msgs, %d bytes; the wire carried %d, %d",
				res.Msgs, res.Bytes, w.msgs.Load(), w.bytes.Load())
		}
		if declined := declinedGuesses(ring.reg); declined != 10 {
			t.Errorf("%d declined guesses counted, want one per position", declined)
		}
		return res, err, ring
	}
	// lookups checks that each position was looked up want times, except
	// the ones in extra, looked up once more.
	lookups := func(t *testing.T, ring *stubRing, extra ...int) {
		t.Helper()
		for i, h := range set.Hr {
			want := 1
			for _, e := range extra {
				if e == i {
					want++
				}
			}
			if got := ring.lookupsOf(h.ID(key)); got != want {
				t.Errorf("position %d looked up %d times, want %d", i, got, want)
			}
		}
	}

	t.Run("slow lookups", func(t *testing.T) {
		res, err, ring := run(nil, 0)
		if err != nil || res.Stored != 10 || res.Msgs != 42 {
			t.Errorf("stored %d for %d msgs, err %v; want 10 for 42 (gen_ts, ten lookups, ten writes)", res.Stored, res.Msgs, err)
		}
		// The lookups end 10 ms after gen_ts; then all ten writes at once.
		if want := after + 2*rtt; res.Elapsed != want {
			t.Errorf("elapsed %v, want %v", res.Elapsed, want)
		}
		if got := ring.wire.max.Load(); got != 10 {
			t.Errorf("%d writes in flight at once, want 10", got)
		}
		if prefetchedPuts(ring.reg) != 1 {
			t.Errorf("the put was not counted prefetched")
		}
		lookups(t, ring)
	})
	t.Run("fast lookups", func(t *testing.T) {
		// gen_ts is as slow as before; only a lookup's own round trip
		// may flip the writes, so the first one goes alone.
		res, err, ring := run(func(_ *simnet.Kernel, r *stubRing) { r.lookupRTT = after / 2 }, 0)
		if err != nil || res.Stored != 10 || res.Elapsed != 3*rtt {
			t.Errorf("stored %d after %v, err %v; want 10 after gen_ts, one write, then nine, %v", res.Stored, res.Elapsed, err, 3*rtt)
		}
		if serial, overlapped := replicateModes(ring.reg); serial != 0 || overlapped != 1 || prefetchedPuts(ring.reg) != 0 {
			t.Errorf("replicate modes: %d serial, %d overlapped, %d prefetched; want 0, 1, 0", serial, overlapped, prefetchedPuts(ring.reg))
		}
		lookups(t, ring)
	})
	t.Run("owner dies between prefetch and write", func(t *testing.T) {
		const slowKTS, dies = 1500 * time.Millisecond, time.Second
		res, err, ring := run(func(k *simnet.Kernel, r *stubRing) {
			r.wire.delay[stubKTS] = slowKTS
			id := set.Hr[3].ID(key)
			k.After(dies, func() {
				r.wire.dead[stubOwner(3)] = true
				r.mu.Lock()
				r.owners[id] = dht.NodeRef{ID: id, Addr: "spare"}
				r.mu.Unlock()
			})
		}, 0)
		if err != nil || res.Stored != 10 {
			t.Errorf("stored %d, err %v; want 10", res.Stored, err)
		}
		// The write to the dead owner times out, backs off 100 ms, looks
		// the position up again and lands on its new owner.
		if want := slowKTS + timeout + 100*time.Millisecond + 2*rtt; res.Elapsed != want {
			t.Errorf("elapsed %v, want %v", res.Elapsed, want)
		}
		lookups(t, ring, 3)
	})
	t.Run("gen_ts fails", func(t *testing.T) {
		refused := errors.New("refused")
		res, err, ring := run(func(_ *simnet.Kernel, r *stubRing) {
			r.wire.genErr = refused
			r.lookupHops = 40
		}, 0)
		if !errors.Is(err, refused) || res.Stored != 0 {
			t.Errorf("stored %d, err %v; want 0 and the refusal", res.Stored, err)
		}
		// gen_ts fails while the lookups are on their first of forty
		// hops: they stop at the end of it.
		if want := after + rtt; res.Elapsed != want {
			t.Errorf("returned at %v, want once the lookups' hop in flight ended, %v", res.Elapsed, want)
		}
		if got := ring.wire.max.Load(); got != 1 {
			t.Errorf("%d calls in flight at once; want gen_ts alone, no write", got)
		}
	})
	t.Run("cancelled mid-prefetch", func(t *testing.T) {
		const at = 300 * time.Millisecond
		res, err, _ := run(nil, at)
		if !errors.Is(err, context.Canceled) || res.Stored != 0 {
			t.Errorf("stored %d, err %v; want 0 and context.Canceled", res.Stored, err)
		}
		if res.Elapsed > at+timeout {
			t.Errorf("returned %v after the cancellation, more than one RPC timeout", res.Elapsed-at)
		}
	})
}

// TestPrefetchedPutOnRealEnv drives the owners resolved while stamping
// with real goroutines (run under -race): a gen_ts slower than the
// threshold starts the ten lookups, their round trips send all ten
// writes at once, the merged meter equals what the endpoint and the
// lookups were charged, a deadline that falls under the prefetch comes
// back as the context's error, and no goroutine outlives either put.
func TestPrefetchedPutOnRealEnv(t *testing.T) {
	key := core.Key("k")
	set := hashing.NewSet(10)
	env := network.NewRealEnv(1)
	defer env.Close()
	baseline := runtime.NumGoroutine()
	settled := func() bool {
		for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
			time.Sleep(5 * time.Millisecond)
		}
		return runtime.NumGoroutine() <= baseline
	}

	ring := newStubRing(env, set, key)
	ring.wire.rtt, ring.lookupRTT = 25*time.Millisecond, 25*time.Millisecond
	ring.wire.delay[stubKTS] = 80 * time.Millisecond
	for _, h := range set.Hr {
		ring.noGuess[h.ID(key)] = true
	}
	svc := ring.service(set)
	res, err := svc.Insert(context.Background(), key, make([]byte, 1000))
	if err != nil || res.Stored != 10 {
		t.Fatalf("stored %d, err %v; want 10 and none", res.Stored, err)
	}
	if res.Msgs != 42 || int64(res.Msgs) != ring.wire.msgs.Load() || int64(res.Bytes) != ring.wire.bytes.Load() {
		t.Errorf("put reports %d msgs, %d bytes; the endpoint and the lookups were charged %d, %d",
			res.Msgs, res.Bytes, ring.wire.msgs.Load(), ring.wire.bytes.Load())
	}
	if got := ring.wire.max.Load(); got != 10 {
		t.Errorf("%d writes in flight at once, want 10", got)
	}
	if prefetchedPuts(ring.reg) != 1 {
		t.Errorf("the put was not counted prefetched")
	}
	for i, h := range set.Hr {
		if got := ring.lookupsOf(h.ID(key)); got != 1 {
			t.Errorf("position %d looked up %d times, want 1", i, got)
		}
	}
	if !settled() {
		t.Errorf("%d goroutines after the put, %d before", runtime.NumGoroutine(), baseline)
	}

	// The deadline falls while gen_ts and the lookups are outstanding.
	ring.lookupRTT = 400 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err = svc.Insert(ctx, key, make([]byte, 1000))
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || res.Stored != 0 {
		t.Errorf("stored %d, err %v; want 0 and the context's deadline", res.Stored, err)
	}
	if took > 2*time.Second {
		t.Errorf("returned %v after it began, past the lookups' own round trip", took)
	}
	if !settled() {
		t.Errorf("%d goroutines after the cancelled put, %d before", runtime.NumGoroutine(), baseline)
	}
}

// countingRing counts, per ring position, the lookups run through it and
// the guesses it declined; its metrics land in a registry of its own.
type countingRing struct {
	dht.Ring
	reg               *obs.Registry
	lookups, declined map[core.ID]int
}

func (r *countingRing) Lookup(ctx context.Context, id core.ID) (dht.NodeRef, int, error) {
	r.lookups[id]++
	return r.Ring.Lookup(ctx, id)
}

func (r *countingRing) Guess(id core.ID) (dht.NodeRef, dht.GuessSource) {
	ref, src := r.Ring.Guess(id)
	if src == dht.NoGuess {
		r.declined[id]++
	}
	return ref, src
}

func (r *countingRing) Obs() *obs.Registry { return r.reg }

// TestPrefetchAddsNoLookupOnEveryRing: on chord, CAN and onehop, over
// the Table 1 links, a cold issuer's put runs at most one lookup per
// replica position its ring could not guess, and none for a position it
// could — the prefetch only moves lookups the writes would run, whatever
// the ring remembers. Onehop guesses every position, so nothing is
// prefetched there.
func TestPrefetchAddsNoLookupOnEveryRing(t *testing.T) {
	key, data := core.Key("every-ring"), make([]byte, 1000)
	for _, kind := range []peer.RingKind{peer.RingChord, peer.RingCAN, peer.RingOneHop} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := exp.Table1Deployment(32, 27)
			cfg.Ring = kind
			d := exp.NewDeployment(cfg)
			defer d.K.Stop()
			d.RunFor(time.Minute)
			p := d.Peers[5]
			ring := &countingRing{Ring: p.Node, reg: obs.NewRegistry(), lookups: map[core.ID]int{}, declined: map[core.ID]int{}}
			svc := ums.New(ring, d.Set, p.KTS)
			var res dht.OpResult
			var err error
			if !d.Do(func() { res, err = svc.Insert(context.Background(), key, data) }) {
				t.Fatal("simulation stalled")
			}
			if err != nil || res.Stored != 10 {
				t.Fatalf("stored %d, err %v; want 10 and none", res.Stored, err)
			}
			declined, looked := 0, 0
			for i, h := range d.Set.Hr {
				id := h.ID(key)
				if ring.declined[id] > 1 || ring.lookups[id] > ring.declined[id] {
					t.Errorf("position %d: %d declined guesses, %d lookups; want at most one lookup, and only after a decline",
						i, ring.declined[id], ring.lookups[id])
				}
				declined += ring.declined[id]
				looked += ring.lookups[id]
			}
			if got := declinedGuesses(ring.reg); got != uint64(declined) {
				t.Errorf("the router counted %d declined guesses, the ring declined %d", got, declined)
			}
			t.Logf("%s: %d of 10 positions declined, %d lookups, put %v for %d msgs", kind, declined, looked, res.Elapsed, res.Msgs)
			switch {
			case kind == peer.RingOneHop && declined != 0:
				t.Errorf("onehop declined %d guesses; its table names every owner", declined)
			case kind != peer.RingOneHop && (declined == 0 || prefetchedPuts(ring.reg) != 1):
				t.Errorf("%s: %d positions declined, %d puts prefetched; want a cold issuer's put to prefetch", kind, declined, prefetchedPuts(ring.reg))
			}
		})
	}
}

package ums_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
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

// retrieveModes reads dcdht_ums_retrieve_total off a registry.
func retrieveModes(reg *obs.Registry) (serial, overlapped uint64) {
	mode := reg.CounterVec("dcdht_ums_retrieve_total", "", "mode")
	return mode.With("serial").Value(), mode.With("overlapped").Value()
}

// phaseLedger is a tracer that keeps the phase ledger of the ops it saw.
type phaseLedger struct {
	mu  sync.Mutex
	ops []obs.OpResult
}

func (l *phaseLedger) OpStart(obs.Op) {}
func (l *phaseLedger) OpEnd(r obs.OpResult) {
	l.mu.Lock()
	l.ops = append(l.ops, r)
	l.mu.Unlock()
}

// phase returns the time op i charged to the named phase.
func (l *phaseLedger) phase(i int, name string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ph := range l.ops[i].Phases {
		if ph.Name == name {
			return ph.D
		}
	}
	return 0
}

// TestCurrentGetOverlapsLastTSOnWANLinks: on the Table 1 links a warm
// issuer's last_ts is a WAN round trip, so its first probe goes
// alongside — the Current get, and the Bounded get of an issuer whose
// cache cannot answer, each finish before their kts and probe phases
// laid end to end, stay Proven, and the warm Current get stays at the
// message floor of 4; the same seed replays the same results.
func TestCurrentGetOverlapsLastTSOnWANLinks(t *testing.T) {
	key := core.Key("wan")
	script := func() (gets []dht.OpResult, ledger *phaseLedger, overlapped uint64) {
		d := calmRing(23, simwire.Table1())
		ledger = &phaseLedger{}
		ctx := obs.WithTracer(context.Background(), ledger)
		p, cold := d.Peers[5], d.Peers[11]
		if !d.Do(func() {
			if _, err := p.UMS.Insert(context.Background(), key, []byte("v1")); err != nil {
				t.Errorf("put: %v", err)
			}
			for _, get := range []struct {
				from *exp.Peer
				pol  dht.ReadPolicy
			}{
				{p, dht.ReadPolicy{}},
				{cold, dht.ReadPolicy{Level: dht.LevelBounded, Bound: time.Hour}},
			} {
				res, err := get.from.UMS.RetrieveWith(ctx, key, get.pol)
				if err != nil {
					t.Errorf("get: %v", err)
				}
				gets = append(gets, res)
			}
		}) {
			t.Fatal("simulation stalled")
		}
		_, overlapped = retrieveModes(d.Obs)
		return gets, ledger, overlapped
	}
	gets, ledger, overlapped := script()
	for i, res := range gets {
		kts, probe := ledger.phase(i, obs.PhaseKTS), ledger.phase(i, obs.PhaseProbe)
		if res.Currency != dht.CurrencyProven || string(res.Data) != "v1" {
			t.Errorf("get %d: %s %q, want proven \"v1\"", i, res.Currency, res.Data)
		}
		if res.Elapsed >= kts+probe {
			t.Errorf("get %d took %v; its last_ts took %v and its probes %v", i, res.Elapsed, kts, probe)
		}
		t.Logf("get %d: %v for %d msgs (kts %v, probe %v)", i, res.Elapsed, res.Msgs, kts, probe)
	}
	if warm := gets[0]; warm.Msgs != 4 || warm.Probed != 1 {
		t.Errorf("warm Current get: %d msgs, %d probes; want 4 and 1", warm.Msgs, warm.Probed)
	}
	if overlapped != 2 {
		t.Errorf("%d of 2 gets overlapped their first probe", overlapped)
	}
	if again, _, _ := script(); !reflect.DeepEqual(gets, again) {
		t.Errorf("same seed, different results:\n first %+v\n again %+v", gets, again)
	}
}

// firstGuessable is the Hr position a retrieve from p probes first when
// p owns none of them: the first one whose owner p's ring names without
// a lookup, Hr[0] when it names none.
func firstGuessable(p *exp.Peer, set hashing.Set, k core.Key) int {
	for i, h := range set.Hr {
		if _, src := p.Node.Guess(h.ID(k)); src != dht.NoGuess {
			return i
		}
	}
	return 0
}

// TestCurrentGetStaysSerialOnClusterLinks: on the §5.1 cluster profile
// last_ts answers long before the threshold, so a Current get — cold or
// warm — is exactly Figure 2's serial order: the same elapsed time,
// messages and bytes as last_ts and then one probe of the first position
// the issuer can guess, issued one after the other on a twin deployment
// of the same seed. The cold issuer cannot guess Hr[0] but can a later
// position, so its get pays no lookup: 4 messages, where last_ts then a
// probe of Hr[0] cost 8 on a third twin. The warm get costs the 4 it
// always did.
func TestCurrentGetStaysSerialOnClusterLinks(t *testing.T) {
	key := core.Key("lan")
	get, ref, hr0 := calmRing(24, simwire.Cluster()), calmRing(24, simwire.Cluster()), calmRing(24, simwire.Cluster())
	for _, d := range []*exp.Deployment{get, ref, hr0} {
		d.Do(func() {
			if _, err := d.Peers[9].UMS.Insert(context.Background(), key, []byte("v")); err != nil {
				t.Fatalf("put: %v", err)
			}
		})
	}
	// serially plays last_ts and then a probe of the position pick names
	// on d's issuer, reporting its time and cost.
	serially := func(d *exp.Deployment, pick func(p *exp.Peer) int) (elapsed time.Duration, meter network.Meter, pos int) {
		d.Do(func() {
			p := d.Peers[5]
			ctx := network.WithMeter(context.Background(), &meter)
			start := d.K.Now()
			if _, err := p.KTS.LastTS(ctx, key); err != nil {
				t.Errorf("last_ts: %v", err)
			}
			pos = pick(p)
			if _, err := dht.NewClient(p.Node, ums.Namespace).GetH(ctx, key, d.Set.Hr[pos]); err != nil {
				t.Errorf("probe: %v", err)
			}
			elapsed = d.K.Now() - start
		})
		return elapsed, meter, pos
	}
	for round := 0; round < 2; round++ { // cold, then warm
		var res dht.OpResult
		var err error
		get.Do(func() { res, err = get.Peers[5].UMS.Retrieve(context.Background(), key) })
		if err != nil || res.Probed != 1 {
			t.Fatalf("round %d: get: %d probes, %v", round, res.Probed, err)
		}
		elapsed, meter, pos := serially(ref, func(p *exp.Peer) int { return firstGuessable(p, ref.Set, key) })
		t.Logf("round %d: probed Hr[%d] for %d msgs", round, pos, res.Msgs)
		if res.Elapsed != elapsed || res.Msgs != meter.Msgs || res.Bytes != meter.Bytes {
			t.Errorf("round %d: get took %v, %d msgs, %d bytes; last_ts then probe %v, %d, %d",
				round, res.Elapsed, res.Msgs, res.Bytes, elapsed, meter.Msgs, meter.Bytes)
		}
		if a, b := get.Net.TotalMessages(), ref.Net.TotalMessages(); a != b {
			t.Errorf("round %d: the network carried %d messages under the get, %d under last_ts then probe", round, a, b)
		}
		if res.Msgs != 4 {
			t.Errorf("round %d: get cost %d msgs, want last_ts and one probe, 4", round, res.Msgs)
		}
		if round == 0 {
			if pos == 0 {
				t.Fatalf("the cold issuer guesses Hr[0]; the test wants one that guesses only a later position")
			}
			if _, hr0Meter, _ := serially(hr0, func(*exp.Peer) int { return 0 }); hr0Meter.Msgs != 8 {
				t.Errorf("cold: last_ts then a probe of Hr[0] cost %d msgs, want 8 (one lookup on the way)", hr0Meter.Msgs)
			}
		}
	}
	if serial, overlapped := retrieveModes(get.Obs); serial != 2 || overlapped != 0 {
		t.Errorf("retrieve modes: %d serial, %d overlapped, want 2 and 0", serial, overlapped)
	}
}

// TestOverlappedGetOnStubWAN scripts the overlapped retrieve in virtual
// time against 700 ms round trips: the first probe leaves 10 ms after
// last_ts, whatever last_ts then says the op waits for the probe and
// pays for it, a dead first owner falls through to the next position,
// and a cancelled context comes back within one RPC timeout.
func TestOverlappedGetOnStubWAN(t *testing.T) {
	const rtt, timeout, after = 700 * time.Millisecond, 2 * time.Second, 10 * time.Millisecond
	key := core.Key("k")
	set := hashing.NewSet(10)
	// run plays one Current get on a fresh kernel, cancelling its
	// context cancelAt into it (0: never); script sets the wire up.
	run := func(script func(w *stubWire), cancelAt time.Duration) (res dht.OpResult, err error, ring *stubRing) {
		k := simnet.New(1)
		ring = newStubRing(simwire.Env(k), set, key)
		w := ring.wire
		w.rtt, w.timeout, w.stamp = rtt, timeout, core.TS(1)
		w.dead = map[network.Addr]bool{}
		if script != nil {
			script(w)
		}
		svc := ring.service(set)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if cancelAt > 0 {
			k.After(cancelAt, cancel)
		}
		done := false
		k.Go(func() {
			res, err = svc.Retrieve(ctx, key)
			if procs := k.LiveProcs(); procs != 1 {
				t.Errorf("%d activities still live when the get returned", procs-1)
			}
			done = true
		})
		k.Run(time.Minute)
		if !done {
			t.Fatal("simulation stalled")
		}
		if int64(res.Msgs) != w.msgs.Load() || int64(res.Bytes) != w.bytes.Load() {
			t.Errorf("get reports %d msgs, %d bytes; the wire carried %d, %d",
				res.Msgs, res.Bytes, w.msgs.Load(), w.bytes.Load())
		}
		return res, err, ring
	}

	t.Run("current", func(t *testing.T) {
		res, err, ring := run(nil, 0)
		if err != nil || res.Currency != dht.CurrencyProven || res.Probed != 1 || res.Msgs != 4 {
			t.Errorf("%s after %d probes, %d msgs, err %v; want proven after 1, 4 msgs", res.Currency, res.Probed, res.Msgs, err)
		}
		if want := after + rtt; res.Elapsed != want {
			t.Errorf("elapsed %v, want %v", res.Elapsed, want)
		}
		if serial, overlapped := retrieveModes(ring.reg); serial != 0 || overlapped != 1 {
			t.Errorf("retrieve modes: %d serial, %d overlapped, want 0 and 1", serial, overlapped)
		}
	})
	t.Run("fast last_ts", func(t *testing.T) {
		res, err, ring := run(func(w *stubWire) { w.delay[stubKTS] = after / 2 }, 0)
		if err != nil || res.Elapsed != after/2+rtt {
			t.Errorf("elapsed %v, err %v; want last_ts then the probe, %v", res.Elapsed, err, after/2+rtt)
		}
		if serial, overlapped := retrieveModes(ring.reg); serial != 1 || overlapped != 0 {
			t.Errorf("retrieve modes: %d serial, %d overlapped, want 1 and 0", serial, overlapped)
		}
	})
	t.Run("never inserted", func(t *testing.T) {
		res, err, _ := run(func(w *stubWire) { w.stamp = core.TSZero }, 0)
		if !errors.Is(err, core.ErrNotFound) || res.Msgs != 4 || res.Elapsed != after+rtt {
			t.Errorf("err %v, %d msgs after %v; want ErrNotFound, 4 msgs after the probe's %v", err, res.Msgs, res.Elapsed, after+rtt)
		}
	})
	t.Run("first owner crashed", func(t *testing.T) {
		res, err, _ := run(func(w *stubWire) { w.dead[stubOwner(0)] = true }, 0)
		if err != nil || res.Currency != dht.CurrencyProven || res.Probed != 2 || res.Retrieved != 1 {
			t.Errorf("%s after %d probes (%d read), err %v; want proven from the second", res.Currency, res.Probed, res.Retrieved, err)
		}
		// The dead owner is tried three times (the guess, the lookup, one
		// retry after 100 ms), then Hr[1] answers.
		if want := after + 3*timeout + 100*time.Millisecond + rtt; res.Elapsed != want {
			t.Errorf("elapsed %v, want %v", res.Elapsed, want)
		}
	})
	t.Run("KTS unreachable", func(t *testing.T) {
		// last_ts gives up after five timeouts and three 200 ms backoffs;
		// the probe answers a second and a half later.
		const probe = 12 * time.Second
		res, err, _ := run(func(w *stubWire) {
			w.dead[stubKTS] = true
			w.delay[stubOwner(0)] = probe
		}, 0)
		if !errors.Is(err, core.ErrTimeout) {
			t.Errorf("err %v, want the last_ts timeout", err)
		}
		if want := after + probe; res.Elapsed != want {
			t.Errorf("returned at %v, want once the probe finished at %v", res.Elapsed, want)
		}
	})
	t.Run("cancelled mid-overlap", func(t *testing.T) {
		const at = 300 * time.Millisecond
		res, err, _ := run(nil, at)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err %v, want context.Canceled", err)
		}
		if res.Elapsed > at+timeout {
			t.Errorf("returned %v after the cancellation, more than one RPC timeout", res.Elapsed-at)
		}
	})
}

// TestOverlappedGetOnRealEnv drives the overlapped retrieve with real
// goroutines (run under -race): a KTS endpoint whose last_ts takes longer
// than the threshold sends the first probe alongside, the merged meter
// equals what the endpoints were charged, a fast last_ts keeps the get
// serial, and no goroutine outlives either get.
func TestOverlappedGetOnRealEnv(t *testing.T) {
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
	ring.wire.rtt, ring.wire.stamp = 40*time.Millisecond, core.TS(1)
	svc := ring.service(set)
	for _, c := range []struct {
		name           string
		ktsDelay       time.Duration
		serial, overlp uint64 // the mode counters after the get
		inFlight       int32  // most calls in flight at once, so far
	}{
		{"slow last_ts", 40 * time.Millisecond, 0, 1, 2},
		{"fast last_ts", 0, 1, 1, 2},
	} {
		ring.wire.delay[stubKTS] = c.ktsDelay
		msgs, bytes := ring.wire.msgs.Load(), ring.wire.bytes.Load()
		res, err := svc.Retrieve(context.Background(), key)
		if err != nil || res.Currency != dht.CurrencyProven || res.Probed != 1 {
			t.Fatalf("%s: %s after %d probes, err %v", c.name, res.Currency, res.Probed, err)
		}
		if res.Msgs != 4 || int64(res.Msgs) != ring.wire.msgs.Load()-msgs || int64(res.Bytes) != ring.wire.bytes.Load()-bytes {
			t.Errorf("%s: get reports %d msgs, %d bytes; the endpoints were charged %d, %d", c.name,
				res.Msgs, res.Bytes, ring.wire.msgs.Load()-msgs, ring.wire.bytes.Load()-bytes)
		}
		if serial, overlapped := retrieveModes(ring.reg); serial != c.serial || overlapped != c.overlp {
			t.Errorf("%s: retrieve modes %d serial, %d overlapped; want %d and %d", c.name, serial, overlapped, c.serial, c.overlp)
		}
		if got := ring.wire.max.Load(); got != c.inFlight {
			t.Errorf("%s: %d calls in flight at once, want %d", c.name, got, c.inFlight)
		}
		if !settled() {
			t.Errorf("%s: %d goroutines after the get, %d before", c.name, runtime.NumGoroutine(), baseline)
		}
	}
}

// repairLog is a ReadRepairer that keeps what it was handed.
type repairLog struct {
	mu    sync.Mutex
	stale [][]hashing.Func
}

func (l *repairLog) ReadRepair(_ core.Key, _ core.Value, stale []hashing.Func) {
	l.mu.Lock()
	l.stale = append(l.stale, stale)
	l.mu.Unlock()
}

// TestGetProbesAGuessedPositionFirst: a get's probes go first to the
// positions whose owner the issuer can guess, in Hr order among them,
// and to the others in Hr order once none is left — the early probe sent
// alongside a slow last_ts included. The guess only orders the probes: a
// stale one costs one fallback lookup and the get stays Proven, and
// read-repair hears of exactly the probed positions that fell short.
func TestGetProbesAGuessedPositionFirst(t *testing.T) {
	const rtt, timeout = 700 * time.Millisecond, 2 * time.Second
	key := core.Key("k")
	set := hashing.NewSet(10)
	// run plays one get at pol on a fresh kernel whose ring can guess
	// none of the positions in declined; script sets the rest up.
	run := func(t *testing.T, pol dht.ReadPolicy, declined []int, script func(r *stubRing)) (res dht.OpResult, ring *stubRing, repairs *repairLog) {
		t.Helper()
		k := simnet.New(1)
		ring = newStubRing(simwire.Env(k), set, key)
		ring.wire.rtt, ring.wire.timeout, ring.wire.stamp = rtt, timeout, core.TS(1)
		ring.lookupRTT = rtt
		for _, i := range declined {
			ring.noGuess[set.Hr[i].ID(key)] = true
		}
		if script != nil {
			script(ring)
		}
		svc := ring.service(set)
		repairs = &repairLog{}
		svc.SetReadRepair(repairs)
		var err error
		k.Go(func() { res, err = svc.RetrieveWith(context.Background(), key, pol) })
		k.Run(time.Minute)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		return res, ring, repairs
	}
	lookups := func(ring *stubRing) (n int) {
		for _, h := range set.Hr {
			n += ring.lookupsOf(h.ID(key))
		}
		return n + ring.lookupsOf(set.HTS.ID(key))
	}
	reads := func(t *testing.T, ring *stubRing, want ...int) {
		t.Helper()
		var addrs []network.Addr
		for _, i := range want {
			addrs = append(addrs, stubOwner(i))
		}
		if got := ring.wire.readFrom(); !reflect.DeepEqual(got, addrs) {
			t.Errorf("replica reads went to %v, want %v", got, addrs)
		}
	}

	t.Run("guessed position first", func(t *testing.T) {
		for _, c := range []struct {
			name       string
			pol        dht.ReadPolicy
			fastKTS    bool
			overlapped uint64
		}{
			{"current, early probe", dht.ReadPolicy{}, false, 1},
			{"current, serial", dht.ReadPolicy{}, true, 0},
			{"eventual", dht.ReadPolicy{Level: dht.LevelEventual}, false, 0},
		} {
			t.Run(c.name, func(t *testing.T) {
				res, ring, _ := run(t, c.pol, []int{0, 1, 2}, func(r *stubRing) {
					if c.fastKTS {
						r.wire.delay[stubKTS] = time.Millisecond
					}
				})
				reads(t, ring, 3)
				wantMsgs := 4
				if c.pol.Level == dht.LevelEventual {
					wantMsgs = 2
				}
				if res.Probed != 1 || res.Msgs != wantMsgs || lookups(ring) != 0 {
					t.Errorf("%d probes, %d msgs, %d lookups; want 1, %d, 0", res.Probed, res.Msgs, lookups(ring), wantMsgs)
				}
				if _, overlapped := retrieveModes(ring.reg); overlapped != c.overlapped {
					t.Errorf("%d gets overlapped, want %d", overlapped, c.overlapped)
				}
			})
		}
	})
	t.Run("nothing guessable", func(t *testing.T) {
		all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		res, ring, _ := run(t, dht.ReadPolicy{}, all, func(r *stubRing) {
			r.wire.behind[stubOwner(0)], r.wire.behind[stubOwner(1)] = true, true
		})
		reads(t, ring, 0, 1, 2)
		if res.Probed != 3 || lookups(ring) != 3 || res.Currency != dht.CurrencyProven {
			t.Errorf("%s after %d probes, %d lookups; want proven after 3 probes, 3 lookups", res.Currency, res.Probed, lookups(ring))
		}
	})
	t.Run("stale guess", func(t *testing.T) {
		id := set.Hr[3].ID(key)
		res, ring, _ := run(t, dht.ReadPolicy{}, []int{0, 1, 2}, func(r *stubRing) {
			r.stale[id] = dht.NodeRef{ID: id, Addr: "moved"}
			r.wire.refuse["moved"] = true
		})
		if got := ring.wire.readFrom(); !reflect.DeepEqual(got, []network.Addr{"moved", stubOwner(3)}) {
			t.Errorf("replica reads went to %v, want the stale guess and then Hr[3]'s owner", got)
		}
		if res.Currency != dht.CurrencyProven || res.Probed != 1 || lookups(ring) != 1 || ring.lookupsOf(id) != 1 {
			t.Errorf("%s after %d probes, %d lookups (%d of Hr[3]); want proven after 1 probe and one fallback lookup of Hr[3]",
				res.Currency, res.Probed, lookups(ring), ring.lookupsOf(id))
		}
	})
	t.Run("stale first replica", func(t *testing.T) {
		res, ring, repairs := run(t, dht.ReadPolicy{}, []int{0, 1, 2}, func(r *stubRing) {
			r.wire.behind[stubOwner(3)] = true
			r.wire.refuse[stubOwner(4)] = true
		})
		// Hr[3] answers behind, Hr[4]'s owner refuses the guess, its
		// lookup and the one retry; Hr[5] is current. Hr[0..2] were
		// never probed and are nobody's to repair here.
		reads(t, ring, 3, 4, 4, 4, 5)
		if res.Currency != dht.CurrencyProven || res.Probed != 3 || res.Retrieved != 2 {
			t.Errorf("%s after %d probes (%d read); want proven after 3 (2 read)", res.Currency, res.Probed, res.Retrieved)
		}
		want := [][]hashing.Func{{set.Hr[3], set.Hr[4]}}
		if !reflect.DeepEqual(repairs.stale, want) {
			t.Errorf("read-repair got %v, want Hr[3] and Hr[4]", repairs.stale)
		}
	})
	t.Run("same seed on Table 1 links", func(t *testing.T) {
		script := func() (gets []dht.OpResult, later int) {
			d := calmRing(25, simwire.Table1())
			p, cold := d.Peers[3], d.Peers[17]
			keys := []core.Key{"a", "b", "c", "d", "e", "f"}
			pols := []dht.ReadPolicy{{}, {Level: dht.LevelBounded, Bound: time.Hour}, {Level: dht.LevelEventual}}
			if !d.Do(func() {
				for _, k := range keys {
					if _, err := p.UMS.Insert(context.Background(), k, []byte(k)); err != nil {
						t.Errorf("put %q: %v", k, err)
					}
				}
				for i, k := range keys {
					if firstGuessable(cold, d.Set, k) > 0 {
						later++
					}
					res, err := cold.UMS.RetrieveWith(context.Background(), k, pols[i%len(pols)])
					if err != nil || string(res.Data) != string(k) {
						t.Errorf("get %q: %q, %v", k, res.Data, err)
					}
					gets = append(gets, res)
				}
				res, errs := cold.Stack.GetMulti(context.Background(), peer.UMS, keys, dht.ReadPolicy{})
				for i, err := range errs {
					if err != nil || res[i].Currency != dht.CurrencyProven {
						t.Errorf("multi get %q: %s, %v", keys[i], res[i].Currency, err)
					}
				}
				gets = append(gets, res...)
			}) {
				t.Fatal("simulation stalled")
			}
			return gets, later
		}
		gets, later := script()
		if later == 0 {
			t.Errorf("the cold issuer guessed Hr[0] or nothing for every key; the test wants a later first probe")
		}
		if again, _ := script(); !reflect.DeepEqual(gets, again) {
			t.Errorf("same seed, different results:\n first %+v\n again %+v", gets, again)
		}
	})
}

// TestGetProbesAnOwnedPositionFirst: a get probes a position its issuer
// owns before any other, whatever the guesses say, since its router
// serves that read in-process at no message; but the early probe sent
// alongside a slow last_ts never takes an owned position: it goes to the
// first remote one the issuer can guess, and when every position is the
// issuer's own it sends nothing and the get stays serial.
func TestGetProbesAnOwnedPositionFirst(t *testing.T) {
	const rtt, timeout = 700 * time.Millisecond, 2 * time.Second
	key := core.Key("k")
	set := hashing.NewSet(10)
	for _, c := range []struct {
		name               string
		pol                dht.ReadPolicy
		fastKTS            bool
		owned, behind      []int
		reads              []int
		serial, overlapped uint64
	}{
		{"current, serial", dht.ReadPolicy{}, true, []int{4, 7}, nil, []int{4}, 1, 0},
		{"eventual", dht.ReadPolicy{Level: dht.LevelEventual}, false, []int{4, 7}, nil, []int{4}, 0, 0},
		{"owned replica behind", dht.ReadPolicy{}, true, []int{4}, []int{4}, []int{4, 0}, 1, 0},
		{"current, early probe", dht.ReadPolicy{}, false, []int{0, 1}, nil, []int{2}, 0, 1},
		{"early probe behind", dht.ReadPolicy{}, false, []int{0, 1}, []int{2}, []int{2, 0}, 0, 1},
		{"every position owned", dht.ReadPolicy{}, false, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, nil, []int{0}, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := simnet.New(1)
			ring := newStubRing(simwire.Env(k), set, key)
			w := ring.wire
			w.rtt, w.timeout, w.stamp = rtt, timeout, core.TS(1)
			if c.fastKTS {
				w.delay[stubKTS] = time.Millisecond
			}
			for _, i := range c.owned {
				ring.owned[set.Hr[i].ID(key)] = true
			}
			for _, i := range c.behind {
				w.behind[stubOwner(i)] = true
			}
			svc := ring.service(set)
			var res dht.OpResult
			var err error
			k.Go(func() { res, err = svc.RetrieveWith(context.Background(), key, c.pol) })
			k.Run(time.Minute)
			if err != nil || res.Probed != len(c.reads) {
				t.Fatalf("get: %d probes, err %v; want %d probes and none", res.Probed, err, len(c.reads))
			}
			var want []network.Addr
			for _, i := range c.reads {
				want = append(want, stubOwner(i))
			}
			if got := w.readFrom(); !reflect.DeepEqual(got, want) {
				t.Errorf("replica reads went to %v, want %v", got, want)
			}
			if serial, overlapped := retrieveModes(ring.reg); serial != c.serial || overlapped != c.overlapped {
				t.Errorf("retrieve modes: %d serial, %d overlapped, want %d and %d", serial, overlapped, c.serial, c.overlapped)
			}
		})
	}
}

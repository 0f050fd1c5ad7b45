package ums_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/exp"
	"repro/internal/hashing"
	"repro/internal/kts"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/ums"
)

// calmRing builds a 32-peer chord deployment at the paper's |Hr| = 10
// on the given links and lets it settle.
func calmRing(seed int64, links simwire.Config) *exp.Deployment {
	d := exp.NewDeployment(exp.DeployConfig{
		Peers:    32,
		Replicas: 10,
		Seed:     seed,
		Net:      links,
		Chord:    exp.Table1Scenario(exp.AlgUMSDirect, 32, seed).Chord,
	})
	d.RunFor(time.Minute)
	return d
}

// replicateModes reads dcdht_ums_replicate_total off a registry.
func replicateModes(reg *obs.Registry) (serial, overlapped uint64) {
	mode := reg.CounterVec("dcdht_ums_replicate_total", "", "mode")
	return mode.With("serial").Value(), mode.With("overlapped").Value()
}

// serialWrites is the reference the overlapped put is held against: the
// |Hr| PutIfNewer accesses one after the other from peer p, which is how
// every put ran before replicate looked at its round trips. It returns
// the time and the messages the accesses took.
func serialWrites(d *exp.Deployment, p *exp.Peer, k core.Key, val core.Value) (elapsed time.Duration, meter network.Meter, stored int) {
	ctx := network.WithMeter(context.Background(), &meter)
	client := dht.NewClient(p.Node, ums.Namespace)
	start := d.K.Now()
	for _, h := range d.Set.Hr {
		if client.PutH(ctx, k, h, val, dht.PutIfNewer) == nil {
			stored++
		}
	}
	return d.K.Now() - start, meter, stored
}

// TestPutOverlapsReplicaWritesOnWANLinks: on the Table 1 links a put's
// first replica write shows it is waiting on the network, and the other
// nine run side by side — the warm put takes at most half of what its
// ten accesses take one after the other, stores all ten and stays at the
// message floor; and the same seed replays the same results.
func TestPutOverlapsReplicaWritesOnWANLinks(t *testing.T) {
	key, data := core.Key("wan"), make([]byte, 1000)
	script := func() (puts []dht.OpResult, serialSum time.Duration, overlapped uint64) {
		d := calmRing(21, simwire.Table1())
		p := d.Peers[5]
		if !d.Do(func() {
			for i := 0; i < 2; i++ { // the first put teaches the issuer the ten arcs
				res, err := p.UMS.Insert(context.Background(), key, data)
				if err != nil {
					t.Errorf("put %d: %v", i, err)
				}
				puts = append(puts, res)
			}
			serialSum, _, _ = serialWrites(d, p, key, core.Value{Data: data, TS: puts[1].TS.Next()})
		}) {
			t.Fatal("simulation stalled")
		}
		_, overlapped = replicateModes(d.Obs)
		return puts, serialSum, overlapped
	}
	puts, serialSum, overlapped := script()
	warm := puts[1]
	if warm.Stored != 10 || warm.Msgs > 22 {
		t.Errorf("warm put: %d replicas stored for %d msgs, want 10 for at most 22", warm.Stored, warm.Msgs)
	}
	if warm.Elapsed > serialSum/2 {
		t.Errorf("warm put took %v; its ten accesses one after the other take %v", warm.Elapsed, serialSum)
	}
	t.Logf("cold %v/%d msgs, warm %v/%d msgs, serial accesses %v", puts[0].Elapsed, puts[0].Msgs, warm.Elapsed, warm.Msgs, serialSum)
	if overlapped != 2 {
		t.Errorf("%d of 2 puts overlapped their writes", overlapped)
	}
	if again, _, _ := script(); !reflect.DeepEqual(puts, again) {
		t.Errorf("same seed, different results:\n first %+v\n again %+v", puts, again)
	}
}

// TestPutStaysSerialOnClusterLinks: on the §5.1 cluster profile (round
// trip ≈ 0.6 ms) no replica write comes near the threshold, so a put —
// cold, with its lookups, or warm — is exactly the serial loop: the same
// elapsed time, messages and bytes as the ten accesses issued one after
// the other on a twin deployment of the same seed.
func TestPutStaysSerialOnClusterLinks(t *testing.T) {
	key, data := core.Key("lan"), make([]byte, 1000)
	put, ref := calmRing(22, simwire.Cluster()), calmRing(22, simwire.Cluster())
	for round := 0; round < 2; round++ { // cold, then warm
		val := core.Value{Data: data, TS: core.TS(uint64(round + 1))}
		var res dht.OpResult
		var err error
		put.Do(func() { res, err = put.Peers[5].UMS.InsertWithTS(context.Background(), key, data, val.TS) })
		if err != nil {
			t.Fatalf("round %d: put: %v", round, err)
		}
		var elapsed time.Duration
		var meter network.Meter
		var stored int
		ref.Do(func() { elapsed, meter, stored = serialWrites(ref, ref.Peers[5], key, val) })
		if res.Elapsed != elapsed || res.Msgs != meter.Msgs || res.Bytes != meter.Bytes || res.Stored != stored {
			t.Errorf("round %d: put took %v, %d msgs, %d bytes, %d stored; the serial loop %v, %d, %d, %d",
				round, res.Elapsed, res.Msgs, res.Bytes, res.Stored, elapsed, meter.Msgs, meter.Bytes, stored)
		}
		if a, b := put.Net.TotalMessages(), ref.Net.TotalMessages(); a != b {
			t.Errorf("round %d: the network carried %d messages under the put, %d under the serial loop", round, a, b)
		}
	}
	if serial, overlapped := replicateModes(put.Obs); serial != 2 || overlapped != 0 {
		t.Errorf("replicate modes: %d serial, %d overlapped, want 2 and 0", serial, overlapped)
	}
}

// stubRing is a ring of one issuer and one owner per replica position of
// one key, all reached through a stubWire: what replicate does with slow,
// dead and cancelled writes can then be scripted exactly, on the
// simulation kernel and on the wall clock alike.
type stubRing struct {
	env    network.Env
	wire   *stubWire
	owners map[core.ID]dht.NodeRef
	reg    *obs.Registry
}

// stubOwner is the address of the owner of replica position i.
func stubOwner(i int) network.Addr { return network.Addr(fmt.Sprintf("owner%d", i)) }

func newStubRing(env network.Env, set hashing.Set, k core.Key) *stubRing {
	r := &stubRing{env: env, owners: map[core.ID]dht.NodeRef{}, reg: obs.NewRegistry()}
	r.wire = &stubWire{env: env, delay: map[network.Addr]time.Duration{}}
	for i, h := range set.Hr {
		id := h.ID(k)
		r.owners[id] = dht.NodeRef{ID: id, Addr: stubOwner(i)}
	}
	return r
}

func (r *stubRing) Self() dht.NodeRef { return dht.NodeRef{ID: 1, Addr: "issuer"} }
func (r *stubRing) Lookup(_ context.Context, id core.ID) (dht.NodeRef, int, error) {
	return r.owners[id], 1, nil
}
func (r *stubRing) Guess(id core.ID) (dht.NodeRef, dht.GuessSource) {
	return r.owners[id], dht.GuessRouting
}
func (r *stubRing) GuessMissed(dht.NodeRef)    {}
func (r *stubRing) Endpoint() network.Endpoint { return r.wire }
func (r *stubRing) Env() network.Env           { return r.env }
func (r *stubRing) OwnsID(core.ID) bool        { return false }
func (r *stubRing) Alive() bool                { return true }
func (r *stubRing) Obs() *obs.Registry         { return r.reg }

// service attaches a UMS to the ring.
func (r *stubRing) service(set hashing.Set) *ums.Service {
	return ums.New(r, set, kts.New(r, set, ums.Namespace, kts.Config{}))
}

// stubWire answers every store with "stored" after the owner's delay; an
// owner listed in dead stays silent for timeout and the call fails as a
// crashed peer's does. It charges the caller's meter as the transports
// do and keeps its own totals to hold the put's against.
type stubWire struct {
	env     network.Env
	delay   map[network.Addr]time.Duration // per owner; missing means rtt
	rtt     time.Duration
	dead    map[network.Addr]bool
	timeout time.Duration

	msgs, bytes   atomic.Int64
	inFlight, max atomic.Int32
}

func (w *stubWire) Addr() network.Addr                 { return "issuer" }
func (w *stubWire) Handle(string, network.HandlerFunc) {}
func (w *stubWire) Close() error                       { return nil }

func (w *stubWire) count(ctx context.Context, n int) {
	network.MeterFrom(ctx).Count(n)
	w.msgs.Add(1)
	w.bytes.Add(int64(n))
}

func (w *stubWire) Invoke(ctx context.Context, to network.Addr, _ string, req network.Message, _ network.Call) (network.Message, error) {
	now := w.inFlight.Add(1)
	defer w.inFlight.Add(-1)
	for {
		if max := w.max.Load(); now <= max || w.max.CompareAndSwap(max, now) {
			break
		}
	}
	w.count(ctx, network.SizeOf(req))
	d, ok := w.delay[to]
	if !ok {
		d = w.rtt
	}
	if w.dead[to] {
		d = w.timeout
	}
	if err := network.SleepCtx(ctx, w.env, d); err != nil {
		return nil, err
	}
	if w.dead[to] {
		return nil, fmt.Errorf("stub: %s: %w", to, core.ErrTimeout)
	}
	w.count(ctx, network.DefaultWireSize)
	return dht.PutResp{Stored: true}, nil
}

// TestOverlappedPutWithUnreachableOwners scripts the overlapped branch
// in virtual time: crashed owners cost the put their replicas and
// nothing else, a put that stored nothing says so, and a context that
// ends under the fan-out is what the put reports, one RPC timeout later
// at most.
func TestOverlappedPutWithUnreachableOwners(t *testing.T) {
	const rtt, timeout = 700 * time.Millisecond, 2 * time.Second
	key := core.Key("k")
	set := hashing.NewSet(10)
	// run plays one put on a fresh kernel, cancelling its context
	// cancelAt into it (0: never).
	run := func(dead []int, cancelAt time.Duration) (res dht.OpResult, err error, ring *stubRing) {
		k := simnet.New(1)
		ring = newStubRing(simwire.Env(k), set, key)
		ring.wire.rtt, ring.wire.timeout = rtt, timeout
		ring.wire.dead = map[network.Addr]bool{}
		for _, i := range dead {
			ring.wire.dead[stubOwner(i)] = true
		}
		svc := ring.service(set)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if cancelAt > 0 {
			k.After(cancelAt, cancel)
		}
		done := false
		k.Go(func() {
			res, err = svc.InsertWithTS(ctx, key, []byte("v"), core.TS(1))
			done = true
		})
		k.Run(time.Minute)
		if !done {
			t.Fatal("simulation stalled")
		}
		return res, err, ring
	}

	t.Run("3 of 10 crashed", func(t *testing.T) {
		res, err, ring := run([]int{2, 5, 9}, 0)
		if err != nil || res.Stored != 7 {
			t.Errorf("stored %d, err %v; want 7 and none", res.Stored, err)
		}
		// One write alone, then nine together; a dead owner is tried
		// three times (the guess, the lookup, one retry after 100 ms).
		if want := rtt + 3*timeout + 100*time.Millisecond; res.Elapsed != want {
			t.Errorf("elapsed %v, want %v", res.Elapsed, want)
		}
		if int64(res.Msgs) != ring.wire.msgs.Load() || int64(res.Bytes) != ring.wire.bytes.Load() {
			t.Errorf("put reports %d msgs, %d bytes; the wire carried %d, %d",
				res.Msgs, res.Bytes, ring.wire.msgs.Load(), ring.wire.bytes.Load())
		}
		if _, overlapped := replicateModes(ring.reg); overlapped != 1 {
			t.Errorf("overlapped = %d, want 1", overlapped)
		}
	})
	t.Run("first owner crashed", func(t *testing.T) {
		// A write that times out has waited, too.
		res, err, ring := run([]int{0}, 0)
		if err != nil || res.Stored != 9 || ring.wire.max.Load() != 9 {
			t.Errorf("stored %d, err %v, %d writes in flight at once; want 9, none, 9", res.Stored, err, ring.wire.max.Load())
		}
	})
	t.Run("all crashed", func(t *testing.T) {
		res, err, _ := run([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0)
		if !errors.Is(err, core.ErrUnreachable) || res.Stored != 0 {
			t.Errorf("stored %d, err %v; want 0 and ErrUnreachable", res.Stored, err)
		}
	})
	t.Run("cancelled mid-fan-out", func(t *testing.T) {
		// Cancelled 100 ms into the fan-out: the six live branches are
		// in flight, the three to dead owners in their first timeout.
		at := rtt + 100*time.Millisecond
		res, err, _ := run([]int{2, 5, 9}, at)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err %v, want context.Canceled", err)
		}
		if res.Stored != 1 {
			t.Errorf("stored %d, want the one write that finished before the cancellation", res.Stored)
		}
		if res.Elapsed > at+timeout {
			t.Errorf("returned %v after the cancellation, more than one RPC timeout", res.Elapsed-at)
		}
	})
}

// TestOverlappedPutOnRealEnv drives the overlapped branch with real
// goroutines (run under -race): an endpoint whose round trip is longer
// than the threshold flips the put after its first write, the merged
// meter equals what the branches were charged, a deadline that falls
// under the fan-out comes back as the context's error, and no goroutine
// outlives the put.
func TestOverlappedPutOnRealEnv(t *testing.T) {
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
	ring.wire.rtt = 25 * time.Millisecond
	svc := ring.service(set)
	start := time.Now()
	res, err := svc.InsertWithTS(context.Background(), key, make([]byte, 1000), core.TS(1))
	took := time.Since(start)
	if err != nil || res.Stored != 10 {
		t.Fatalf("stored %d, err %v; want 10 and none", res.Stored, err)
	}
	if got := ring.wire.max.Load(); got != 9 {
		t.Errorf("%d writes in flight at once, want the 9 that follow the first", got)
	}
	if took >= 8*ring.wire.rtt {
		t.Errorf("put took %v: not overlapped (ten round trips of %v)", took, ring.wire.rtt)
	}
	if res.Msgs != 20 || int64(res.Msgs) != ring.wire.msgs.Load() || int64(res.Bytes) != ring.wire.bytes.Load() {
		t.Errorf("put reports %d msgs, %d bytes; the branches were charged %d, %d",
			res.Msgs, res.Bytes, ring.wire.msgs.Load(), ring.wire.bytes.Load())
	}
	if serial, overlapped := replicateModes(ring.reg); serial != 0 || overlapped != 1 {
		t.Errorf("replicate modes: %d serial, %d overlapped, want 0 and 1", serial, overlapped)
	}
	if !settled() {
		t.Errorf("%d goroutines after the put, %d before", runtime.NumGoroutine(), baseline)
	}

	// The other nine owners answer long after the deadline.
	for i := 1; i < 10; i++ {
		ring.wire.delay[stubOwner(i)] = 600 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start = time.Now()
	res, err = svc.InsertWithTS(ctx, key, make([]byte, 1000), core.TS(2))
	took = time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, core.ErrTimeout) {
		t.Errorf("err %v, want the context's deadline", err)
	}
	if res.Stored != 1 || took > 2*time.Second {
		t.Errorf("stored %d after %v; want 1, within one round trip of the deadline", res.Stored, took)
	}
	if !settled() {
		t.Errorf("%d goroutines after the cancelled put, %d before", runtime.NumGoroutine(), baseline)
	}
}

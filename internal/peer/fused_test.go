package peer

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/kts"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/onehop"
	"repro/internal/ums"
)

// fusedRing is an assembled onehop ring of n peers at |Hr| = 10 on w,
// each with a registry of its own. Onehop names every owner without a
// lookup, so whichever positions the timestamp responsible owns are the
// ones an issuer names.
func fusedRing(t *testing.T, w wire, n int) []*Stack {
	t.Helper()
	var stacks []*Stack
	var nodes []dht.RingNode
	for range n {
		s, err := New(w.env, w.newEP(t), nil, Config{Replicas: 10, Ring: RingOneHop, Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, s)
		nodes = append(nodes, s.Node)
	}
	AssembleRing(RingOneHop, nodes)
	for _, s := range stacks {
		s.Start()
	}
	return stacks
}

// fusedKey is a key of the ring with the Hr positions its timestamp
// responsible owns (at least one), that responsible, and a peer that
// owns no position of it when issuerOwns is false, or one other than the
// responsible that owns one when it is true.
type fusedKey struct {
	k         core.Key
	named     []int
	stamper   *Stack
	issuer    *Stack
	positions []hashing.Func
}

func findFusedKey(t *testing.T, stacks []*Stack, issuerOwns bool) fusedKey {
	t.Helper()
	set := hashing.NewSet(10)
	ownerOf := func(id core.ID) *Stack {
		for _, s := range stacks {
			if s.Node.OwnsID(id) {
				return s
			}
		}
		return nil
	}
	for i := 0; i < 10000; i++ {
		fk := fusedKey{k: core.Key(fmt.Sprintf("fused-%d", i)), positions: set.Hr}
		fk.stamper = ownerOf(set.HTS.ID(fk.k))
		owns := map[*Stack]bool{}
		for j, h := range set.Hr {
			o := ownerOf(h.ID(fk.k))
			owns[o] = true
			if o == fk.stamper {
				fk.named = append(fk.named, j)
			}
		}
		if len(fk.named) == 0 {
			continue
		}
		for _, s := range stacks {
			if s != fk.stamper && owns[s] == issuerOwns {
				fk.issuer = s
				return fk
			}
		}
	}
	t.Fatalf("no key whose timestamp responsible owns a replica (issuer owns one: %v)", issuerOwns)
	return fusedKey{}
}

// retrieveMode reads dcdht_ums_retrieve_total{mode} off a peer's
// registry.
func retrieveMode(s *Stack, mode string) uint64 {
	return s.Node.Obs().CounterVec("dcdht_ums_retrieve_total", "", "mode").With(mode).Value()
}

// onEachWire runs body on a fresh 8-peer ring on simwire and on tcpwire.
func onEachWire(t *testing.T, body func(t *testing.T, w wire, stacks []*Stack)) {
	for _, c := range []struct {
		name  string
		build func(*testing.T) wire
	}{{"simwire", simWire}, {"tcpwire", tcpWire}} {
		t.Run(c.name, func(t *testing.T) {
			w := c.build(t)
			body(t, w, fusedRing(t, w, 8))
		})
	}
}

// TestFusedCurrentGetIsOneCall: when rsp(k, hts) owns a replica
// position and the issuer owns none, a Current get — and a Bounded one
// whose cache cannot answer — asks that peer for last_ts and its replica
// in one call: two messages, one probe, Proven, counted as fused.
func TestFusedCurrentGetIsOneCall(t *testing.T) {
	onEachWire(t, func(t *testing.T, w wire, stacks []*Stack) {
		fk := findFusedKey(t, stacks, false)
		ctx := context.Background()
		w.run(func() {
			if _, err := fk.stamper.Insert(ctx, fk.k, []byte("v1")); err != nil {
				t.Errorf("put: %v", err)
			}
		})
		for _, pol := range []dht.ReadPolicy{{}, {Level: dht.LevelBounded, Bound: -1}} {
			before := retrieveMode(fk.issuer, "fused")
			var res dht.OpResult
			var err error
			w.run(func() { res, err = fk.issuer.Retrieve(ctx, fk.k, pol) })
			if err != nil || res.Currency != dht.CurrencyProven || string(res.Data) != "v1" {
				t.Errorf("%s get: %s %q, %v; want proven \"v1\"", pol.Level, res.Currency, res.Data, err)
			}
			if res.Msgs != 2 || res.Probed != 1 {
				t.Errorf("%s get: %d msgs, %d probes; want one call and one probe", pol.Level, res.Msgs, res.Probed)
			}
			if got := retrieveMode(fk.issuer, "fused") - before; got != 1 {
				t.Errorf("%s get: counted fused %d times, want once", pol.Level, got)
			}
		}
	})
}

// repairSink keeps the positions read-repair was handed.
type repairSink struct {
	mu    sync.Mutex
	stale []hashing.Func
}

func (r *repairSink) ReadRepair(_ core.Key, _ core.Value, stale []hashing.Func) {
	r.mu.Lock()
	r.stale = append(r.stale, stale...)
	r.mu.Unlock()
}

// TestFusedStaleReplicaIsProbedPast: replicas the timestamp responsible
// holds behind last_ts come back with it, are handed to read-repair, and
// the get probes on to a current one.
func TestFusedStaleReplicaIsProbedPast(t *testing.T) {
	onEachWire(t, func(t *testing.T, w wire, stacks []*Stack) {
		fk := findFusedKey(t, stacks, false)
		ctx := context.Background()
		w.run(func() {
			for _, v := range []string{"v1", "v2"} {
				if _, err := fk.stamper.Insert(ctx, fk.k, []byte(v)); err != nil {
					t.Errorf("put %s: %v", v, err)
				}
			}
		})
		var stale []hashing.Func
		for _, i := range fk.named {
			h := fk.positions[i]
			stale = append(stale, h)
			fk.stamper.Node.Store().Put(h.ID(fk.k), dht.Qualifier(ums.Namespace, fk.k, h.Name()), core.Value{Data: []byte("v1"), TS: core.TS(1)}, dht.PutOverwrite)
		}
		sink := &repairSink{}
		fk.issuer.UMS.SetReadRepair(sink)
		var res dht.OpResult
		var err error
		w.run(func() { res, err = fk.issuer.Retrieve(ctx, fk.k, dht.ReadPolicy{}) })
		if err != nil || res.Currency != dht.CurrencyProven || string(res.Data) != "v2" {
			t.Errorf("get: %s %q, %v; want proven \"v2\"", res.Currency, res.Data, err)
		}
		if want := len(fk.named) + 1; res.Probed != want {
			t.Errorf("get probed %d positions, want the %d stale ones then a current one", res.Probed, want)
		}
		sink.mu.Lock()
		defer sink.mu.Unlock()
		if !slices.Equal(sink.stale, stale) {
			t.Errorf("read-repair was handed %v, want the stale positions %v", sink.stale, stale)
		}
	})
}

// lyingRing names, for the positions in lie, the timestamp responsible
// as their owner; the rest is the node's own.
type lyingRing struct {
	*onehop.Node
	lie map[core.ID]dht.NodeRef
	reg *obs.Registry
}

func (r *lyingRing) Guess(id core.ID) (dht.NodeRef, dht.GuessSource) {
	if ref, ok := r.lie[id]; ok {
		return ref, dht.GuessRouting
	}
	return r.Node.Guess(id)
}

func (r *lyingRing) Obs() *obs.Registry { return r.reg }

// TestFusedRefusedPositionGoesTheOrdinaryWay: a named position the
// timestamp responsible does not own is refused on its own — the grant
// and the positions it does own stand — and is then written, or left to
// the probe loop, the ordinary way.
func TestFusedRefusedPositionGoesTheOrdinaryWay(t *testing.T) {
	onEachWire(t, func(t *testing.T, w wire, stacks []*Stack) {
		fk := findFusedKey(t, stacks, false)
		ctx := context.Background()
		wrong := slices.IndexFunc(fk.positions, func(h hashing.Func) bool { return !fk.stamper.Node.OwnsID(h.ID(fk.k)) })
		id := fk.positions[wrong].ID(fk.k)
		ring := &lyingRing{Node: fk.issuer.Node.(*onehop.Node), lie: map[core.ID]dht.NodeRef{id: fk.stamper.Node.Self()}, reg: obs.NewRegistry()}
		svc := ums.New(ring, hashing.NewSet(10), fk.issuer.KTS)

		// At the KTS layer: the refusal is that position's alone.
		at := append(slices.Clone(fk.named), wrong)
		var ts core.Timestamp
		var sv kts.Served
		var err error
		w.run(func() { ts, sv, err = fk.issuer.KTS.GenTSStore(ctx, fk.k, []byte("v1"), at) })
		if err != nil || ts != core.TS(1) {
			t.Fatalf("fused gen_ts: %v, %v; want ts(1)", ts, err)
		}
		for j, i := range at {
			if refused := i == wrong; refused != errors.Is(sv.Errs[j], core.ErrNotResponsible) || sv.Stored[j] == refused {
				t.Errorf("position %d: stored %v, %v; want refused %v", i, sv.Stored[j], sv.Errs[j], refused)
			}
		}

		// A put: the refused position is written the ordinary way.
		var res dht.OpResult
		w.run(func() { res, err = svc.Insert(ctx, fk.k, []byte("v2")) })
		if err != nil || res.Stored != 10 {
			t.Errorf("put: stored %d, %v; want 10", res.Stored, err)
		}
		qual := dht.Qualifier(ums.Namespace, fk.k, fk.positions[wrong].Name())
		for _, s := range stacks {
			if v, ok := s.Node.Store().Get(id, qual); ok != s.Node.OwnsID(id) || ok && v.TS != res.TS {
				t.Errorf("%s holds %v (%v) at the refused position; want its owner alone, at %v", s.Node.Self().Addr, v.TS, ok, res.TS)
			}
		}

		// A get: the refused position is no probe; the owned one answers.
		var get dht.OpResult
		w.run(func() { get, err = svc.Retrieve(ctx, fk.k) })
		if err != nil || get.Currency != dht.CurrencyProven || get.Probed != 1 || get.Msgs != 2 {
			t.Errorf("get: %s after %d probes, %d msgs, %v; want proven after one probe in one call", get.Currency, get.Probed, get.Msgs, err)
		}
	})
}

// TestFusedPutStoresUnderItsGrant: a put's positions the timestamp
// responsible owns are stored by its gen_ts under the timestamp it
// granted, and the put sends them no write of its own — a warm put costs
// two messages for the grant plus two per other remote owner.
func TestFusedPutStoresUnderItsGrant(t *testing.T) {
	onEachWire(t, func(t *testing.T, w wire, stacks []*Stack) {
		fk := findFusedKey(t, stacks, false)
		ctx := context.Background()
		owners := map[network.Addr]bool{}
		for _, h := range fk.positions {
			for _, s := range stacks {
				if s.Node.OwnsID(h.ID(fk.k)) && s != fk.stamper {
					owners[s.Node.Self().Addr] = true
				}
			}
		}
		for round := range 2 {
			var res dht.OpResult
			var err error
			w.run(func() { res, err = fk.issuer.Insert(ctx, fk.k, []byte(fmt.Sprint(round))) })
			if err != nil || res.Stored != 10 || res.TS != core.TS(uint64(round+1)) {
				t.Fatalf("put %d: stored %d at %v, %v", round, res.Stored, res.TS, err)
			}
			// The first gen_ts of a key also pays its counter's
			// initialization (Figure 5).
			if want := 2 + 2*len(owners); round > 0 && res.Msgs != want {
				t.Errorf("put %d: %d msgs, want %d", round, res.Msgs, want)
			}
			for _, i := range fk.named {
				h := fk.positions[i]
				v, ok := fk.stamper.Node.Store().Get(h.ID(fk.k), dht.Qualifier(ums.Namespace, fk.k, h.Name()))
				if !ok || v.TS != res.TS || string(v.Data) != fmt.Sprint(round) {
					t.Errorf("put %d: position %d holds %q at %v (%v), want %q at the grant %v", round, i, v.Data, v.TS, ok, fmt.Sprint(round), res.TS)
				}
			}
		}
	})
}

// TestIssuerOwningAReplicaNamesNone: a get from a peer that owns one of
// the key's positions reads that replica itself, in-process, and asks
// rsp(k, hts) for last_ts alone — even when that peer owns a position
// too.
func TestIssuerOwningAReplicaNamesNone(t *testing.T) {
	onEachWire(t, func(t *testing.T, w wire, stacks []*Stack) {
		fk := findFusedKey(t, stacks, true)
		ctx := context.Background()
		var res dht.OpResult
		var err error
		w.run(func() {
			if _, err = fk.stamper.Insert(ctx, fk.k, []byte("v")); err != nil {
				t.Errorf("put: %v", err)
			}
			res, err = fk.issuer.Retrieve(ctx, fk.k, dht.ReadPolicy{})
		})
		if err != nil || res.Currency != dht.CurrencyProven || res.Probed != 1 || res.Msgs != 2 {
			t.Errorf("get: %s after %d probes, %d msgs, %v; want proven from its own replica for last_ts's two", res.Currency, res.Probed, res.Msgs, err)
		}
		if fused, serial := retrieveMode(fk.issuer, "fused"), retrieveMode(fk.issuer, "serial"); fused != 0 || serial != 1 {
			t.Errorf("retrieve modes: %d fused, %d serial; want a serial get", fused, serial)
		}
	})
}

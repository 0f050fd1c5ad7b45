package ums_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/simnet"
)

// onStubWorlds runs body on a stub ring on the simulation kernel and on
// the wall clock; body runs as an activity and reports with t.Errorf.
func onStubWorlds(t *testing.T, set hashing.Set, key core.Key, body func(t *testing.T, ring *stubRing)) {
	t.Run("simwire", func(t *testing.T) {
		k := simnet.New(1)
		ring := newStubRing(simwire.Env(k), set, key)
		done := false
		k.Go(func() {
			body(t, ring)
			done = true
		})
		k.Run(time.Minute)
		if !done {
			t.Fatal("simulation stalled")
		}
	})
	t.Run("real", func(t *testing.T) {
		env := network.NewRealEnv(1)
		defer env.Close()
		body(t, newStubRing(env, set, key))
	})
}

// TestEarlyProbeSkipsNamedPositions: on WAN-like round trips the probe
// sent alongside a slow last_ts goes to a remote position last_ts does
// not name — the named ones come back with last_ts — and goes nowhere
// when last_ts names every remote position, or every one it does not
// name needs a lookup first; either way the get is Proven after one
// probe.
func TestEarlyProbeSkipsNamedPositions(t *testing.T) {
	const rtt = 40 * time.Millisecond
	key := core.Key("k")
	set := hashing.NewSet(10)
	for _, c := range []struct {
		name       string
		named      int  // the first named positions share rsp(k, hts)
		cold       bool // the issuer cannot guess the other positions' owners
		reads      []network.Addr
		msgs       int
		overlapped uint64
	}{
		{"another remote position left", 2, false, []network.Addr{stubOwner(2)}, 4, 1},
		{"every position named", 10, false, nil, 2, 0},
		{"the others unguessable", 2, true, nil, 2, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			onStubWorlds(t, set, key, func(t *testing.T, ring *stubRing) {
				for i, h := range set.Hr {
					if id := h.ID(key); i < c.named {
						ring.owners[id] = dht.NodeRef{ID: id, Addr: stubKTS}
					} else if c.cold {
						ring.noGuess[id] = true
					}
				}
				ring.wire.rtt, ring.wire.stamp = rtt, core.TS(1)
				svc := ring.service(set)
				res, err := svc.Retrieve(context.Background(), key)
				if err != nil || res.Currency != dht.CurrencyProven || res.Probed != 1 || res.Msgs != c.msgs {
					t.Errorf("get: %s after %d probes, %d msgs, %v; want proven after 1, %d msgs", res.Currency, res.Probed, res.Msgs, err, c.msgs)
				}
				if got := ring.wire.readFrom(); !reflect.DeepEqual(got, c.reads) {
					t.Errorf("replica reads went to %v, want %v", got, c.reads)
				}
				if _, overlapped := retrieveModes(ring.reg); overlapped != c.overlapped {
					t.Errorf("%d gets overlapped, want %d", overlapped, c.overlapped)
				}
			})
		})
	}
}

// TestRepairHookWritesOncePerOwner: the §4.2.2 repair hook re-stamps
// the key as a put writes it — one request per owner, the positions two
// share in one batch — and counts as no put.
func TestRepairHookWritesOncePerOwner(t *testing.T) {
	key := core.Key("k")
	set := hashing.NewSet(10)
	id := func(i int) core.ID { return set.Hr[i].ID(key) }
	k := simnet.New(1)
	ring := newStubRing(simwire.Env(k), set, key)
	ring.wire.rtt, ring.wire.stamp = time.Millisecond, core.TS(1)
	ring.owners[id(2)] = ring.owners[id(0)] // 0 and 2 share an owner
	svc := ring.service(set)
	k.Go(func() { svc.Repair(key, core.TS(1), core.TS(5)) })
	k.Run(time.Minute)
	want := map[network.Addr]int{}
	for i := range set.Hr {
		if i != 2 {
			want[stubOwner(i)] = 1
		}
	}
	if !reflect.DeepEqual(ring.wire.writes, want) {
		t.Errorf("the hook sent writes %v, want one per owner %v", ring.wire.writes, want)
	}
	if serial, overlapped := replicateModes(ring.reg); serial+overlapped+prefetchedPuts(ring.reg) != 0 {
		t.Errorf("the hook counted as %d puts", serial+overlapped+prefetchedPuts(ring.reg))
	}
}

package peer

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/network/tcpwire"
	"repro/internal/obs"
	"repro/internal/onehop"
	"repro/internal/repair"
	"repro/internal/simnet"
	"repro/internal/store"
)

// wire is one of the two worlds a Stack is assembled in: where its Env
// and endpoints come from, and how work is driven there.
type wire struct {
	env   network.Env
	newEP func(t *testing.T) network.Endpoint
	// run executes fn as an activity of env and waits for it.
	run func(fn func())
	// settle lets background work proceed until done reports true (or a
	// few seconds of the world's own time have passed).
	settle func(done func() bool)
}

func simWire(t *testing.T) wire {
	k := simnet.New(1)
	t.Cleanup(k.Stop)
	net := simwire.New(k, simwire.Cluster())
	settle := func(done func() bool) {
		for i := 0; i < 50 && !done(); i++ {
			k.Run(k.Now() + 100*time.Millisecond)
		}
	}
	return wire{
		env:   net.Env(),
		newEP: func(*testing.T) network.Endpoint { return net.NewEndpoint("") },
		run: func(fn func()) {
			finished := false
			k.Go(func() { fn(); finished = true })
			settle(func() bool { return finished })
		},
		settle: settle,
	}
}

func tcpWire(t *testing.T) wire {
	env := network.NewRealEnv(1)
	t.Cleanup(env.Close)
	return wire{
		env: env,
		newEP: func(t *testing.T) network.Endpoint {
			ep, err := tcpwire.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ep.Close() })
			return ep
		},
		run: func(fn func()) { fn() },
		settle: func(done func() bool) {
			for deadline := time.Now().Add(5 * time.Second); !done() && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
		},
	}
}

// TestStackParity: the same Config yields the same wiring whichever
// wire the peer stands on — that is what makes the simulator's results
// say something about the TCP deployment.
func TestStackParity(t *testing.T) {
	for name, build := range map[string]func(*testing.T) wire{"simwire": simWire, "tcpwire": tcpWire} {
		t.Run(name, func(t *testing.T) {
			w := build(t)
			set := hashing.NewSet(3)

			bare, err := New(w.env, w.newEP(t), nil, Config{Replicas: 3})
			if err != nil {
				t.Fatal(err)
			}
			if bare.Repair != nil {
				t.Errorf("maintenance nobody asked for: repair %v", bare.Repair)
			}
			if bare.KTS.VCSLen() != 0 {
				t.Errorf("volatile peer starts with %d counters", bare.KTS.VCSLen())
			}

			if _, err := New(w.env, w.newEP(t), nil, Config{Replicas: 3, Ring: "bogus"}); err == nil {
				t.Error("ring \"bogus\" was accepted")
			}

			// The full stack, on a backing that retained one counter.
			seeded := core.Timestamp{Hi: 7, Lo: 9}
			backing := store.NewMem()
			if err := backing.PutCounter("seeded", seeded); err != nil {
				t.Fatal(err)
			}
			full, err := New(w.env, w.newEP(t), backing, Config{
				Replicas: 3,
				Ring:     RingOneHop,
				Repair:   repair.Config{ReadRepair: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if full.Repair == nil {
				t.Fatal("maintenance missing: no repair")
			}
			if full.Node.Store().Backing() != backing {
				t.Error("the replica store does not sit on the backing")
			}
			full.Node.CreateRing()
			full.Start()

			ctx := context.Background()
			var lastSeeded core.Timestamp
			w.run(func() {
				if lastSeeded, err = full.LastTS(ctx, "seeded"); err != nil {
					t.Errorf("last_ts of the recovered counter: %v", err)
				}
				if _, err := full.Insert(ctx, "k", []byte("v")); err != nil {
					t.Errorf("insert: %v", err)
				}
			})
			if lastSeeded != seeded {
				t.Errorf("KTS answers %v for the recovered counter, want %v", lastSeeded, seeded)
			}
			if n := len(backing.Counters()); n != 2 {
				t.Errorf("backing journals %d counters after one insert, want the recovered one and the new one", n)
			}

			// Repair is the UMS read-repairer: wipe the first-probed
			// replica, read, and the position comes back.
			first := set.Hr[0].ID("k")
			if wiped := full.Node.Store().CollectIf(func(id core.ID) bool { return id == first }, true); len(wiped) != 1 {
				t.Fatalf("wiped %d replicas at the first position, want 1", len(wiped))
			}
			w.run(func() {
				if r, err := full.Retrieve(ctx, "k", dht.ReadPolicy{}); err != nil || string(r.Data) != "v" {
					t.Errorf("retrieve = %q, %v", r.Data, err)
				}
			})
			w.settle(func() bool { return full.Repair.Stats().ReadRepairs == 1 })
			if got := full.Repair.Stats().ReadRepairs; got != 1 {
				t.Errorf("read-repairs = %d, want the wiped position refreshed once", got)
			}
		})
	}
}

// TestDerive pins the one rule that turns chord's timers into the other
// substrates' and into KTS's patience.
func TestDerive(t *testing.T) {
	for _, tc := range []struct {
		name     string
		chord    chord.Config
		ping     time.Duration // CAN's and onehop's PingEvery
		rpc      time.Duration // their RPCTimeout
		patience time.Duration // KTS's RPCTimeout
	}{
		{"table 1", chord.Config{StabilizeEvery: 30 * time.Second, FixFingersEvery: 45 * time.Second,
			CheckPredEvery: 30 * time.Second, RPCTimeout: 2 * time.Second}, 30 * time.Second, 2 * time.Second, 30 * time.Second},
		{"cluster", chord.Config{StabilizeEvery: 2 * time.Second, CheckPredEvery: 2 * time.Second,
			RPCTimeout: 250 * time.Millisecond}, 2 * time.Second, 250 * time.Millisecond, 3750 * time.Millisecond},
		{"node", chord.Config{CheckPredEvery: time.Second, RPCTimeout: 2 * time.Second}, time.Second, 2 * time.Second, 30 * time.Second},
		// Zero stays zero, so each substrate keeps its own default; KTS
		// waits 15 of the substrates' 2s default.
		{"zero", chord.Config{}, 0, 0, 30 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			member := dht.MemberConfig{NoDataHandoff: true, Obs: obs.NewRegistry()}
			ch, c, h, patience := derive(tc.chord, member)
			want := tc.chord
			want.MemberConfig = member
			if ch != want {
				t.Errorf("chord = %+v, want %+v", ch, want)
			}
			if want := (can.Config{PingEvery: tc.ping, RPCTimeout: tc.rpc, MemberConfig: member}); c != want {
				t.Errorf("can = %+v, want %+v", c, want)
			}
			if want := (onehop.Config{PingEvery: tc.ping, RPCTimeout: tc.rpc, MemberConfig: member}); h != want {
				t.Errorf("onehop = %+v, want %+v", h, want)
			}
			if patience != tc.patience {
				t.Errorf("KTS patience = %v, want %v", patience, tc.patience)
			}
		})
	}
}

// TestNoDataHandoffOnEveryRing: on each substrate New builds, the
// replicas on positions that change hands move to their new
// responsible — a joiner taking them over (join), or the heir of a
// graceful leaver (leave) — unless NoDataHandoff is set; then they stay
// behind on the peer that ceded the positions.
func TestNoDataHandoffOnEveryRing(t *testing.T) {
	for _, kind := range []RingKind{RingChord, RingCAN, RingOneHop} {
		for _, noHandoff := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/NoDataHandoff=%v", kind, noHandoff), func(t *testing.T) {
				w := simWire(t)
				cfg := Config{Replicas: 1, Ring: kind, NoDataHandoff: noHandoff}
				build := func() *Stack {
					s, err := New(w.env, w.newEP(t), nil, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				// moved checks each of ids, stored under q at from, against
				// the handoff model: at to with handoff, left at from
				// without.
				moved := func(t *testing.T, from, to dht.RingNode, ids []core.ID, q string) {
					for _, id := range ids {
						_, behind := from.Store().Get(id, q)
						_, there := to.Store().Get(id, q)
						if behind != noHandoff || there == noHandoff {
							t.Errorf("position %v changed hands: left behind %v, at the new responsible %v; want behind only without handoff",
								id, behind, there)
						}
					}
					if len(ids) == 0 {
						t.Fatal("no stored position changed hands")
					}
				}
				// A ring of one owns every position.
				first := build()
				first.Node.CreateRing()
				ids := make([]core.ID, 32)
				for i := range ids {
					ids[i] = core.ID(uint64(i) * (math.MaxUint64 / uint64(len(ids))))
					first.Node.Store().Put(ids[i], "q", core.Value{TS: core.TS(1)}, dht.PutOverwrite)
				}
				joiner := build()
				var taken []core.ID
				t.Run("join", func(t *testing.T) {
					w.run(func() {
						if err := joiner.Node.Join(first.Node.Self().Addr); err != nil {
							t.Errorf("join: %v", err)
						}
					})
					for _, id := range ids {
						if !first.Node.OwnsID(id) {
							taken = append(taken, id)
						}
					}
					moved(t, first.Node, joiner.Node, taken, "q")
				})
				t.Run("leave", func(t *testing.T) {
					for _, id := range taken {
						joiner.Node.Store().Put(id, "l", core.Value{TS: core.TS(2)}, dht.PutOverwrite)
					}
					w.run(func() {
						if err := joiner.Node.Leave(); err != nil {
							t.Errorf("leave: %v", err)
						}
					})
					moved(t, joiner.Node, first.Node, taken, "l")
				})
			})
		}
	}
}

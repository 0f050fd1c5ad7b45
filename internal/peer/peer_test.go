package peer

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/network/tcpwire"
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

			bare, err := New(w.env, w.newEP(t), nil, Config{Set: set})
			if err != nil {
				t.Fatal(err)
			}
			if bare.Repub != nil || bare.Repair != nil {
				t.Errorf("maintenance nobody asked for: republisher %v, repair %v", bare.Repub, bare.Repair)
			}
			if bare.KTS.VCSLen() != 0 {
				t.Errorf("volatile peer starts with %d counters", bare.KTS.VCSLen())
			}

			if _, err := New(w.env, w.newEP(t), nil, Config{Set: set, Ring: "bogus"}); err == nil {
				t.Error("ring \"bogus\" was accepted")
			}

			// The full stack, on a backing that retained one counter.
			seeded := core.Timestamp{Hi: 7, Lo: 9}
			backing := store.NewMem()
			if err := backing.PutCounter("seeded", seeded); err != nil {
				t.Fatal(err)
			}
			full, err := New(w.env, w.newEP(t), backing, Config{
				Set:       set,
				Ring:      RingOneHop,
				Republish: dht.RepublishConfig{Every: time.Hour},
				Repair:    repair.Config{ReadRepair: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if full.Repub == nil || full.Repair == nil {
				t.Fatalf("maintenance missing: republisher %v, repair %v", full.Repub, full.Repair)
			}
			if full.Node.Store().Backing() != store.Store(backing) {
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

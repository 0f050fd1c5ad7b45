package dht

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/network/tcpwire"
	"repro/internal/simnet"
)

// soloRing is a ring of one Member that names itself the owner of every
// position and owns those owns accepts (all of them when owns is nil).
type soloRing struct {
	*Member
	owns func(core.ID) bool
}

func newSoloRing(env network.Env, ep network.Endpoint, owns func(core.ID) bool) soloRing {
	return soloRing{Member: NewMember(env, ep, 1, MemberConfig{}, 0, owns), owns: owns}
}

func (r soloRing) Lookup(context.Context, core.ID) (NodeRef, int, error) { return r.Self(), 0, nil }
func (r soloRing) Guess(core.ID) (NodeRef, GuessSource)                  { return r.Self(), GuessRouting }
func (r soloRing) OwnsID(id core.ID) bool                                { return r.owns == nil || r.owns(id) }
func (r soloRing) HeldSince() time.Duration                              { return 0 }

// onEachWire runs body on a solo ring over simwire (inside a kernel
// process, so body reports with t.Errorf, never t.Fatalf) and over
// tcpwire (on the wall clock).
func onEachWire(t *testing.T, owns func(core.ID) bool, body func(t *testing.T, ring soloRing)) {
	t.Run("simwire", func(t *testing.T) {
		k := simnet.New(1)
		ring := newSoloRing(simwire.Env(k), simwire.New(k, simwire.Config{}).NewEndpoint("solo"), owns)
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
	t.Run("tcpwire", func(t *testing.T) {
		ep, err := tcpwire.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		env := network.NewRealEnv(1)
		defer env.Close()
		body(t, newSoloRing(env, ep, owns))
	})
}

// TestLocalStoreOpsAreValueSafe: a put and a get a peer addresses to
// itself run in-process — no message is charged — yet share no memory
// with the caller: overwriting the buffer a put was handed, or the slice
// a get returned, leaves the stored replica as it was.
func TestLocalStoreOpsAreValueSafe(t *testing.T) {
	onEachWire(t, nil, func(t *testing.T, ring soloRing) {
		var meter network.Meter
		ctx := network.WithMeter(context.Background(), &meter)
		c := NewClient(ring, "ums")
		k, h := core.Key("k"), hashing.NewSet(1).Hr[0]
		buf := []byte("original")
		if err := c.PutH(ctx, k, h, core.Value{Data: buf, TS: core.TS(1)}, PutIfNewer); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		buf[0] = 'X'
		got, err := c.GetH(ctx, k, h)
		if err != nil || string(got.Data) != "original" {
			t.Errorf("get after the put's buffer changed: %q, %v; want %q", got.Data, err, "original")
			return
		}
		got.Data[0] = 'Y'
		again, err := c.GetH(ctx, k, h)
		if err != nil || string(again.Data) != "original" {
			t.Errorf("get after the last get's slice changed: %q, %v; want %q", again.Data, err, "original")
		}
		if stored, _ := ring.Store().Get(h.ID(k), Qualifier("ums", k, h.Name())); string(stored.Data) != "original" {
			t.Errorf("stored replica reads %q, want %q", stored.Data, "original")
		}
		if meter.Msgs != 0 {
			t.Errorf("local ops charged %d msgs, want 0", meter.Msgs)
		}
	})
}

// TestLocalStoreOpsKeepTheirChecks: the in-process path runs the same
// handlers as the endpoint, so a position the peer does not own is
// refused (and stays refused after the re-resolution), a missing
// replica is not found, and a stopped peer answers ErrStopped.
func TestLocalStoreOpsKeepTheirChecks(t *testing.T) {
	h := hashing.NewSet(1).Hr[0]
	owns := func(id core.ID) bool { return id%2 == 0 }
	var mine, theirs core.Key
	for i := 0; mine == "" || theirs == ""; i++ {
		k := core.Key(string(rune('a' + i)))
		if owns(h.ID(k)) {
			mine = k
		} else {
			theirs = k
		}
	}
	onEachWire(t, owns, func(t *testing.T, ring soloRing) {
		ctx := context.Background()
		c := NewClient(ring, "ums")
		val := core.Value{Data: []byte("v"), TS: core.TS(1)}
		if err := c.PutH(ctx, theirs, h, val, PutOverwrite); !errors.Is(err, core.ErrNotResponsible) {
			t.Errorf("put on a position not owned: %v, want ErrNotResponsible", err)
		}
		if _, err := c.GetH(ctx, mine, h); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("get of a missing replica: %v, want ErrNotFound", err)
		}
		if err := c.PutH(ctx, mine, h, val, PutOverwrite); err != nil {
			t.Errorf("put on an owned position: %v", err)
		}
		ring.Stop()
		if _, err := c.GetH(ctx, mine, h); !errors.Is(err, core.ErrStopped) {
			t.Errorf("get on a stopped peer: %v, want ErrStopped", err)
		}
	})
}

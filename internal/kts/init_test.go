package kts

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// replica is what one replica position answers a read with.
type replica int

const (
	unreachable replica = iota // no answer: the owner is down or cut off
	absent                     // the owner answers that it holds nothing
	stamped                    // the owner holds a replica stamped 7
	rogue                      // the owner answers with a put's reply
)

// initRing is a ring on which the issuer is the key's KTS responsible
// and every replica position has an owner of its own, answering reads
// as scripted: gen_ts is served locally, so its indirect initialization
// reads exactly those answers.
type initRing struct {
	env     network.Env
	set     hashing.Set
	k       core.Key
	answers map[network.Addr]replica
	// steady says the responsible's arc is held since heldAt; otherwise
	// HeldSince reports Env.Now(), as a ring with no steady arc does.
	steady bool
	heldAt time.Duration
}

func ownerAddr(i int) network.Addr { return network.Addr(fmt.Sprintf("owner%d", i)) }

func (r *initRing) Self() dht.NodeRef { return dht.NodeRef{ID: r.set.HTS.ID(r.k), Addr: "kts"} }
func (r *initRing) Lookup(_ context.Context, id core.ID) (dht.NodeRef, int, error) {
	ref, _ := r.Guess(id)
	return ref, 0, nil
}
func (r *initRing) Guess(id core.ID) (dht.NodeRef, dht.GuessSource) {
	for i, h := range r.set.Hr {
		if h.ID(r.k) == id {
			return dht.NodeRef{ID: id, Addr: ownerAddr(i)}, dht.GuessRouting
		}
	}
	return r.Self(), dht.GuessRouting
}
func (r *initRing) Endpoint() network.Endpoint         { return r }
func (r *initRing) Env() network.Env                   { return r.env }
func (r *initRing) OwnsID(id core.ID) bool             { return id == r.set.HTS.ID(r.k) }
func (r *initRing) Alive() bool                        { return true }
func (r *initRing) Obs() *obs.Registry                 { return nil }
func (r *initRing) Addr() network.Addr                 { return "kts" }
func (r *initRing) Handle(string, network.HandlerFunc) {}
func (r *initRing) Close() error                       { return nil }

func (r *initRing) HeldSince() time.Duration {
	if r.steady {
		return r.heldAt
	}
	return r.env.Now()
}

func (r *initRing) Invoke(ctx context.Context, to network.Addr, _ string, req network.Message, _ network.Call) (network.Message, error) {
	network.MeterFrom(ctx).Count(network.SizeOf(req))
	switch r.answers[to] {
	case absent:
		network.MeterFrom(ctx).Count(network.DefaultWireSize)
		return nil, fmt.Errorf("stub: %s: %w", to, core.ErrNotFound)
	case stamped:
		network.MeterFrom(ctx).Count(network.DefaultWireSize)
		return dht.GetResp{Val: core.Value{Data: []byte("v"), TS: core.TS(7)}}, nil
	case rogue:
		return dht.PutResp{Stored: true}, nil
	}
	return nil, fmt.Errorf("stub: %s: %w", to, core.ErrUnreachable)
}

// TestIndirectInitTellsAbsentFromUnreachable: a counter initialized from
// replicas that no read reached is refused with ErrUnreachable rather
// than restarted at 1, and nothing is installed for it; one position
// answering "nothing here" keeps Figure 5's zero, as do all of them; a
// replica anywhere sets the counter past it.
func TestIndirectInitTellsAbsentFromUnreachable(t *testing.T) {
	key := core.Key("k")
	set := hashing.NewSet(5)
	all := func(a replica) []replica { return []replica{a, a, a, a, a} }
	for _, c := range []struct {
		name    string
		answers []replica
		want    core.Timestamp // zero: gen_ts must fail with ErrUnreachable
	}{
		{"all unreachable", all(unreachable), core.TSZero},
		{"mixed", []replica{unreachable, absent, unreachable, unreachable, unreachable}, core.TS(1)},
		{"all absent", all(absent), core.TS(1)},
		{"one stamped", []replica{unreachable, unreachable, stamped, absent, unreachable}, core.TS(9)},
		// A reply of the wrong type counts as no answer at all.
		{"all rogue", all(rogue), core.TSZero},
		{"rogue and absent", []replica{rogue, absent, rogue, rogue, rogue}, core.TS(1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := simnet.New(1)
			ring := &initRing{env: simwire.Env(k), set: set, k: key, answers: map[network.Addr]replica{}}
			for i, a := range c.answers {
				ring.answers[ownerAddr(i)] = a
			}
			svc := New(ring, set, "ums", Config{GraceDelay: -1})
			var ts core.Timestamp
			var err error
			done := false
			k.Go(func() {
				ts, err = svc.GenTS(context.Background(), key)
				done = true
			})
			k.Run(time.Hour)
			if !done {
				t.Fatal("simulation stalled")
			}
			if c.want.IsZero() {
				if !errors.Is(err, core.ErrUnreachable) || svc.VCSLen() != 0 {
					t.Errorf("gen_ts = %v, err %v, %d counters; want ErrUnreachable and no counter", ts, err, svc.VCSLen())
				}
				return
			}
			if err != nil || ts != c.want {
				t.Errorf("gen_ts = %v, err %v; want %v", ts, err, c.want)
			}
		})
	}
}

// TestFirstStampWaitsWhatIsLeftOfGrace times the first gen_ts and last_ts
// of a never-stamped key in virtual time. The stub's reads take none, so
// what a call takes is exactly the grace it waited: GraceDelay measured
// from the last change to the responsible's arc, the full delay when the
// ring reports no steady arc or under RLU, and nothing when the delay is
// negative. The second gen_ts of a key finds its counter and waits for
// nothing, except under RLU, where every gen_ts builds one.
func TestFirstStampWaitsWhatIsLeftOfGrace(t *testing.T) {
	const grace = 400 * time.Millisecond
	const at = time.Second // when the calls start
	key := core.Key("k")
	set := hashing.NewSet(5)
	for _, c := range []struct {
		name   string
		steady bool
		heldAt time.Duration
		cfg    Config
		want   [2]time.Duration // first and second gen_ts; last_ts waits the first
	}{
		{"arc held past grace", true, 0, Config{GraceDelay: grace}, [2]time.Duration{0, 0}},
		{"arc held exactly grace", true, at - grace, Config{GraceDelay: grace}, [2]time.Duration{0, 0}},
		{"arc changed 150ms ago", true, at - 150*time.Millisecond, Config{GraceDelay: grace}, [2]time.Duration{grace - 150*time.Millisecond, 0}},
		{"arc changed now", true, at, Config{GraceDelay: grace}, [2]time.Duration{grace, 0}},
		{"unknown predecessor", false, 0, Config{GraceDelay: grace}, [2]time.Duration{grace, 0}},
		{"RLU on a held arc", true, 0, Config{GraceDelay: grace, RLU: true}, [2]time.Duration{grace, grace}},
		{"negative grace", false, 0, Config{GraceDelay: -1}, [2]time.Duration{0, 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(op func(*Service, network.Env) []time.Duration) []time.Duration {
				k := simnet.New(1)
				ring := &initRing{env: simwire.Env(k), set: set, k: key, answers: map[network.Addr]replica{},
					steady: c.steady, heldAt: c.heldAt}
				for i := range set.Hr {
					ring.answers[ownerAddr(i)] = absent
				}
				svc := New(ring, set, "ums", c.cfg)
				var took []time.Duration
				k.Go(func() {
					if ring.env.Sleep(at) == nil {
						took = op(svc, ring.env)
					}
				})
				k.Run(time.Hour)
				if took == nil {
					t.Fatal("simulation stalled")
				}
				return took
			}
			gen := run(func(svc *Service, env network.Env) []time.Duration {
				var took []time.Duration
				for i := 0; i < 2; i++ {
					start := env.Now()
					ts, err := svc.GenTS(context.Background(), key)
					took = append(took, env.Now()-start)
					// No replica is ever written, so RLU's second init
					// starts over; only the first stamp is pinned.
					if err != nil || (i == 0 && ts != core.TS(1)) {
						t.Errorf("gen_ts #%d = %v, %v; want ts(1) first", i+1, ts, err)
					}
				}
				return took
			})
			if gen[0] != c.want[0] || gen[1] != c.want[1] {
				t.Errorf("gen_ts took %v then %v; want %v then %v", gen[0], gen[1], c.want[0], c.want[1])
			}
			last := run(func(svc *Service, env network.Env) []time.Duration {
				start := env.Now()
				ts, err := svc.LastTS(context.Background(), key)
				if err != nil || !ts.IsZero() {
					t.Errorf("last_ts = %v, %v; want zero", ts, err)
				}
				return []time.Duration{env.Now() - start}
			})
			if last[0] != c.want[0] {
				t.Errorf("last_ts took %v; want %v", last[0], c.want[0])
			}
		})
	}
}

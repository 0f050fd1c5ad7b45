package dht

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
)

// scriptedRing is a Ring whose guess and lookup both name the peer
// itself and which records the order the router consults it in. It
// remembers no arcs: it is no GuessForgetter.
type scriptedRing struct {
	src   GuessSource
	calls []string
}

func (r *scriptedRing) Self() NodeRef { return NodeRef{ID: 1, Addr: "self"} }
func (r *scriptedRing) Lookup(context.Context, core.ID) (NodeRef, int, error) {
	r.calls = append(r.calls, "lookup")
	return r.Self(), 0, nil
}
func (r *scriptedRing) Guess(core.ID) (NodeRef, GuessSource) {
	r.calls = append(r.calls, "guess")
	return r.Self(), r.src
}
func (r *scriptedRing) Endpoint() network.Endpoint { return nil }
func (r *scriptedRing) Env() network.Env           { return sleeper{r: r} }
func (r *scriptedRing) OwnsID(core.ID) bool        { return true }
func (r *scriptedRing) HeldSince() time.Duration   { return 0 } // no Env: nothing reads it
func (r *scriptedRing) Alive() bool                { return true }
func (r *scriptedRing) Obs() *obs.Registry         { return nil }

// sleeper is a scriptedRing's environment: it records every back-off
// among the ring's calls and has nothing else.
type sleeper struct {
	network.Env
	r *scriptedRing
}

func (s sleeper) Sleep(time.Duration) error {
	s.r.calls = append(s.r.calls, "sleep")
	return nil
}

// forgettingRing is a scriptedRing that remembers arcs, so the router
// reports every missed guess to it.
type forgettingRing struct{ scriptedRing }

func (r *forgettingRing) GuessMissed(ref NodeRef) {
	r.calls = append(r.calls, "missed "+string(ref.Addr))
}

// refuseFirst is a local put handler that turns the first n operations
// away as not its own and stores the rest.
func refuseFirst(n int) map[string]network.HandlerFunc {
	return map[string]network.HandlerFunc{MethodPut: func(network.Addr, network.Message) (network.Message, error) {
		if n > 0 {
			n--
			return nil, core.ErrNotResponsible
		}
		return PutResp{Stored: true}, nil
	}}
}

// TestRouterReportsMissBeforeLookup: a guessed owner that refuses is
// reported to the ring before the authoritative lookup runs, and the
// miss is counted against what the guess rested on; a ring that names
// nobody goes straight to the lookup and is counted as declined.
func TestRouterReportsMissBeforeLookup(t *testing.T) {
	for _, src := range []GuessSource{GuessRouting, GuessLearned, NoGuess} {
		t.Run(fmt.Sprintf("source=%q", src), func(t *testing.T) {
			ring := &forgettingRing{scriptedRing{src: src}}
			refusals := 1
			if src == NoGuess {
				refusals = 0
			}
			r := NewRouter(ring, RouteConfig{Local: refuseFirst(refusals)})
			if _, err := r.Call(context.Background(), 7, MethodPut, PutReq{}); err != nil {
				t.Fatalf("call: %v", err)
			}
			want := []string{"guess", "missed self", "lookup"}
			if src == NoGuess {
				want = []string{"guess", "lookup"}
			}
			if !reflect.DeepEqual(ring.calls, want) {
				t.Errorf("ring consulted as %v, want %v", ring.calls, want)
			}
			hits, misses := r.GuessStats()
			_, learnedMisses := r.LearnedStats()
			wantMisses, wantLearned := uint64(1), uint64(0)
			switch src {
			case GuessLearned:
				wantLearned = 1
			case NoGuess:
				wantMisses = 0
			}
			if hits != 0 || misses != wantMisses || learnedMisses != wantLearned {
				t.Errorf("hits %d misses %d learned misses %d, want 0, %d, %d", hits, misses, learnedMisses, wantMisses, wantLearned)
			}
			if got := r.declined.Value(); (got == 1) != (src == NoGuess) {
				t.Errorf("declined = %d for source %q", got, src)
			}
		})
	}
}

// TestRouterMissOnRingWithoutForgetter: on a ring that remembers no
// arcs, a refused guess has nobody to be reported to, yet it is still
// counted as a miss and the authoritative lookup still runs.
func TestRouterMissOnRingWithoutForgetter(t *testing.T) {
	ring := &scriptedRing{src: GuessRouting}
	r := NewRouter(ring, RouteConfig{Local: refuseFirst(1)})
	resp, err := r.Call(context.Background(), 7, MethodPut, PutReq{})
	if err != nil || !resp.(PutResp).Stored {
		t.Fatalf("call = %v, %v; want the lookup-routed retry to store", resp, err)
	}
	if want := []string{"guess", "lookup"}; !reflect.DeepEqual(ring.calls, want) {
		t.Errorf("ring consulted as %v, want %v", ring.calls, want)
	}
	if hits, misses := r.GuessStats(); hits != 0 || misses != 1 {
		t.Errorf("hits %d misses %d, want 0 and 1", hits, misses)
	}
}

// TestCallEachRefusedMemberGoesOnAlone: each member of a group that its
// owner refuses goes on alone, exactly as Call would after that
// attempt — after a guess, the miss reported and the lookup at once;
// after a lookup, the back-off and one fresh lookup, none when Retries
// is 0 — and a Looked target whose lookup failed gets a fresh lookup,
// never a guess.
func TestCallEachRefusedMemberGoesOnAlone(t *testing.T) {
	owner := NodeRef{ID: 9, Addr: "owner"}
	for _, tc := range []struct {
		name      string
		retries   int
		targets   []Target
		calls     []string // the ring consulted, in order
		sends     []string // each send's owner and members
		refused   bool     // the members keep the owner's refusal
		hits, mis uint64
	}{{
		name:    "guessed",
		retries: 1,
		targets: []Target{{ID: 1, Ref: owner, Src: GuessRouting}, {ID: 2, Ref: owner, Src: GuessRouting}, {ID: 3, Ref: owner, Src: GuessRouting}},
		calls:   []string{"missed owner", "lookup", "missed owner", "lookup"},
		sends:   []string{"owner [0 1 2]", "self [1]", "self [2]"},
		hits:    1, mis: 2,
	}, {
		name:    "looked",
		retries: 1,
		targets: []Target{{ID: 1, Ref: owner, Looked: true}, {ID: 2, Ref: owner, Looked: true}, {ID: 3, Ref: owner, Looked: true}},
		calls:   []string{"sleep", "lookup", "sleep", "lookup"},
		sends:   []string{"owner [0 1 2]", "self [1]", "self [2]"},
	}, {
		name:    "looked, no retries",
		targets: []Target{{ID: 1, Ref: owner, Looked: true}, {ID: 2, Ref: owner, Looked: true}, {ID: 3, Ref: owner, Looked: true}},
		sends:   []string{"owner [0 1 2]"},
		refused: true,
	}, {
		name:    "looked without an owner",
		retries: 1,
		targets: []Target{{ID: 1, Looked: true}},
		calls:   []string{"lookup"},
		sends:   []string{"self [0]"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			ring := &forgettingRing{scriptedRing{src: GuessRouting}}
			r := NewRouter(ring, RouteConfig{Retries: tc.retries})
			var sends []string
			errs := r.CallEach(context.Background(), tc.targets, func(ref NodeRef, idx []int) []error {
				sends = append(sends, fmt.Sprint(ref.Addr, " ", idx))
				errs := make([]error, len(idx))
				for j, i := range idx {
					if ref == owner && i > 0 {
						errs[j] = core.ErrNotResponsible
					}
				}
				return errs
			})
			for i, err := range errs {
				if want := tc.refused && i > 0; (err != nil) != want || (want && !errors.Is(err, core.ErrNotResponsible)) {
					t.Errorf("member %d: %v, refused %v", i, err, want)
				}
			}
			if !reflect.DeepEqual(sends, tc.sends) {
				t.Errorf("sent %q, want %q", sends, tc.sends)
			}
			if !reflect.DeepEqual(ring.calls, tc.calls) {
				t.Errorf("ring consulted as %q, want %q", ring.calls, tc.calls)
			}
			if hits, misses := r.GuessStats(); hits != tc.hits || misses != tc.mis {
				t.Errorf("hits %d misses %d, want %d and %d", hits, misses, tc.hits, tc.mis)
			}
		})
	}
}

// TestCallEachResolvesAnUnknownTargetAsCall: a target that names no
// owner is resolved, sent, retried and counted exactly as Call handles
// the same operation, whatever the ring's guess rests on and whether
// the first owner refuses.
func TestCallEachResolvesAnUnknownTargetAsCall(t *testing.T) {
	for _, src := range []GuessSource{GuessRouting, GuessLearned, NoGuess} {
		for refusals := 0; refusals <= 2; refusals++ {
			t.Run(fmt.Sprintf("source=%q/refusals=%d", src, refusals), func(t *testing.T) {
				type outcome struct {
					calls                 []string
					err                   bool
					hits, misses, learned uint64
					declined              uint64
				}
				run := func(each bool) outcome {
					ring := &forgettingRing{scriptedRing{src: src}}
					r := NewRouter(ring, RouteConfig{Retries: 1, Local: refuseFirst(refusals)})
					ctx := context.Background()
					var err error
					if each {
						err = r.CallEach(ctx, []Target{{ID: 7}}, func(ref NodeRef, idx []int) []error {
							_, err := r.Send(ctx, ref, MethodPut, PutReq{})
							return []error{err}
						})[0]
					} else {
						_, err = r.Call(ctx, 7, MethodPut, PutReq{})
					}
					o := outcome{calls: ring.calls, err: err != nil, declined: r.declined.Value()}
					o.hits, o.misses = r.GuessStats()
					_, o.learned = r.LearnedStats()
					return o
				}
				if call, each := run(false), run(true); !reflect.DeepEqual(call, each) {
					t.Errorf("CallEach %+v, Call %+v", each, call)
				}
			})
		}
	}
}

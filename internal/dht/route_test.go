package dht

import (
	"context"
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
func (r *scriptedRing) Env() network.Env           { return nil }
func (r *scriptedRing) OwnsID(core.ID) bool        { return true }
func (r *scriptedRing) HeldSince() time.Duration   { return 0 } // no Env: nothing reads it
func (r *scriptedRing) Alive() bool                { return true }
func (r *scriptedRing) Obs() *obs.Registry         { return nil }

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

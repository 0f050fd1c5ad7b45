package dht

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/simnet"
)

// TestIDListSortedAndDeduplicated: the wire form of an exclusion set is
// nil when empty, and otherwise every member once, in ascending order,
// whatever order the ids were gathered in; IDSet inverts it.
func TestIDListSortedAndDeduplicated(t *testing.T) {
	for _, tc := range []struct {
		name     string
		in, want []core.ID
	}{
		{"nil", nil, nil},
		{"empty", []core.ID{}, nil},
		{"one", []core.ID{7}, []core.ID{7}},
		{"unsorted", []core.ID{3, 1, 2}, []core.ID{1, 2, 3}},
		{"repeated", []core.ID{5, 5, 1, 5, 1}, []core.ID{1, 5}},
		{"extremes", []core.ID{^core.ID(0), 0, 1 << 63}, []core.ID{0, 1 << 63, ^core.ID(0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := IDSet(tc.in)
			if len(tc.in) == 0 && set != nil {
				t.Errorf("IDSet(%v) = %v, want nil", tc.in, set)
			}
			got := IDList(set)
			if !slices.Equal(got, tc.want) || (tc.want == nil) != (got == nil) {
				t.Errorf("IDList(IDSet(%v)) = %#v, want %#v", tc.in, got, tc.want)
			}
			for _, id := range tc.in {
				if !set[id] {
					t.Errorf("IDSet(%v) lacks %v", tc.in, id)
				}
			}
		})
	}
}

// TestPeerDead: timeouts, refusals and stopped peers mean the peer is
// gone, wrapped or not; a peer's refusal on the merits does not.
func TestPeerDead(t *testing.T) {
	for err, want := range map[error]bool{
		core.ErrTimeout:                        true,
		core.ErrStopped:                        true,
		core.ErrUnreachable:                    true,
		fmt.Errorf("hop: %w", core.ErrTimeout): true,
		core.ErrNotResponsible:                 false,
		core.ErrNotFound:                       false,
		nil:                                    false,
	} {
		if got := PeerDead(err); got != want {
			t.Errorf("PeerDead(%v) = %v, want %v", err, got, want)
		}
	}
}

// everyRing is all of a Ring that Every reads; anything else would call
// the nil embedded interface and panic.
type everyRing struct {
	Ring
	env   network.Env
	alive atomic.Bool
}

func (r *everyRing) Env() network.Env { return r.env }
func (r *everyRing) Self() NodeRef    { return NodeRef{ID: 7, Addr: "peer-7"} }
func (r *everyRing) Alive() bool      { return r.alive.Load() }

// TestEvery: a round fires between one period and a period and a
// quarter after the one before; the jitter and the round itself draw on
// the one stream task+":"+address, jitter first; and the loop ends once
// the node dies, whether between rounds or in the middle of a sleep.
func TestEvery(t *testing.T) {
	const period = 8 * time.Second
	k := simnet.New(3)
	defer k.Stop()
	r := &everyRing{env: simwire.Env(k)}
	r.alive.Store(true)
	// The stream Every must draw on, replayed by hand: each round takes
	// its jitter, then the round takes one value of its own.
	replay := k.NewRand("probe:peer-7")
	rounds, last := 0, time.Duration(0)
	Every(r, "probe", period, func(rng *rand.Rand) {
		rounds++
		gap := k.Now() - last
		last = k.Now()
		if gap < period || gap > period*5/4 {
			t.Errorf("round %d fired %v after the last, want within [%v, %v]", rounds, gap, period, period*5/4)
		}
		if want := period + time.Duration(replay.Int63n(int64(period)/4+1)); gap != want {
			t.Errorf("round %d fired %v after the last, want %v off stream probe:peer-7", rounds, gap, want)
		}
		if got, want := rng.Int63(), replay.Int63(); got != want {
			t.Errorf("round %d drew %d, want %d off stream probe:peer-7", rounds, got, want)
		}
		if rounds == 5 {
			r.alive.Store(false)
		}
	})
	k.Run(100 * period)
	if rounds != 5 {
		t.Errorf("%d rounds, want 5: the loop must stop once the node dies", rounds)
	}

	// A node that dies in the middle of the first sleep never runs a round.
	r.alive.Store(true)
	Every(r, "probe", period, func(*rand.Rand) { t.Error("a round ran on a dead node") })
	k.After(period/2, func() { r.alive.Store(false) })
	k.Run(k.Now() + 100*period)
}

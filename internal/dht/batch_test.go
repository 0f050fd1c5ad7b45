package dht

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/network/tcpwire"
	"repro/internal/simnet"
	"repro/internal/store"
)

// batchPeers is a server that owns the positions owns accepts, a caller
// that owns every position, and a liar that answers a batch of n items
// with says(n) — all on one wire.
type batchPeers struct {
	server, caller soloRing
	liar           network.Addr
}

// onEachWireBetween runs body on three peers over simwire (inside a
// kernel process, so body reports with t.Errorf, never t.Fatalf) and
// over tcpwire (on the wall clock).
func onEachWireBetween(t *testing.T, owns func(core.ID) bool, says func(n int) network.Message, body func(t *testing.T, p batchPeers)) {
	lie := network.Typed(func(r PutBatchReq) (network.Message, error) { return says(len(r.Items)), nil })
	t.Run("simwire", func(t *testing.T) {
		k := simnet.New(1)
		net := simwire.New(k, simwire.Config{})
		env := simwire.Env(k)
		liar := net.NewEndpoint("liar")
		liar.Handle(MethodPutBatch, lie)
		p := batchPeers{
			server: newSoloRing(env, net.NewEndpoint("server"), owns),
			caller: newSoloRing(env, net.NewEndpoint("caller"), nil),
			liar:   liar.Addr(),
		}
		done := false
		k.Go(func() {
			body(t, p)
			done = true
		})
		k.Run(time.Minute)
		if !done {
			t.Fatal("simulation stalled")
		}
	})
	t.Run("tcpwire", func(t *testing.T) {
		var eps []network.Endpoint
		for range 3 {
			ep, err := tcpwire.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			eps = append(eps, ep)
		}
		eps[2].Handle(MethodPutBatch, lie)
		env := network.NewRealEnv(1)
		defer env.Close()
		body(t, batchPeers{server: newSoloRing(env, eps[0], owns), caller: newSoloRing(env, eps[1], nil), liar: eps[2].Addr()})
	})
}

// evenOwner owns the even ring positions.
func evenOwner(id core.ID) bool { return id%2 == 0 }

// batchKeys returns n keys whose Hr[0] position evenOwner owns, then n
// it does not.
func batchKeys(h hashing.Func, n int) (mine, theirs []core.Key) {
	for i := 0; len(mine) < n || len(theirs) < n; i++ {
		k := core.Key(fmt.Sprintf("k%d", i))
		if evenOwner(h.ID(k)) {
			if len(mine) < n {
				mine = append(mine, k)
			}
		} else if len(theirs) < n {
			theirs = append(theirs, k)
		}
	}
	return mine, theirs
}

// items is one batch item per key, at Hr[0] with the given stamps.
func items(h hashing.Func, keys []core.Key, data []byte, stamps ...uint64) []store.Item {
	out := make([]store.Item, len(keys))
	for i, k := range keys {
		out[i] = store.Item{RingID: h.ID(k), Qual: Qualifier("ums", k, h.Name()), Val: core.Value{Data: data, TS: core.TS(stamps[i])}}
	}
	return out
}

// TestPutBatchIsItsItemsOneByOne: sent over the wire or served
// in-process, a batch has the outcomes its items would have had one by
// one — an item at a position the peer does not own is refused while
// its siblings store, and PutIfNewer refuses an older item while a newer
// sibling lands.
func TestPutBatchIsItsItemsOneByOne(t *testing.T) {
	h := hashing.NewSet(1).Hr[0]
	mine, theirs := batchKeys(h, 2)
	onEachWireBetween(t, evenOwner, nil, func(t *testing.T, p batchPeers) {
		ctx := context.Background()
		for _, path := range []struct {
			name string
			from soloRing
		}{{"remote", p.caller}, {"in-process", p.server}} {
			p.server.Store().Clear()
			c := NewClient(path.from, "ums")
			keys := []core.Key{mine[0], theirs[0], mine[1]}
			stored, errs := c.putBatch(ctx, p.server.Self(), PutBatchReq{Items: items(h, keys, []byte("v"), 1, 1, 1), Mode: PutIfNewer})
			for j, want := range []error{nil, core.ErrNotResponsible, nil} {
				if !errors.Is(errs[j], want) || (want == nil && errs[j] != nil) || stored[j] != (want == nil) {
					t.Errorf("%s: item %d: stored %v, %v; want stored %v, %v", path.name, j, stored[j], errs[j], want == nil, want)
				}
			}
			if n := p.server.Store().Len(); n != 2 {
				t.Errorf("%s: server holds %d replicas, want the 2 it owns", path.name, n)
			}

			stored, errs = c.putBatch(ctx, p.server.Self(), PutBatchReq{Items: items(h, mine, []byte("w"), 0, 2), Mode: PutIfNewer})
			if errs[0] != nil || errs[1] != nil || stored[0] || !stored[1] {
				t.Errorf("%s: older and newer item: stored %v, errors %v; want [false true], none", path.name, stored, errs)
			}
			for j, want := range []string{"v", "w"} {
				if v, _ := p.server.Store().Get(h.ID(mine[j]), Qualifier("ums", mine[j], h.Name())); string(v.Data) != want {
					t.Errorf("%s: replica %d reads %q, want %q", path.name, j, v.Data, want)
				}
			}
		}
	})
}

// TestLocalPutBatchIsValueSafe: a batch a peer addresses to itself runs
// in-process — no message is charged — yet overwriting the buffer its
// items were handed leaves the stored replicas as they were.
func TestLocalPutBatchIsValueSafe(t *testing.T) {
	h := hashing.NewSet(1).Hr[0]
	mine, _ := batchKeys(h, 2)
	onEachWireBetween(t, evenOwner, nil, func(t *testing.T, p batchPeers) {
		var meter network.Meter
		ctx := network.WithMeter(context.Background(), &meter)
		buf := []byte("original")
		c := NewClient(p.server, "ums")
		if _, errs := c.putBatch(ctx, p.server.Self(), PutBatchReq{Items: items(h, mine, buf, 1, 1), Mode: PutIfNewer}); errs[0] != nil || errs[1] != nil {
			t.Errorf("batch: %v", errs)
			return
		}
		buf[0] = 'X'
		for _, k := range mine {
			if v, _ := p.server.Store().Get(h.ID(k), Qualifier("ums", k, h.Name())); string(v.Data) != "original" {
				t.Errorf("replica of %q reads %q after the batch's buffer changed, want %q", k, v.Data, "original")
			}
		}
		if meter.Msgs != 0 {
			t.Errorf("an in-process batch charged %d msgs, want 0", meter.Msgs)
		}
	})
}

// TestPutBatchReplyMustAnswerEveryItem: a reply whose per-item slices
// do not match the request — too short, too long, or of another type —
// fails every item with ErrUnreachable, never a panic or a silent short
// count.
func TestPutBatchReplyMustAnswerEveryItem(t *testing.T) {
	h := hashing.NewSet(1).Hr[0]
	keys, _ := batchKeys(h, 3)
	bad := map[string]func(n int) network.Message{
		"short Stored": func(n int) network.Message {
			return PutBatchResp{Stored: make([]bool, n-1), Code: make([]string, n), Msg: make([]string, n)}
		},
		"short Code": func(n int) network.Message {
			return PutBatchResp{Stored: make([]bool, n), Code: make([]string, n-1), Msg: make([]string, n)}
		},
		"short Msg": func(n int) network.Message {
			return PutBatchResp{Stored: make([]bool, n), Code: make([]string, n), Msg: make([]string, n-1)}
		},
		"long": func(n int) network.Message {
			return PutBatchResp{Stored: make([]bool, n+1), Code: make([]string, n+1), Msg: make([]string, n+1)}
		},
		"empty":      func(int) network.Message { return PutBatchResp{} },
		"other type": func(int) network.Message { return PutResp{Stored: true} },
	}
	for name, reply := range bad {
		t.Run(name, func(t *testing.T) {
			onEachWireBetween(t, nil, reply, func(t *testing.T, p batchPeers) {
				c := NewClient(p.caller, "ums")
				stored, errs := c.putBatch(context.Background(), NodeRef{Addr: p.liar}, PutBatchReq{Items: items(h, keys, []byte("v"), 1, 1, 1)})
				if len(stored) != len(keys) || len(errs) != len(keys) {
					t.Errorf("%d outcomes for %d items", len(errs), len(keys))
					return
				}
				for j := range keys {
					if stored[j] || !errors.Is(errs[j], core.ErrUnreachable) {
						t.Errorf("item %d: stored %v, %v; want not stored, ErrUnreachable", j, stored[j], errs[j])
					}
				}
			})
		})
	}
}

// TestPutHEachRefusedMemberGoesOnAlone: a member the named owner
// refuses re-resolves alone through the router and is stored where the
// lookup points, whether a guess or a lookup run ahead named the owner,
// while its sibling stays stored at the owner.
func TestPutHEachRefusedMemberGoesOnAlone(t *testing.T) {
	set := hashing.NewSet(2)
	var k core.Key
	for i := 0; ; i++ {
		k = core.Key(fmt.Sprintf("k%d", i))
		if evenOwner(set.Hr[0].ID(k)) && !evenOwner(set.Hr[1].ID(k)) {
			break
		}
	}
	onEachWireBetween(t, evenOwner, nil, func(t *testing.T, p batchPeers) {
		for _, src := range []GuessSource{GuessRouting, NoGuess} {
			p.server.Store().Clear()
			p.caller.Store().Clear()
			c := NewClient(p.caller, "ums")
			targets := make([]Target, len(set.Hr))
			for j, h := range set.Hr {
				targets[j] = Target{ID: h.ID(k), Ref: p.server.Self(), Src: src, Looked: src == NoGuess}
			}
			errs := c.PutHEach(context.Background(), k, set.Hr, targets, core.Value{Data: []byte("v"), TS: core.TS(1)}, PutIfNewer)
			if errs[0] != nil || errs[1] != nil {
				t.Errorf("source %q: %v", src, errs)
			}
			if a, b := p.server.Store().Len(), p.caller.Store().Len(); a != 1 || b != 1 {
				t.Errorf("source %q: the owner holds %d replicas and the lookup's answer %d, want 1 and 1", src, a, b)
			}
			want := uint64(1) // a guess the owner confirmed, and one it refused
			if src == NoGuess {
				want = 0
			}
			if hits, misses := c.Router().GuessStats(); hits != want || misses != want {
				t.Errorf("source %q: %d guesses hit and %d missed, want %d and %d", src, hits, misses, want, want)
			}
		}
	})
}

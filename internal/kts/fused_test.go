package kts

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/store"
)

// fusedKey returns a key whose timestamp responsible owns some of its
// replica positions, the indexes of those positions, and the
// responsible's node index.
func (c *cluster) fusedKey() (k core.Key, at []int, owner int) {
	for i := 0; i < 4096; i++ {
		k = core.Key(fmt.Sprintf("fk%04d", i))
		owner = c.responsibleFor(k)
		at = at[:0]
		for j, h := range c.set.Hr {
			if c.nodes[owner].OwnsID(h.ID(k)) {
				at = append(at, j)
			}
		}
		if len(at) > 0 {
			return k, at, owner
		}
	}
	c.t.Fatal("no key whose responsible owns one of its replica positions")
	return "", nil, -1
}

// replicaAt reads what node holds at k's Hr position j.
func (c *cluster) replicaAt(node int, k core.Key, j int) (core.Value, bool) {
	h := c.set.Hr[j]
	return c.nodes[node].Store().Get(h.ID(k), dht.Qualifier("ums", k, h.Name()))
}

// TestFusedGenTSStoresOnlyAfterItsGrant: a fused gen_ts stores the value
// at each named position only once the grant is journalled, and stamped
// with it; a fused last_ts returns those replicas with the counter; and a
// grant the journal refuses stores nothing at all.
func TestFusedGenTSStoresOnlyAfterItsGrant(t *testing.T) {
	c := newCluster(t, 21, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	k, at, owner := c.fusedKey()
	resp := c.services[owner]
	put := resp.replicas[dht.MethodPut]
	var journalled []core.Timestamp // the counter as each named write began
	resp.replicas[dht.MethodPut] = func(from network.Addr, m network.Message) (network.Message, error) {
		cur, _ := resp.vcs.GetCounter(k)
		journalled = append(journalled, cur)
		return put(from, m)
	}
	issuer := c.services[(owner+1)%len(c.services)]
	c.do(func() {
		ctx := context.Background()
		for round := 1; round <= 2; round++ {
			data := []byte(fmt.Sprint("v", round))
			ts, sv, err := issuer.GenTSStore(ctx, k, data, at)
			if err != nil || ts != core.TS(uint64(round)) {
				t.Errorf("round %d: gen_ts = %v, %v", round, ts, err)
				return
			}
			for j, i := range at {
				v, ok := c.replicaAt(owner, k, i)
				if sv.Errs[j] != nil || !sv.Stored[j] || !ok || v.TS != ts || string(v.Data) != string(data) {
					t.Errorf("round %d: position %d stored %v (%v), holds %q at %v; want %q at the grant %v",
						round, i, sv.Stored[j], sv.Errs[j], v.Data, v.TS, data, ts)
				}
			}
			last, read, err := issuer.LastTSRead(ctx, k, at)
			if err != nil || last != ts {
				t.Errorf("round %d: last_ts = %v, %v; want %v", round, last, err, ts)
			}
			for j := range at {
				if read.Errs[j] != nil || read.Vals[j].TS != ts {
					t.Errorf("round %d: last_ts read %v, %v; want the replica at %v", round, read.Vals[j].TS, read.Errs[j], ts)
				}
			}
		}
	})
	for n, cur := range journalled {
		if want := core.TS(uint64(1 + n/len(at))); cur != want {
			t.Errorf("named write %d began with the counter at %v, want its grant %v journalled", n, cur, want)
		}
	}

	// The journal refuses: no grant, and no named position sees a value.
	journalled = nil
	closed := store.NewMem()
	closed.Close()
	resp.vcs = closed
	c.do(func() {
		if ts, _, err := issuer.GenTSStore(context.Background(), k, []byte("lost"), at); err == nil {
			t.Errorf("a gen_ts whose journal failed granted %v", ts)
		}
	})
	if len(journalled) != 0 {
		t.Errorf("%d named writes ran for a refused grant", len(journalled))
	}
	for _, i := range at {
		if v, _ := c.replicaAt(owner, k, i); string(v.Data) != "v2" {
			t.Errorf("position %d holds %q after the refused grant, want \"v2\"", i, v.Data)
		}
	}
}

// TestFusedReplyMustAnswerEveryPosition: a fused reply whose
// per-position slices are shorter than the positions named fails every
// one of them with ErrUnreachable, while its timestamp stands.
func TestFusedReplyMustAnswerEveryPosition(t *testing.T) {
	c := newCluster(t, 22, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	k, _, owner := c.fusedKey()
	at := []int{0, 1}
	ep := c.nodes[owner].Endpoint()
	ep.Handle(MethodGenTS, func(network.Addr, network.Message) (network.Message, error) {
		return GenTSResp{TS: core.TS(7), Stored: []bool{true}, Code: []string{""}, Msg: []string{""}}, nil
	})
	ep.Handle(MethodLastTS, func(network.Addr, network.Message) (network.Message, error) {
		return LastTSResp{TS: core.TS(7), Vals: []core.Value{{TS: core.TS(7)}}}, nil
	})
	issuer := c.services[(owner+1)%len(c.services)]
	c.do(func() {
		ctx := context.Background()
		ts, sv, err := issuer.GenTSStore(ctx, k, []byte("v"), at)
		if err != nil || ts != core.TS(7) {
			t.Errorf("gen_ts = %v, %v; want ts(7)", ts, err)
		}
		last, read, err := issuer.LastTSRead(ctx, k, at)
		if err != nil || last != core.TS(7) {
			t.Errorf("last_ts = %v, %v; want ts(7)", last, err)
		}
		for j := range at {
			if !errors.Is(sv.Errs[j], core.ErrUnreachable) || sv.Stored[j] {
				t.Errorf("gen_ts position %d: stored %v, %v; want unreachable", at[j], sv.Stored[j], sv.Errs[j])
			}
			if !errors.Is(read.Errs[j], core.ErrUnreachable) {
				t.Errorf("last_ts position %d: %v, want unreachable", at[j], read.Errs[j])
			}
		}
	})
}

// TestFusedWireSizes: a request or reply that names no position is
// charged exactly as a plain one; one that does is charged its value
// bytes on top.
func TestFusedWireSizes(t *testing.T) {
	plain := []network.Message{GenTSReq{Key: "k", Data: []byte("ignored")}, GenTSResp{TS: core.TS(1)}, LastTSReq{Key: "k"}, LastTSResp{TS: core.TS(1)}}
	for _, m := range plain {
		if got := network.SizeOf(m); got != network.DefaultWireSize {
			t.Errorf("%T naming nothing is charged %d bytes, want %d", m, got, network.DefaultWireSize)
		}
	}
	data := make([]byte, 1000)
	if got := network.SizeOf(GenTSReq{Key: "k", Data: data, Hr: []int{0}}); got < network.DefaultWireSize+len(data) {
		t.Errorf("a fused gen_ts carrying %d bytes is charged %d", len(data), got)
	}
	if got := network.SizeOf(LastTSResp{Vals: []core.Value{{Data: data}}, Code: []string{""}, Msg: []string{""}}); got < network.DefaultWireSize+len(data) {
		t.Errorf("a fused last_ts reply carrying %d bytes is charged %d", len(data), got)
	}
}

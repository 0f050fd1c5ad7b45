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
)

// keysSharingResponsible returns count distinct keys that resolve to the
// same responsible, plus that responsible's node index.
func (c *cluster) keysSharingResponsible(count int) ([]core.Key, int) {
	byOwner := make(map[int][]core.Key)
	for i := 0; i < 4096; i++ {
		k := core.Key(fmt.Sprintf("bk%04d", i))
		idx := c.responsibleFor(k)
		byOwner[idx] = append(byOwner[idx], k)
		if len(byOwner[idx]) == count {
			return byOwner[idx], idx
		}
	}
	c.t.Fatalf("no %d keys sharing a responsible among 4096 probes", count)
	return nil, -1
}

// GenTSBatch and LastTSBatch must agree with the single-key calls on
// every counter: same start-at-one, same increments, same last_ts view,
// regardless of how the keys spread over responsibles.
func TestBatchMatchesSingleKeyCounters(t *testing.T) {
	c := newCluster(t, 11, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	keys := make([]core.Key, 10)
	for i := range keys {
		keys[i] = core.Key(fmt.Sprintf("bm%d", i))
	}
	c.do(func() {
		ctx := context.Background()
		for want := uint64(1); want <= 2; want++ {
			out, errs := c.svc().GenTSBatch(ctx, keys)
			for i := range keys {
				if errs[i] != nil {
					t.Errorf("batch gen #%d %q: %v", want, keys[i], errs[i])
				} else if out[i] != core.TS(want) {
					t.Errorf("batch gen #%d %q = %v", want, keys[i], out[i])
				}
			}
		}
		// A single-key gen interleaves with the batched ones.
		if ts, err := c.svc().GenTS(ctx, keys[3]); err != nil || ts != core.TS(3) {
			t.Errorf("single gen after batches = %v, %v", ts, err)
		}
		// last_ts: batched view matches, including a never-stamped key.
		probe := append(append([]core.Key{}, keys...), core.Key("bm-never"))
		out, errs := c.svc().LastTSBatch(ctx, probe)
		for i, k := range probe {
			want := core.TS(2)
			if k == keys[3] {
				want = core.TS(3)
			}
			if k == "bm-never" {
				want = core.TSZero
			}
			if errs[i] != nil || out[i] != want {
				t.Errorf("batch last_ts %q = %v, %v; want %v", k, out[i], errs[i], want)
			}
		}
	})
}

// A batch whose keys share a responsible must cost one RPC round — the
// same message count as a single-key call — not one round per key.
func TestBatchCostsOneRoundPerResponsible(t *testing.T) {
	c := newCluster(t, 12, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	keys, owner := c.keysSharingResponsible(4)
	// Issue from a peer that is NOT the responsible so the round trips
	// hit the wire.
	caller := c.services[(owner+1)%len(c.services)]
	c.do(func() {
		ctx := context.Background()
		// Warm every counter first so neither measured pass pays the
		// one-time indirect initialization (replica reads) — what's left
		// is lookups plus the KTS rounds themselves.
		if _, errs := caller.GenTSBatch(ctx, keys); errs[0] != nil {
			t.Fatalf("warm batch: %v", errs[0])
		}
		var singles, batch network.Meter
		for _, k := range keys {
			if _, err := caller.GenTS(network.WithMeter(ctx, &singles), k); err != nil {
				t.Fatalf("single gen %q: %v", k, err)
			}
		}
		_, errs := caller.GenTSBatch(network.WithMeter(ctx, &batch), keys)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("batch gen %q: %v", keys[i], err)
			}
		}
		// Both passes resolve the same responsibles; the batch collapses
		// the four KTS rounds into one, so it must be strictly cheaper.
		if batch.Msgs == 0 || batch.Msgs >= singles.Msgs {
			t.Errorf("batch of %d keys cost %d msgs, %d single-key calls cost %d — batching must beat fan-out",
				len(keys), batch.Msgs, len(keys), singles.Msgs)
		}
	})
}

// A batch issued by the responsible itself skips the KTS round trip
// entirely (served locally), so it costs strictly less than the same
// warm batch from any other peer — the residual is ring-lookup traffic
// only.
func TestBatchServedLocallyIsFree(t *testing.T) {
	c := newCluster(t, 13, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	keys, owner := c.keysSharingResponsible(3)
	remote := c.services[(owner+1)%len(c.services)]
	c.do(func() {
		ctx := context.Background()
		// Warm the counters (the one-time indirect initialization reads
		// replicas over the wire even when served locally).
		if _, errs := c.services[owner].GenTSBatch(ctx, keys); errs[0] != nil {
			t.Fatalf("warm batch: %v", errs[0])
		}
		var local, wire network.Meter
		out, errs := c.services[owner].GenTSBatch(network.WithMeter(ctx, &local), keys)
		for i := range keys {
			if errs[i] != nil || out[i] != core.TS(2) {
				t.Errorf("local batch gen %q = %v, %v", keys[i], out[i], errs[i])
			}
		}
		if _, errs := remote.GenTSBatch(network.WithMeter(ctx, &wire), keys); errs[0] != nil {
			t.Fatalf("remote batch: %v", errs[0])
		}
		if local.Msgs >= wire.Msgs {
			t.Errorf("local batch cost %d msgs, remote %d — the local serve must skip the KTS round",
				local.Msgs, wire.Msgs)
		}
	})
}

// After a responsible crashes and the ring heals, a batch spanning the
// moved keys and untouched ones must succeed for every key, with the
// moved counters indirectly re-initialized above their last stamp.
func TestBatchAfterResponsibleCrash(t *testing.T) {
	c := newCluster(t, 14, 10, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	moved, owner := c.keysSharingResponsible(2)
	other := core.Key("bc-other")
	if c.responsibleFor(other) == owner {
		other = core.Key("bc-other2")
	}
	keys := append(append([]core.Key{}, moved...), other)

	// Stamp every key and store replicas carrying the stamps, as UMS
	// would — the indirect algorithm reads these after the crash.
	client := dht.NewClient(c.nodes[(owner+1)%len(c.nodes)], "ums")
	c.do(func() {
		ctx := context.Background()
		out, errs := c.svc().GenTSBatch(ctx, keys)
		for i, k := range keys {
			if errs[i] != nil {
				t.Fatalf("pre-crash gen %q: %v", k, errs[i])
			}
			for _, h := range c.set.Hr {
				client.PutH(ctx, k, h, core.Value{Data: []byte("v"), TS: out[i]}, dht.PutIfNewer)
			}
		}
	})

	c.nodes[owner].Crash()
	c.net.Kill(c.nodes[owner].Self().Addr)
	c.settle(5 * time.Second) // ring heals

	c.do(func() {
		out, errs := c.svc().GenTSBatch(context.Background(), keys)
		for i, k := range keys {
			if errs[i] != nil {
				t.Errorf("post-crash batch gen %q: %v", k, errs[i])
				continue
			}
			// Moved keys re-initialize indirectly (tsm+1), so the first
			// gen after the crash returns tsm+2; the untouched key just
			// increments.
			want := core.TS(3)
			if k == other {
				want = core.TS(2)
			}
			if out[i] != want {
				t.Errorf("post-crash gen %q = %v; want %v", k, out[i], want)
			}
		}
	})
}

// A cancelled context fails every slot of the batch without touching
// the wire.
func TestBatchCancelledContext(t *testing.T) {
	c := newCluster(t, 15, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	keys := []core.Key{"bx0", "bx1", "bx2"}
	c.do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, errs := c.svc().GenTSBatch(ctx, keys)
		for i, err := range errs {
			if err == nil {
				t.Errorf("key %q succeeded under a cancelled context", keys[i])
			}
		}
	})
}

// The batch messages charge the bandwidth model proportionally to their
// payload, like every other wire message.
func TestBatchWireSizesScale(t *testing.T) {
	small := BatchReq{Keys: []core.Key{"a"}}
	big := BatchReq{Keys: []core.Key{"a", "b", "c", "d"}}
	if small.WireSize() <= 0 || big.WireSize() <= small.WireSize() {
		t.Errorf("BatchReq wire sizes: small %d, big %d", small.WireSize(), big.WireSize())
	}
	rs := BatchResp{TS: make([]core.Timestamp, 1), Code: []string{""}, Msg: []string{""}}
	rb := BatchResp{TS: make([]core.Timestamp, 4), Code: make([]string, 4), Msg: make([]string, 4)}
	if rs.WireSize() <= 0 || rb.WireSize() <= rs.WireSize() {
		t.Errorf("BatchResp wire sizes: small %d, big %d", rs.WireSize(), rb.WireSize())
	}
	cb := CounterBatch{Entries: []CounterEntry{{Key: "k", TS: core.TS(1)}}}
	if cb.WireSize() <= 0 {
		t.Errorf("CounterBatch wire size %d", cb.WireSize())
	}
}

// TestBatchRogueReplies: a responsible that answers a batch with
// another type, with nothing, or with fewer outcomes than keys fails
// that group's keys with ErrUnreachable instead of crashing the caller.
func TestBatchRogueReplies(t *testing.T) {
	for _, reply := range []network.Message{GenTSResp{}, nil, BatchResp{TS: []core.Timestamp{core.TS(1)}}} {
		c := newCluster(t, 16, 8, Config{Mode: ModeDirect})
		c.settle(2 * time.Second)
		keys, owner := c.keysSharingResponsible(2)
		c.nodes[owner].Endpoint().Handle(MethodGenTSBatch, func(network.Addr, network.Message) (network.Message, error) {
			return reply, nil
		})
		issuer := c.services[(owner+1)%len(c.services)]
		c.do(func() {
			_, errs := issuer.GenTSBatch(context.Background(), keys)
			for i, err := range errs {
				if !errors.Is(err, core.ErrUnreachable) {
					t.Errorf("reply %#v: key %q: %v, want an error wrapping ErrUnreachable", reply, keys[i], err)
				}
			}
		})
	}
}

// TestBatchRefusedKeyGoesOnAlone: keys their responsible turns away as
// not its own each go on alone, in a BatchReq of one key, as a single-key
// gen_ts would after that refusal; the sibling it granted keeps its
// timestamp and every key is stamped exactly once.
func TestBatchRefusedKeyGoesOnAlone(t *testing.T) {
	c := newCluster(t, 17, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	keys, owner := c.keysSharingResponsible(3)
	serve := c.services[owner].handlers()[MethodGenTSBatch]
	refuse := map[core.Key]bool{keys[1]: true, keys[2]: true}
	var got [][]core.Key
	c.nodes[owner].Endpoint().Handle(MethodGenTSBatch, func(from network.Addr, m network.Message) (network.Message, error) {
		req := m.(BatchReq)
		got = append(got, req.Keys)
		n := len(req.Keys)
		resp := BatchResp{TS: make([]core.Timestamp, n), Code: make([]string, n), Msg: make([]string, n)}
		for j, k := range req.Keys {
			if refuse[k] {
				refuse[k] = false
				resp.Code[j], resp.Msg[j] = network.EncodeError(core.ErrNotResponsible)
				continue
			}
			r, err := serve(from, BatchReq{Keys: []core.Key{k}})
			if err != nil {
				return nil, err
			}
			one := r.(BatchResp)
			resp.TS[j], resp.Code[j], resp.Msg[j] = one.TS[0], one.Code[0], one.Msg[0]
		}
		return resp, nil
	})
	issuer := c.services[(owner+1)%len(c.services)]
	c.do(func() {
		out, errs := issuer.GenTSBatch(context.Background(), keys)
		for i, k := range keys {
			if errs[i] != nil || out[i] != core.TS(1) {
				t.Errorf("gen %q = %v, %v; want ts(1)", k, out[i], errs[i])
			}
		}
	})
	want := [][]core.Key{keys, {keys[1]}, {keys[2]}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the responsible was sent %v, want %v", got, want)
	}
}

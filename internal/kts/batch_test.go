package kts

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
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

// A multi-key op runs each key's single gen_ts or last_ts. Warm, the
// responsible serves every key of such a batch in-process at no
// message; any other peer pays a round trip per key.
func TestBatchServedLocallyIsFree(t *testing.T) {
	c := newCluster(t, 13, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	keys, owner := c.keysSharingResponsible(3)
	remote := c.services[(owner+1)%len(c.services)]
	c.do(func() {
		ctx := context.Background()
		// Warm the counters (the one-time indirect initialization reads
		// replicas over the wire even when served locally).
		for _, k := range keys {
			if _, err := c.services[owner].GenTS(ctx, k); err != nil {
				t.Fatalf("warm gen %q: %v", k, err)
			}
		}
		var local, wire network.Meter
		for _, k := range keys {
			if ts, err := c.services[owner].GenTS(network.WithMeter(ctx, &local), k); err != nil || ts != core.TS(2) {
				t.Errorf("local gen %q = %v, %v; want ts(2)", k, ts, err)
			}
			if ts, err := c.services[owner].LastTS(network.WithMeter(ctx, &local), k); err != nil || ts != core.TS(2) {
				t.Errorf("local last_ts %q = %v, %v; want ts(2)", k, ts, err)
			}
			if _, err := remote.GenTS(network.WithMeter(ctx, &wire), k); err != nil {
				t.Errorf("remote gen %q: %v", k, err)
			}
		}
		if local.Msgs != 0 || wire.Msgs < len(keys) {
			t.Errorf("served locally: %d msgs, remotely: %d; want none locally, a round per key remotely",
				local.Msgs, wire.Msgs)
		}
	})
}

// A cancelled context fails every key's gen_ts and last_ts without
// touching the wire.
func TestBatchCancelledContext(t *testing.T) {
	c := newCluster(t, 15, 8, Config{Mode: ModeDirect})
	c.settle(2 * time.Second)
	keys := []core.Key{"bx0", "bx1", "bx2"}
	c.do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var m network.Meter
		ctx = network.WithMeter(ctx, &m)
		for _, k := range keys {
			if _, err := c.svc().GenTS(ctx, k); !errors.Is(err, context.Canceled) {
				t.Errorf("gen %q under a cancelled context: %v", k, err)
			}
			if _, err := c.svc().LastTS(ctx, k); !errors.Is(err, context.Canceled) {
				t.Errorf("last_ts %q under a cancelled context: %v", k, err)
			}
		}
		if m.Msgs != 0 {
			t.Errorf("cancelled calls cost %d msgs", m.Msgs)
		}
	})
}

// The counter handover batch charges the bandwidth model proportionally
// to its entries, like every other wire message.
func TestBatchWireSizesScale(t *testing.T) {
	small := CounterBatch{Entries: []CounterEntry{{Key: "k", TS: core.TS(1)}}}
	big := CounterBatch{Entries: []CounterEntry{{Key: "a"}, {Key: "b"}, {Key: "c"}, {Key: "d"}}}
	if small.WireSize() <= 0 || big.WireSize() <= small.WireSize() {
		t.Errorf("CounterBatch wire sizes: small %d, big %d", small.WireSize(), big.WireSize())
	}
}

// TestBatchRogueReplies: a responsible that answers gen_ts or last_ts
// with another type, or with nothing, fails each key's call with
// ErrUnreachable instead of crashing the caller, whether or not the
// call names replica positions.
func TestBatchRogueReplies(t *testing.T) {
	for _, reply := range []network.Message{CounterBatch{}, nil} {
		c := newCluster(t, 16, 8, Config{Mode: ModeDirect})
		c.settle(2 * time.Second)
		keys, owner := c.keysSharingResponsible(2)
		rogue := func(network.Addr, network.Message) (network.Message, error) { return reply, nil }
		ep := c.nodes[owner].Endpoint()
		ep.Handle(MethodGenTS, rogue)
		ep.Handle(MethodLastTS, rogue)
		issuer := c.services[(owner+1)%len(c.services)]
		at := []int{0, 1}
		c.do(func() {
			ctx := context.Background()
			for _, k := range keys {
				if _, err := issuer.GenTS(ctx, k); !errors.Is(err, core.ErrUnreachable) {
					t.Errorf("reply %#v: gen_ts %q: %v, want an error wrapping ErrUnreachable", reply, k, err)
				}
				if _, err := issuer.LastTS(ctx, k); !errors.Is(err, core.ErrUnreachable) {
					t.Errorf("reply %#v: last_ts %q: %v, want an error wrapping ErrUnreachable", reply, k, err)
				}
				if _, _, err := issuer.GenTSStore(ctx, k, []byte("v"), at); !errors.Is(err, core.ErrUnreachable) {
					t.Errorf("reply %#v: fused gen_ts %q: %v, want an error wrapping ErrUnreachable", reply, k, err)
				}
				if _, _, err := issuer.LastTSRead(ctx, k, at); !errors.Is(err, core.ErrUnreachable) {
					t.Errorf("reply %#v: fused last_ts %q: %v, want an error wrapping ErrUnreachable", reply, k, err)
				}
			}
		})
	}
}

package exp

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/network"
	"repro/internal/peer"
)

// TestMultiOpIsItsSingleOps: a multi-key op is its keys' single ops run
// side by side, fused gen_ts and last_ts included. The caller's meter is
// charged nothing; every message the batch sends is in some key's
// Result.Msgs; a Current get comes back Proven for every key; and the
// batch's reads ride on last_ts where the timestamp responsible owns a
// replica position.
func TestMultiOpIsItsSingleOps(t *testing.T) {
	cfg := Table1Deployment(16, 7)
	cfg.UseCluster()
	d := NewDeployment(cfg)
	defer d.K.Stop()
	d.RunFor(table1Warmup)
	p := d.Peers[3]
	keys := make([]core.Key, 8)
	datas := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = core.Key(fmt.Sprintf("multi-%d", i))
		datas[i] = []byte(keys[i])
	}
	fused := d.Obs.CounterVec("dcdht_ums_retrieve_total", "", "mode").With("fused")
	before := fused.Value()
	var caller network.Meter
	var sent, charged [2]uint64 // put, get: messages on the network, and in the results
	if !d.Do(func() {
		ctx := network.WithMeter(context.Background(), &caller)
		start := d.Net.TotalMessages()
		puts, errs := p.PutMulti(ctx, peer.UMS, keys, datas)
		sent[0] = d.Net.TotalMessages() - start
		for i, err := range errs {
			if err != nil || puts[i].Stored == 0 {
				t.Errorf("put %q: stored %d, %v", keys[i], puts[i].Stored, err)
			}
			charged[0] += uint64(puts[i].Msgs)
		}
		start = d.Net.TotalMessages()
		gets, errs := p.GetMulti(ctx, peer.UMS, keys, dht.ReadPolicy{})
		sent[1] = d.Net.TotalMessages() - start
		for i, err := range errs {
			if err != nil || string(gets[i].Data) != string(datas[i]) || gets[i].Currency != dht.CurrencyProven {
				t.Errorf("get %q: %q %s, %v; want its data, proven", keys[i], gets[i].Data, gets[i].Currency, err)
			}
			charged[1] += uint64(gets[i].Msgs)
		}
	}) {
		t.Fatal("simulation stalled")
	}
	if caller.Msgs != 0 {
		t.Errorf("the caller's meter was charged %d msgs; every message belongs to a key", caller.Msgs)
	}
	if sent != charged {
		t.Errorf("put, get sent %v msgs, their results report %v", sent, charged)
	}
	if fused.Value() == before {
		t.Error("no read of the batch rode on its last_ts")
	}
}

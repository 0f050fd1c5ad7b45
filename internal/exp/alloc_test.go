package exp

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dht"
)

// TestEventualGetAllocsPinned is an allocation regression gate on the
// cheapest read path: an Eventual-level retrieve through a warm
// deployment, including the d.Do driver overhead, currently costs
// ~40 heap objects. The pin has 2x headroom — it exists to catch a
// hot-path rewrite that starts boxing per-op state, not to fight
// single-object noise.
func TestEventualGetAllocsPinned(t *testing.T) {
	d := NewDeployment(Table1Deployment(24, 7))
	defer d.K.Stop()
	d.RunFor(table1Warmup)
	p := d.Peers[0]
	key := core.Key("alloc-k")
	if !d.Do(func() {
		if _, err := p.UMS.Insert(context.Background(), key, []byte("v")); err != nil {
			t.Errorf("insert: %v", err)
		}
	}) {
		t.Fatal("insert stalled")
	}
	pol := dht.ReadPolicy{Level: dht.LevelEventual}
	// Warm pools, caches and the kernel free list before pinning.
	for i := 0; i < 5; i++ {
		d.Do(func() { p.UMS.RetrieveWith(context.Background(), key, pol) })
	}
	allocs := testing.AllocsPerRun(50, func() {
		if !d.Do(func() {
			if _, err := p.UMS.RetrieveWith(context.Background(), key, pol); err != nil {
				t.Errorf("get: %v", err)
			}
		}) {
			t.Error("get stalled")
		}
	})
	if allocs > 80 {
		t.Errorf("eventual get allocates %.1f objects/op, pinned at 80", allocs)
	}
}

// TestWarmPutAllocsPinned is the same gate on a warm put: gen_ts and
// the replica writes, one per owner, through a 16-peer cluster
// deployment, from one fixed peer. It costs 343 heap objects per put. The pin is 360: a rewrite
// that adds a map and a slice or two per write group, about +30 objects,
// fails, while single-object noise does not.
func TestWarmPutAllocsPinned(t *testing.T) {
	cfg := Table1Deployment(16, 7)
	cfg.UseCluster()
	d := NewDeployment(cfg)
	defer d.K.Stop()
	d.RunFor(table1Warmup)
	p := d.Peers[3]
	key := core.Key("alloc-k")
	put := func() {
		if !d.Do(func() {
			if _, err := p.UMS.Insert(context.Background(), key, []byte("v")); err != nil {
				t.Errorf("put: %v", err)
			}
		}) {
			t.Error("put stalled")
		}
	}
	// Warm the counter, pools, caches and the kernel free list first.
	for i := 0; i < 5; i++ {
		put()
	}
	if allocs := testing.AllocsPerRun(50, put); allocs > 360 {
		t.Errorf("warm put allocates %.1f objects/op, pinned at 360", allocs)
	}
}
